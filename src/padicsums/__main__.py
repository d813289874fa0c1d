"""``python -m padicsums``: the same front end as the ``padicsums`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
