"""Batch command-line front end.

Subcommands: eval, density, decay, fourier-check.  Each takes the shared
flags --prime, --map/--map-file, --budget, --out and --workers plus its own
(``_COMMANDS``); any other flag is a usage error.  --workers is accepted for
compatibility and has no effect: every command runs in one thread.  All
randomness is seeded and the seed is echoed in the output; identical
configuration and seed give byte-identical output.

A command loads only the modules it runs: this module imports ``expsum``
(and through it ``padic`` and ``polymap``), which is all ``eval`` needs;
the ``decay``, ``density`` and ``fourier-check`` handlers import ``decay``
or ``singular`` when they run.

Exit codes (``_EXIT_CODES``): 0 success, 2 parse/usage error (including a
--map-file that cannot be read, an --out path that cannot be written, a
standard output that cannot be written, such as a closed pipe, and a result
with a number too long to print), 3 budget
exceeded, 4 precondition violated, 5 internal consistency failure.  Any
other exception is a bug: it propagates, with a traceback and exit 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import sys
from fractions import Fraction
from io import StringIO
from pathlib import Path
from typing import NamedTuple, Sequence

from .errors import (
    MAX_DIGITS,
    BudgetExceededError,
    ConsistencyError,
    ParseError,
    PreconditionError,
)
from .expsum import EvalRequest, eval_naive, eval_recursive
from .padic import DEFAULT_EPSILON, DEFAULT_NAIVE_BUDGET, PrimeContext
from .polymap import PolyMap, SchwartzBruhat, infer_variable_count, parse_polymap

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_PRECONDITION = 4
EXIT_CONSISTENCY = 5

_Y_SUGAR = re.compile(r"^(-?\d+)/(\d+)\^(\d+)$")

#: Largest |k| of a --phi ball c + p**k Z_p^n.  The evaluators substitute
#: c + p**k t into the map before any budget counts their work, which for
#: k < 0 grows with the square of |k| times the map's degree; and past
#: k = 14,300 the ball's measure p**(-k*n) alone has more digits than Python
#: prints.
MAX_BALL_EXPONENT = 20_000


def parse_rational(text: str) -> Fraction:
    """Rationals 'a/b' plus the sugar 'u/p^m' for u / p**m.  Every y is echoed
    in the output, so one too long to print is a ParseError too."""
    text = text.strip()
    m = _Y_SUGAR.match(text)
    if m:
        u, base, exp = int(m.group(1)), int(m.group(2)), int(m.group(3))
        if base < 2:
            raise ParseError(f"bad denominator base in {text!r}")
        # refuse before computing base**exp: the reduced denominator has
        # more than exp*log10(base) - log10|u| digits (no limit: 0)
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if u and limit and exp > (limit + 1 + math.log10(abs(u))) / math.log10(base):
            raise ParseError(f"rational {text!r} is too long to print")
        value = Fraction(u, base ** exp)
    else:
        try:
            value = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational {text!r}: {exc}") from None
    try:
        str(value)
    except ValueError:  # more digits than the interpreter converts to text
        raise ParseError(f"rational {text!r} is too long to print") from None
    return value


def _refuse_long_numerals(text: str, flag: str) -> None:
    """ParseError, without echoing the numeral, if ``text`` has one with more
    digits than int() and Fraction() convert (underscores do not count)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    runs = re.findall(r"\d+", text.replace("_", ""))
    if limit and max(map(len, runs), default=0) > limit:
        raise ParseError(f"a {flag} numeral has more than {limit} digits")


def parse_y_vector(text: str) -> tuple[Fraction, ...]:
    _refuse_long_numerals(text, "--y")
    return tuple(parse_rational(part) for part in text.split(","))


def parse_phi(text: str | None, n: int) -> SchwartzBruhat:
    """phi as a JSON list of {"center": [...], "k": int, "weight": "a/b"},
    each |k| at most MAX_BALL_EXPONENT."""
    if text is None:
        return SchwartzBruhat.trivial(n)
    _refuse_long_numerals(text, "--phi")
    try:
        data = json.loads(text)
        phi = SchwartzBruhat.from_json_list(data, n)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad phi spec: {exc}") from None
    if any(abs(ball.k) > MAX_BALL_EXPONENT for ball in phi.terms):
        raise ParseError(
            f"a --phi ball's k lies outside -{MAX_BALL_EXPONENT}..{MAX_BALL_EXPONENT}"
        )
    return phi


def parse_levels(text: str) -> tuple[int, int]:
    m = re.match(r"^(\d+)\.\.(\d+)$", text.strip())
    if not m:
        raise ParseError(f"bad level range {text!r}; expected m0..m1")
    if max(len(m.group(1)), len(m.group(2))) > MAX_DIGITS:
        raise ParseError(f"a --levels bound has more than {MAX_DIGITS} digits")
    m0, m1 = int(m.group(1)), int(m.group(2))
    if not 1 <= m0 <= m1:
        raise ParseError(f"bad level range {text!r}; need 1 <= m0 <= m1")
    return m0, m1


def parse_strategy(text: str, seed: int):
    if text == "exhaustive":
        return "exhaustive"
    m = re.match(r"^sample:(\d+)$", text)
    if m:
        if len(m.group(1)) > MAX_DIGITS:
            raise ParseError(f"the --strategy sample size has more than {MAX_DIGITS} digits")
        if int(m.group(1)) < 1:
            raise ParseError(f"bad strategy {text!r}; sample:N needs N >= 1")
        return ("sample", int(m.group(1)), seed)
    raise ParseError(f"bad strategy {text!r}; expected 'exhaustive' or 'sample:N'")


class RunConfig(NamedTuple):
    """Everything needed to reproduce a run (worker count excluded: it never
    affects results).  A command echoes the defaults for the fields of the
    flags it does not take."""

    command: str
    prime: int
    map_text: str
    budget: int
    phi: list | None = None
    y: tuple[str, ...] | None = None
    level: int | None = None
    levels: tuple[int, int] | None = None
    strategy: str = "exhaustive"
    seed: int = 0
    epsilon: float = DEFAULT_EPSILON
    format: str = "json"
    method: str = "recursive"

    def to_json_dict(self) -> dict:
        return {
            "map" if k == "map_text" else k: list(v) if isinstance(v, tuple) else v
            for k, v in self._asdict().items()
        }


class _Run(NamedTuple):
    """A command's parsed inputs (defaults for the flags it does not take)."""

    config: RunConfig
    f: PolyMap
    phi: SchwartzBruhat
    ctx: PrimeContext
    y: tuple[Fraction, ...] | None
    strategy: str | tuple[str, int, int] | None


def _load_map_text(args) -> str:
    if args.map and args.map_file:
        raise ParseError("give --map or --map-file, not both")
    if args.map:
        return args.map
    if args.map_file:
        try:
            return Path(args.map_file).read_text().strip()
        except OSError as exc:
            raise ParseError(f"cannot read map file {args.map_file!r}: {exc.strerror}") from None
    raise ParseError("a polynomial map is required (--map or --map-file)")


def _setup(args) -> _Run:
    """Parse the map and then each input the command takes, so the first
    bad one is the one reported, and build the context and the config."""
    given = vars(args)  # holds exactly the flags of args.command
    map_text = _load_map_text(args)
    n = infer_variable_count(map_text)
    f = parse_polymap(map_text, n)
    phi = parse_phi(given.get("phi"), n)
    y = parse_y_vector(args.y) if "y" in given else None
    levels = parse_levels(args.levels) if "levels" in given else None
    strategy = parse_strategy(args.strategy, args.seed) if "strategy" in given else None
    if not math.isfinite(given.get("epsilon", 0.0)):
        raise ParseError(f"--epsilon must be a finite number, not {args.epsilon}")
    ctx = PrimeContext(args.prime, args.budget)
    as_given = ("level", "strategy", "seed", "epsilon", "format", "method")
    config = RunConfig(
        args.command, args.prime, map_text, ctx.naive_budget,
        phi=phi.to_json_list() if given.get("phi") else None,
        y=tuple(str(v) for v in y) if y is not None else None,
        levels=levels,
        **{k: given[k] for k in as_given if k in given},
    )
    return _Run(config, f, phi, ctx, y, strategy)


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path!r}: {exc.strerror}") from None


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        _write(out_path, text)
    else:
        _write_stdout(text if text.endswith("\n") else text + "\n")


def _write_stdout(text: str) -> None:
    """Write and flush, so that a closed pipe fails here, not at exit."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError:
        # The reader is gone.  The unwritten bytes stay buffered, so point the
        # descriptor at the null device for the interpreter's flush at exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise ParseError("cannot write standard output") from None


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


@contextlib.contextmanager
def _rendering():
    """Wrap the code that turns results into text: the interpreter's refusal
    to convert an integer of too many digits (a ValueError) becomes a
    ParseError."""
    try:
        yield
    except ValueError:
        raise ParseError("a number in the output is too long to print") from None


def _cmd_eval(args, run: _Run) -> None:
    evaluate = eval_naive if args.method == "naive" else eval_recursive
    result = evaluate(EvalRequest.of(run.f, run.y, run.ctx, run.phi))
    hist = result.histogram.reduced()
    mag, err = hist.magnitude()
    with _rendering():
        text = _json_dumps({
            "config": run.config.to_json_dict(),
            "histogram": hist.to_json_dict(),
            "magnitude": mag,
            "magnitude_error": err,
            "exact_zero": hist.is_zero(),
            "pruning_stats": result.stats.to_json_dict(),
        })
    _emit(text, args.out)


def _cmd_density(args, run: _Run) -> None:
    from .singular import count_fibers

    table = count_fibers(run.f, args.level, run.ctx)
    with _rendering():
        if args.format == "csv":
            buf = StringIO()
            table.write_csv(buf)
            text = buf.getvalue()
        else:
            text = _json_dumps({"config": run.config.to_json_dict(), "table": table.to_json_dict()})
    _emit(text, args.out)


def _cmd_decay(args, run: _Run) -> None:
    from .decay import degree_bound_report, sweep_window, write_decay_csv

    m0, m1 = run.config.levels
    records = sweep_window(run.f, run.phi, range(m0, m1 + 1), run.strategy, run.ctx)
    report = degree_bound_report(run.f, records, run.ctx, epsilon=args.epsilon)
    with _rendering():
        text = _json_dumps({
            "config": run.config.to_json_dict(),
            "records": [rec.to_json_dict() for rec in records],
            "fit": report.fit_json_dict(),
            "report": report.to_json_dict(),
        })
        csv_buf = StringIO()
        write_decay_csv(records, csv_buf)
    if args.out:
        _write(args.out + ".json", text)
        _write(args.out + ".csv", csv_buf.getvalue())
    else:
        _emit(csv_buf.getvalue() + text, None)
    for note in report.notes:
        print(f"note: {note}", file=sys.stderr)


def _cmd_fourier_check(args, run: _Run) -> None:
    from .singular import fourier_check

    reduced = fourier_check(run.f, run.y, args.level, run.ctx).reduced()
    is_zero = reduced.is_zero()
    payload = {
        "config": run.config.to_json_dict(),
        "residual": reduced.to_json_dict(),
        "is_zero": is_zero,
    }
    _emit(_json_dumps(payload), args.out)
    if not is_zero:
        raise ConsistencyError("fourier residual is nonzero")


#: name -> (handler, help, the flags it takes besides the shared ones)
_COMMANDS = {
    "eval": (_cmd_eval, "evaluate E(y) exactly", ("y", "phi", "method")),
    "density": (_cmd_density, "fiber counts and densities at one level", ("level", "format")),
    "decay": (_cmd_decay, "level sweep, exponent fit, envelope report",
              ("levels", "phi", "strategy", "seed", "epsilon")),
    "fourier-check": (_cmd_fourier_check, "exact fiber-regrouping identity residual",
                      ("y", "level")),
}

#: Exit code of each failure, first match wins (ParseError and
#: PreconditionError are ValueErrors).  Any other exception is a bug and
#: propagates with exit 1.
_EXIT_CODES = (
    (ParseError, EXIT_PARSE),  # also unreadable input and unwritable output
    (BudgetExceededError, EXIT_BUDGET),
    (PreconditionError, EXIT_PRECONDITION),
    (ConsistencyError, EXIT_CONSISTENCY),
    (ValueError, EXIT_PARSE),  # other bad input values, e.g. a --prime that is not prime
)


def _build_parser() -> argparse.ArgumentParser:
    flags = {
        "prime": dict(type=int, default=3, help="the prime p (default 3)"),
        "map": dict(help="semicolon-separated polynomials in x1..xn"),
        "map-file": dict(help="file containing the map text"),
        "budget": dict(
            type=int,
            default=DEFAULT_NAIVE_BUDGET,
            help=f"max enumeration size (default {DEFAULT_NAIVE_BUDGET})",
        ),
        "out": dict(help="output path (decay: prefix for .csv/.json)"),
        "workers": dict(type=int, default=1, help="accepted for compatibility; no effect"),
        "y": dict(required=True, help="comma-separated rationals, e.g. 1/3,2/9 or 2/3^2"),
        "phi": dict(help="JSON list of weighted balls; default: unit polydisc"),
        "method": dict(choices=["recursive", "naive"], default="recursive"),
        "level": dict(type=int, required=True),
        "format": dict(choices=["json", "csv"], default="csv"),
        "levels": dict(required=True, help="range m0..m1"),
        "strategy": dict(default="exhaustive", help="'exhaustive' or 'sample:N'"),
        "seed": dict(type=int, default=0, help="seed for sampling strategies"),
        "epsilon": dict(type=float, default=DEFAULT_EPSILON),
    }
    parser = argparse.ArgumentParser(
        prog="padicsums",
        description="Exact p-adic oscillatory sums, densities, and decay reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, own) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for flag in ("prime", "map", "map-file", "budget", "out", "workers") + own:
            sp.add_argument(f"--{flag}", **flags[flag])
    return parser


_PARSER = _build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        try:
            args = _PARSER.parse_args(argv)
        except SystemExit as exc:  # after --help, or a usage error on stderr
            _write_stdout("")  # the help text may still be in the buffer
            return exc.code if isinstance(exc.code, int) else EXIT_PARSE
        _COMMANDS[args.command][0](args, _setup(args))
    except tuple(cls for cls, _ in _EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
