"""Every benchmark job prints the bytes it printed when the digests were made.

``tests/data/bench_golden.json`` holds, for each workload of ``bench/jobs.py``
at seeds 1 and 2, the sha256 of each job's exit code and standard output, in
job order.  A change that claims to keep every output byte (a faster walk, a
refactor) must leave these digests as they are.  To regenerate them from the
current source, on purpose:

    PYTHONPATH=src python tests/test_bench_golden.py
"""

import contextlib
import hashlib
import io
import json
import sys
import types
from pathlib import Path

import pytest

from padicsums.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "bench_golden.json"
SEEDS = (1, 2)


def _load_jobs():
    # compiled by hand, so that no bytecode cache is written into bench/;
    # registered first, as its dataclass looks its module up by name
    path = ROOT / "bench" / "jobs.py"
    module = sys.modules["bench_jobs"] = types.ModuleType("bench_jobs")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


JOBS = _load_jobs()


def _digest(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()


def _digests(workload: str, seed: int) -> list[list[str]]:
    """[argv as one line, digest] for each job of the workload, in order."""
    return [
        [" ".join(job.argv()), _digest(job.argv())]
        for job in JOBS.WORKLOADS[workload](seed)
    ]


def _cases():
    return [(workload, seed) for workload in JOBS.WORKLOADS for seed in SEEDS]


@pytest.mark.parametrize("workload, seed", _cases(), ids=[f"{w}-{s}" for w, s in _cases()])
def test_bench_outputs_are_pinned(workload, seed):
    golden = json.loads(GOLDEN.read_text())[workload][str(seed)]
    assert _digests(workload, seed) == golden


if __name__ == "__main__":
    table: dict = {}
    for workload, seed in _cases():
        table.setdefault(workload, {})[str(seed)] = _digests(workload, seed)
    GOLDEN.write_text(json.dumps(table, indent=1) + "\n")
