"""What the benchmark in ``bench/`` needs from the package.

The tracer wraps functions by name and reads work counts off the values they
return; the job checks import program names directly.  A rename or a changed
signature would not fail the program's own tests, only the benchmark run, so
these tests read ``bench/`` (without running it) and check each of those
names against the package.
"""

import ast
import importlib
import inspect
import types
from fractions import Fraction
from pathlib import Path

import pytest

from padicsums.expsum import EvalRequest, eval_recursive
from padicsums.padic import PrimeContext
from padicsums.polymap import parse_polymap
from padicsums.singular import DensityTable, count_fibers

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_tracer():
    # compiled by hand, so that no bytecode cache is written into bench/
    path = BENCH / "tracer.py"
    module = types.ModuleType("bench_tracer")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def _resolve(module: str, attr: str):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


TRACER = _load_tracer()


@pytest.mark.parametrize("layer, module, attr", TRACER.TARGETS, ids=[t[0] for t in TRACER.TARGETS])
def test_every_traced_target_resolves(layer, module, attr):
    assert callable(_resolve(module, attr))


def test_the_unit_sweep_is_a_generator_function():
    # The tracer times a generator per next(), not per call.
    assert inspect.isgeneratorfunction(_resolve("padicsums.expsum", "eval_unit_directions"))


def test_count_fibers_binds_the_arguments_the_tracer_reads():
    params = inspect.signature(count_fibers).parameters
    assert {"f", "m", "ctx", "strategy"} <= set(params)
    assert params["strategy"].default == "auto"


def test_the_work_counts_the_tracer_reads_exist():
    # read by attribute off a returned result, as the tracer's counters do
    req = EvalRequest.of(parse_polymap("x1^2", 1), (Fraction(1, 3),), PrimeContext(3))
    stats = eval_recursive(req).stats
    for name in ("p1", "p2", "splits", "leaves", "points"):
        assert isinstance(getattr(stats, name), int)
    assert callable(DensityTable.total)


def _package_imports():
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("padicsums"):
                for alias in node.names:
                    yield path.name, node.module, alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("padicsums"):
                        yield path.name, alias.name, None


def test_every_package_import_of_the_benchmark_resolves():
    imports = list(_package_imports())
    assert imports  # the benchmark does import the package
    for source, module, name in imports:
        imported = importlib.import_module(module)
        assert name is None or hasattr(imported, name), (source, module, name)
