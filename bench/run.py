"""Benchmark of the padicsums CLI.

    python3 bench/run.py --workload eval-descent --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the program from
``src/``.  One process, one thread, one client in a closed loop: the jobs of
the workload (see ``jobs.py``) go through ``padicsums.cli.main(argv)`` one
after another, in whole passes, until ``--seconds`` have gone by.  Every
output is checked for exactness outside the timed region (``checks.py``) and
must be byte-identical across passes.

``--trace 0`` prints the end-to-end metrics.  Their times are scaled to a
reference host speed: a fixed computation that shares no code with the
program (``yardstick``) is timed between passes, and every time is divided
by (and the job rate multiplied by) the ratio of its median to
``REFERENCE_YARDSTICK_S``.  On a shared 2-vCPU VM whose speed drifted by up
to +-25% within minutes, this took out most of the drift between runs; the
unscaled figures and the ratio are printed on the line before the result.
``setup_s`` is scaled in the same way by a different yardstick: a fresh
interpreter that only imports numpy, timed just before each set-up sample.
Start-up is file and import work, whose speed drifted apart from the
computing yardstick's; the paired ratio kept most of that drift out.

``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics of the traced ones (``tracer.py``); it also writes the
spans of the last traced pass and the work counts to ``bench/out/``, and
fails if the counts differ from those of an earlier run of the same
workload and seed on the same source (program and benchmark).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SPEC = BENCH.parent / "BENCHMARK.json"

#: Fresh interpreters started to time set-up, spread evenly over the
#: measured passes; the median is reported.
SETUP_REPEATS = 7
TRIVIAL_JOB = ["eval", "--prime=3", "--map=x1^2", "--y=1/3", "--workers=1", "--budget=1000"]

#: One tiny job per subcommand, run untimed before measuring.
WARMUP_JOBS = (
    TRIVIAL_JOB,
    ["density", "--prime=3", "--map=x1^2", "--level=1", "--workers=1", "--budget=1000"],
    ["decay", "--prime=3", "--map=x1^2", "--levels=1..2", "--workers=1", "--budget=1000"],
    ["fourier-check", "--prime=3", "--map=x1^2", "--y=1/3", "--level=1",
     "--workers=1", "--budget=1000"],
)

#: Yardstick runs after each pass, and the yardstick time that counts as
#: host speed 1.
YARDSTICK_REPEATS = 3
REFERENCE_YARDSTICK_S = 0.02

#: The set-up yardstick, and its time at host speed 1.
SETUP_YARDSTICK = "import numpy"
REFERENCE_SETUP_YARDSTICK_S = 0.2

MIN_PASSES = 2

#: The tail is the job time with this many samples beyond it.
TAIL_BEYOND = 10


def load_program():
    """Import ``padicsums.cli`` from this checkout's ``src/``, never from an
    installed copy; exit nonzero when the source is not there."""
    if not (SRC / "padicsums" / "cli.py").is_file():
        raise SystemExit(f"error: no program source at {SRC / 'padicsums'}")
    sys.path.insert(0, str(SRC))
    import padicsums.cli

    if Path(padicsums.cli.__file__).resolve().parent != SRC / "padicsums":
        raise SystemExit(f"error: imported padicsums from {padicsums.cli.__file__}")
    return padicsums.cli.main


def run_job(main, argv: list[str], tracer=None) -> tuple[float, object, str]:
    """(wall seconds, exit code or exception text, standard output)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = tracer.run(main, argv) if tracer else main(argv)
    except Exception as exc:  # a crashing job is counted as failed, not fatal
        code = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code, out.getvalue()


def run_pass(main, argvs, tracer=None) -> tuple[float, list]:
    start = time.perf_counter()
    results = [run_job(main, argv, tracer) for argv in argvs]
    return time.perf_counter() - start, results


def time_interpreter(code: str) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        timeout=120,
    )
    return time.perf_counter() - start, proc


def time_setup() -> tuple[float, float, str | None]:
    """Seconds for a fresh interpreter to import padicsums.cli and finish
    one trivial job, seconds of the set-up yardstick just before it, and an
    error message if either failed."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); "
        f"from padicsums.cli import main; sys.exit(main({TRIVIAL_JOB!r}))"
    )
    baseline, base_proc = time_interpreter(SETUP_YARDSTICK)
    seconds, proc = time_interpreter(code)
    for what, done in (("setup yardstick", base_proc), ("setup job", proc)):
        if done.returncode != 0:
            return seconds, baseline, f"{what} exited {done.returncode}: {done.stderr[-300:]!r}"
    return seconds, baseline, None


def yardstick() -> float:
    """Seconds for a fixed mix of interpreted integer and dict work and a
    numpy sort, like the program's own mix."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(20000):
        key = i * 7919 % 1009
        table[key] = table.get(key, 0) + pow(i, 3, 1000003)
        acc = (acc * 31 + table[key]) % 1000003
    np.unique(np.arange(1 << 18, dtype=np.int64) * 7919 % 1000003, return_counts=True)
    return time.perf_counter() - start


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples beyond it."""
    ordered = sorted(samples)
    rank = len(ordered) - TAIL_BEYOND - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def layer_metrics(spans: list, counts: Counter) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    from tracer import self_times

    self_s, calls, root_wall = self_times(spans)
    nodes = counts["expsum.p1"] + counts["expsum.p2"] + counts["expsum.splits"]
    recursive_s = self_s["expsum.recursive"]
    return {
        "expsum.recursive_s": recursive_s,
        "expsum.nodes": nodes,
        "expsum.p1_hits": counts["expsum.p1"],
        "expsum.p2_hits": counts["expsum.p2"],
        "expsum.splits": counts["expsum.splits"],
        "expsum.leaf_ratio": counts["expsum.leaves"] / nodes if nodes else 0.0,
        "expsum.nodes_per_s": nodes / recursive_s if recursive_s else 0.0,
        "expsum.naive_s": self_s["expsum.naive"],
        "expsum.grid_points": counts["expsum.grid_points"],
        "singular.count_s": self_s["singular.count"],
        "singular.count_fallback_s": self_s["singular.count_fallback"],
        "singular.grid_points": counts["singular.grid_points"],
        "singular.fibers": counts["singular.fibers"],
        "singular.fourier_s": self_s["singular.fourier"],
        "padic.reduce_s": self_s["padic.reduce"],
        "padic.reduce_calls": calls["padic.reduce"],
        "padic.magnitude_s": self_s["padic.magnitude"],
        "padic.magnitude_calls": calls["padic.magnitude"],
        "padic.abs_square_s": self_s["padic.abs_square"],
        "expsum.sweep_s": self_s["expsum.sweep"],
        "expsum.directions": counts["expsum.directions"],
        "decay.sup_s": self_s["decay.sup"],
        "decay.directions": counts["decay.directions"],
        "decay.fit_s": self_s["decay.fit"],
        "decay.report_s": self_s["decay.report"],
        "polymap.parse_s": self_s["polymap.parse"],
        "polymap.substitute_s": self_s["polymap.substitute"],
        "cli.self_s": self_s["cli"],
        "trace.explained_frac": 1.0 - self_s["cli"] / root_wall,
    }


#: Per-layer figures that are machine-independent work counts; they must
#: repeat exactly.
WORK_COUNTS = (
    "expsum.nodes",
    "expsum.p1_hits",
    "expsum.p2_hits",
    "expsum.splits",
    "expsum.grid_points",
    "singular.grid_points",
    "singular.fibers",
    "padic.reduce_calls",
    "padic.magnitude_calls",
    "expsum.directions",
    "decay.directions",
)


def units() -> dict[str, str]:
    """The unit of every metric, as BENCHMARK.json lists it."""
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def source_hash() -> str:
    """Digest of the program's and the benchmark's Python source: the work
    counts of a seed may only change when one of them does."""
    import hashlib  # here, not at the top: OpenSSL adds ~3 MB to peak_rss_mb

    digest = hashlib.sha256()
    for path in sorted(SRC.glob("padicsums/**/*.py")) + sorted(BENCH.glob("*.py")):
        digest.update(str(path.relative_to(BENCH.parent)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    program = load_program()
    from checks import check
    from jobs import WORKLOADS
    from tracer import Tracer

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    jobs = WORKLOADS[args.workload](args.seed)
    argvs = [job.argv() for job in jobs]
    problems: list[str] = []

    for argv in WARMUP_JOBS:
        run_job(program, list(argv))

    untraced: list[tuple[float, list]] = []
    traced: list[tuple[float, list, list, Counter]] = []
    setup_times: list[float] = []
    setup_yardstick_times: list[float] = []
    yardstick_times: list[float] = []
    tracer = Tracer()
    measured = 0.0  # seconds spent in passes; set-up timing is not counted

    def sample_setup() -> None:
        seconds, baseline, error = time_setup()
        setup_times.append(seconds)
        setup_yardstick_times.append(baseline)
        if error:
            problems.append(error)

    while True:
        untraced.append(run_pass(program, argvs))
        measured += untraced[-1][0]
        if args.trace:
            tracer.install()
            try:
                wall, results = run_pass(program, argvs, tracer)
            finally:
                tracer.uninstall()
            traced.append((wall, results, *tracer.take_pass()))
            measured += wall
        else:
            yardstick_times += [yardstick() for _ in range(YARDSTICK_REPEATS)]
            if len(setup_times) * args.seconds <= measured * SETUP_REPEATS:
                sample_setup()
        done = len(untraced) >= MIN_PASSES and len(untraced) * len(jobs) > TAIL_BEYOND
        if done and measured >= args.seconds:
            break
    while not args.trace and len(setup_times) < SETUP_REPEATS:
        sample_setup()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # --- correctness, outside the timed region
    check_start = time.perf_counter()
    all_results = [r for _, rs in untraced for r in rs] + [r for _, rs, _, _ in traced for r in rs]
    attempted = len(all_results)
    failed = sum(1 for _, code, _ in all_results if code != 0)
    wrong = 0
    for i, job in enumerate(jobs):
        outputs = {results[i][2] for _, results, *_ in untraced + traced}
        if len(outputs) != 1:
            wrong += 1
            problems.append(f"job {i}: output differs across passes")
            continue
        first = untraced[0][1][i]
        if first[1] != 0:
            problems.append(f"job {i} {argvs[i]}: exit {first[1]}")
            continue
        message = check(job, first[2])
        if message:
            wrong += 1
            problems.append(f"job {i} {argvs[i]}: {message}")

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "jobs": len(jobs),
        "passes": len(untraced),
        "failed_frac": failed / attempted,
        "wrong_outputs": wrong,
        "check_s": time.perf_counter() - check_start,
        "job_s_medians": [
            statistics.median(results[i][0] for _, results in untraced) for i in range(len(jobs))
        ],
    }
    if args.trace:
        metrics = trace_metrics(args, untraced, traced, argvs, problems)
    else:
        samples = [dt for _, results in untraced for dt, _, _ in results]
        completed = sum(1 for _, results in untraced for _, code, _ in results if code == 0)
        tail_s, tail_pct = tail(samples)
        raw = {
            "jobs_per_s": completed / sum(wall for wall, _ in untraced),
            "job_s_p50": statistics.median(samples),
            "job_s_tail": tail_s,
            "setup_s": statistics.median(setup_times),
            "setup_yardstick_s": statistics.median(setup_yardstick_times),
        }
        slowness = statistics.median(yardstick_times) / REFERENCE_YARDSTICK_S
        info.update(
            tail_percentile=tail_pct, tail_samples=len(samples), host_slowness=slowness, raw=raw
        )
        values = {
            "jobs_per_s": raw["jobs_per_s"] * slowness,
            **{name: raw[name] / slowness for name in ("job_s_p50", "job_s_tail")},
            "setup_s": REFERENCE_SETUP_YARDSTICK_S
            * statistics.median(s / b for s, b in zip(setup_times, setup_yardstick_times)),
            "peak_rss_mb": peak_rss_mb,
        }
        unit = units()
        metrics = {name: {"value": value, "unit": unit[name]} for name, value in values.items()}
    info["problems"] = problems
    print(json.dumps(info))
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def trace_metrics(args, untraced, traced, argvs, problems) -> dict:
    """Medians of the per-layer figures over the traced passes; work counts
    must repeat exactly across passes and across runs of the same seed and
    source."""
    per_pass = [layer_metrics(spans, counts) for _, _, spans, counts in traced]
    counts = {name: per_pass[0][name] for name in WORK_COUNTS}
    for other in per_pass[1:]:
        for name in WORK_COUNTS:
            if other[name] != counts[name]:
                problems.append(f"{name} differs across passes: {counts[name]} vs {other[name]}")
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    counts_file = OUT / f"counts-{stem}-{source_hash()}.json"
    if counts_file.exists():
        earlier = json.loads(counts_file.read_text())
        if earlier != counts:
            problems.append(f"work counts differ from an earlier run: {earlier} vs {counts}")
    counts_file.write_text(json.dumps(counts, indent=1, sort_keys=True))

    _, _, spans, _ = traced[-1]
    origin = spans[0][2]
    (OUT / f"spans-{stem}.json").write_text(
        json.dumps(
            {
                "jobs": argvs,
                "columns": ["layer", "parent", "start_s", "end_s"],
                "spans": [
                    [layer, parent, round(s - origin, 7), round(e - origin, 7)]
                    for layer, parent, s, e, _ in spans
                ],
            }
        )
    )

    values = {
        name: counts[name] if name in counts else statistics.median(m[name] for m in per_pass)
        for name in per_pass[0]
    }
    values["trace.overhead_s"] = statistics.median(w for w, *_ in traced) - statistics.median(
        w for w, _ in untraced
    )
    unit = units()
    return {name: {"value": value, "unit": unit[name]} for name, value in values.items()}


if __name__ == "__main__":
    sys.exit(main())
