"""Batch command-line front end.

Subcommands: eval, density, decay, fourier-check.  All randomness is seeded
and the seed is echoed in the output; identical configuration and seed give
byte-identical output at any worker count.

Exit codes: 0 success, 2 parse/usage error (including a --map-file that
cannot be read or an --out path that cannot be written), 3 budget exceeded,
4 precondition violated, 5 internal consistency failure.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from io import StringIO
from pathlib import Path
from typing import Sequence

from .decay import (
    DEFAULT_EPSILON,
    degree_bound_report,
    sup_at_level,
    write_decay_csv,
)
from .errors import (
    BudgetExceededError,
    ConsistencyError,
    ParseError,
    PreconditionError,
)
from .expsum import EvalRequest, eval_naive, eval_recursive
from .padic import DEFAULT_NAIVE_BUDGET, PrimeContext
from .polymap import SchwartzBruhat, infer_variable_count, parse_polymap
from .singular import count_fibers, fourier_check

BUDGET_ENV_VAR = "PADICSUMS_BUDGET"

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_PRECONDITION = 4
EXIT_CONSISTENCY = 5

_Y_SUGAR = re.compile(r"^(-?\d+)/(\d+)\^(\d+)$")


def parse_rational(text: str) -> Fraction:
    """Rationals 'a/b' plus the sugar 'u/p^m' for u / p**m."""
    text = text.strip()
    m = _Y_SUGAR.match(text)
    if m:
        u, base, exp = int(m.group(1)), int(m.group(2)), int(m.group(3))
        if base < 2:
            raise ParseError(f"bad denominator base in {text!r}")
        return Fraction(u, base ** exp)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}: {exc}") from None


def parse_y_vector(text: str) -> tuple[Fraction, ...]:
    return tuple(parse_rational(part) for part in text.split(","))


def parse_phi(text: str | None, n: int) -> SchwartzBruhat:
    """phi as a JSON list of {"center": [...], "k": int, "weight": "a/b"}."""
    if text is None:
        return SchwartzBruhat.trivial(n)
    try:
        data = json.loads(text)
        return SchwartzBruhat.from_json_list(data, n)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad phi spec: {exc}") from None


def parse_levels(text: str) -> tuple[int, int]:
    m = re.match(r"^(\d+)\.\.(\d+)$", text.strip())
    if not m:
        raise ParseError(f"bad level range {text!r}; expected m0..m1")
    m0, m1 = int(m.group(1)), int(m.group(2))
    if not 1 <= m0 <= m1:
        raise ParseError(f"bad level range {text!r}; need 1 <= m0 <= m1")
    return m0, m1


def parse_strategy(text: str, seed: int):
    if text == "exhaustive":
        return "exhaustive"
    m = re.match(r"^sample:(\d+)$", text)
    if m:
        if int(m.group(1)) < 1:
            raise ParseError(f"bad strategy {text!r}; sample:N needs N >= 1")
        return ("sample", int(m.group(1)), seed)
    raise ParseError(f"bad strategy {text!r}; expected 'exhaustive' or 'sample:N'")


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce a run (worker count excluded: it never
    affects results)."""

    command: str
    prime: int
    map_text: str
    phi: list | None
    y: tuple[str, ...] | None
    level: int | None
    levels: tuple[int, int] | None
    strategy: str
    seed: int
    epsilon: float
    budget: int
    format: str

    def to_json_dict(self) -> dict:
        return {
            "command": self.command,
            "prime": self.prime,
            "map": self.map_text,
            "phi": self.phi,
            "y": list(self.y) if self.y is not None else None,
            "level": self.level,
            "levels": list(self.levels) if self.levels is not None else None,
            "strategy": self.strategy,
            "seed": self.seed,
            "epsilon": self.epsilon,
            "budget": self.budget,
            "format": self.format,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "RunConfig":
        return cls(
            command=d["command"],
            prime=d["prime"],
            map_text=d["map"],
            phi=d["phi"],
            y=tuple(d["y"]) if d["y"] is not None else None,
            level=d["level"],
            levels=tuple(d["levels"]) if d["levels"] is not None else None,
            strategy=d["strategy"],
            seed=d["seed"],
            epsilon=d["epsilon"],
            budget=d["budget"],
            format=d["format"],
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padicsums",
        description="Exact p-adic oscillatory sums, densities, and decay reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--prime", type=int, default=3, help="the prime p (default 3)")
        sp.add_argument("--map", help="semicolon-separated polynomials in x1..xn")
        sp.add_argument("--map-file", help="file containing the map text")
        sp.add_argument("--phi", help="JSON list of weighted balls; default: unit polydisc")
        sp.add_argument(
            "--budget",
            type=int,
            default=None,
            help=f"max enumeration size (default ${BUDGET_ENV_VAR} or {DEFAULT_NAIVE_BUDGET})",
        )
        sp.add_argument("--seed", type=int, default=0, help="seed for sampling strategies")
        sp.add_argument(
            "--workers", type=int, default=1, help="accepted for compatibility; no effect"
        )
        sp.add_argument("--out", help="output path (decay: prefix for .csv/.json)")
        sp.add_argument("--format", choices=["json", "csv"], default=None)

    sp = sub.add_parser("eval", help="evaluate E(y) exactly")
    common(sp)
    sp.add_argument("--y", required=True, help="comma-separated rationals, e.g. 1/3,2/9 or 2/3^2")
    sp.add_argument("--method", choices=["recursive", "naive"], default="recursive")

    sp = sub.add_parser("density", help="fiber counts and densities at one level")
    common(sp)
    sp.add_argument("--level", type=int, required=True)

    sp = sub.add_parser("decay", help="level sweep, exponent fit, envelope report")
    common(sp)
    sp.add_argument("--levels", required=True, help="range m0..m1")
    sp.add_argument("--strategy", default="exhaustive", help="'exhaustive' or 'sample:N'")
    sp.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)

    sp = sub.add_parser("fourier-check", help="exact fiber-regrouping identity residual")
    common(sp)
    sp.add_argument("--y", required=True)
    sp.add_argument("--level", type=int, required=True)
    return parser


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


def _budget(args) -> int:
    if args.budget is not None:
        return args.budget
    env = os.environ.get(BUDGET_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ParseError(f"bad {BUDGET_ENV_VAR} value {env!r}") from None
    return DEFAULT_NAIVE_BUDGET


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path!r}: {exc.strerror}") from None


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        _write(out_path, text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _cmd_eval(args) -> int:
    map_text = _load_map_text(args)
    n = infer_variable_count(map_text)
    f = parse_polymap(map_text, n)
    phi = parse_phi(args.phi, n)
    y = parse_y_vector(args.y)
    ctx = PrimeContext(args.prime, _budget(args))
    config = RunConfig(
        "eval", args.prime, map_text, phi.to_json_list() if args.phi else None,
        tuple(str(v) for v in y), None, None, "exhaustive", args.seed,
        DEFAULT_EPSILON, ctx.naive_budget, args.format or "json",
    )
    req = EvalRequest.of(f, y, ctx, phi)
    evaluate = eval_naive if args.method == "naive" else eval_recursive
    result = evaluate(req, workers=args.workers)
    hist = result.histogram.reduced()
    mag, err = hist.magnitude()
    payload = {
        "config": config.to_json_dict(),
        "histogram": hist.to_json_dict(),
        "magnitude": mag,
        "magnitude_error": err,
        "exact_zero": hist.is_zero(),
        "pruning_stats": result.stats.to_json_dict(),
    }
    _emit(_json_dumps(payload), args.out)
    return EXIT_OK


def _cmd_density(args) -> int:
    map_text = _load_map_text(args)
    n = infer_variable_count(map_text)
    f = parse_polymap(map_text, n)
    ctx = PrimeContext(args.prime, _budget(args))
    fmt = args.format or "csv"
    config = RunConfig(
        "density", args.prime, map_text, None, None, args.level, None,
        "exhaustive", args.seed, DEFAULT_EPSILON, ctx.naive_budget, fmt,
    )
    table = count_fibers(f, args.level, ctx)
    if fmt == "csv":
        buf = StringIO()
        table.write_csv(buf)
        _emit(buf.getvalue(), args.out)
    else:
        payload = {"config": config.to_json_dict(), "table": table.to_json_dict()}
        _emit(_json_dumps(payload), args.out)
    return EXIT_OK


def _cmd_decay(args) -> int:
    map_text = _load_map_text(args)
    n = infer_variable_count(map_text)
    f = parse_polymap(map_text, n)
    phi = parse_phi(args.phi, n)
    m0, m1 = parse_levels(args.levels)
    strategy = parse_strategy(args.strategy, args.seed)
    ctx = PrimeContext(args.prime, _budget(args))
    config = RunConfig(
        "decay", args.prime, map_text, phi.to_json_list() if args.phi else None,
        None, None, (m0, m1), args.strategy, args.seed, args.epsilon,
        ctx.naive_budget, args.format or "json",
    )
    records = [
        sup_at_level(f, phi, m, strategy, ctx, workers=args.workers)
        for m in range(m0, m1 + 1)
    ]
    report = degree_bound_report(f, records, ctx, epsilon=args.epsilon)
    fit = report.fit
    if fit is None:
        fit_dict = {"error": report.fit_error, "verdict": report.verdict}
    else:
        fit_dict = {
            "alpha_hat": fit.alpha_hat,
            "intercept": fit.intercept,
            "residual": fit.residual,
            "d_f": report.d_max,
            "bound_exponent": fit.bound_exponent,
            "c_hat": fit.c_hat,
            "verdict": report.verdict,
        }
    payload = {
        "config": config.to_json_dict(),
        "records": [rec.to_json_dict() for rec in records],
        "fit": fit_dict,
        "report": report.to_json_dict(),
    }
    csv_buf = StringIO()
    write_decay_csv(records, csv_buf)
    if args.out:
        _write(args.out + ".json", _json_dumps(payload))
        _write(args.out + ".csv", csv_buf.getvalue())
    else:
        sys.stdout.write(csv_buf.getvalue())
        sys.stdout.write(_json_dumps(payload) + "\n")
    for note in report.notes:
        print(f"note: {note}", file=sys.stderr)
    return EXIT_OK


def _cmd_fourier_check(args) -> int:
    map_text = _load_map_text(args)
    n = infer_variable_count(map_text)
    f = parse_polymap(map_text, n)
    y = parse_y_vector(args.y)
    ctx = PrimeContext(args.prime, _budget(args))
    config = RunConfig(
        "fourier-check", args.prime, map_text, None, tuple(str(v) for v in y),
        args.level, None, "exhaustive", args.seed, DEFAULT_EPSILON,
        ctx.naive_budget, args.format or "json",
    )
    residual = fourier_check(f, y, args.level, ctx)
    reduced = residual.reduced()
    is_zero = reduced.is_zero()
    payload = {
        "config": config.to_json_dict(),
        "residual": reduced.to_json_dict(),
        "is_zero": is_zero,
    }
    _emit(_json_dumps(payload), args.out)
    if not is_zero:
        raise ConsistencyError("fourier residual is nonzero")
    return EXIT_OK


_HANDLERS = {
    "eval": _cmd_eval,
    "density": _cmd_density,
    "decay": _cmd_decay,
    "fourier-check": _cmd_fourier_check,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_PARSE
    try:
        return _HANDLERS[args.command](args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
