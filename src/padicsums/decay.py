"""Empirical decay rates of the oscillatory sums and the explicit
degree-based envelope check.

For each level m the supremum of |E(u/p**m)| over primitive directions u
(at least one coordinate a p-adic unit, so |y| = p**m) is recorded; a
least-squares fit of log_p(sup) against m estimates the decay exponent.
The fitted exponent is compared against the explicit candidate -1/d(f),
where d(f) is the largest per-variable degree, together with the smallest
constant c for which every data point satisfies

    sup_m <= c * m**(n-1) * p**(-m/d(f)).

Exact zeros are excluded from the fit (log of an exact 0 is undefined, and
exact vanishing is itself a result) and reported separately.
"""

from __future__ import annotations

import csv
import functools
import math
import random
import statistics
import weakref
from fractions import Fraction
from typing import Iterator, Sequence, TextIO

from .errors import MAX_DIGITS, BudgetExceededError, ExactVanishingError, FitError
from .expsum import eval_unit_directions, primitive_directions
from .padic import DEFAULT_EPSILON, INFINITY, PhaseHistogram, PrimeContext, Value, power_exceeds
from .polymap import DegreeData, PolyMap, SchwartzBruhat, check_affine_independence, degree_data

#: Histograms with more stored classes than this skip the exact |E|**2 path.
ABS_SQUARE_CLASS_LIMIT = 64

Strategy = str | tuple[str, int, int]


class DecayRecord(Value):
    """Largest |E| over directions of norm p**m, with the achieving direction,
    and the exact |E|**2 when it is rational."""

    __slots__ = ("level", "sup", "sup_error", "argmax", "exhaustive", "exact_zero", "sup_square")

    def __init__(self, level: int, sup: float, sup_error: float, argmax: tuple[int, ...] | None,
                 exhaustive: bool, exact_zero: bool, sup_square: Fraction | None = None):
        self.level = level
        self.sup = sup
        self.sup_error = sup_error
        self.argmax = argmax
        self.exhaustive = exhaustive
        self.exact_zero = exact_zero
        self.sup_square = sup_square

    def to_json_dict(self) -> dict:
        return {
            "m": self.level,
            "sup": self.sup,
            "sup_error": self.sup_error,
            "argmax_u": list(self.argmax) if self.argmax else None,
            "exhaustive": self.exhaustive,
            "exact_zero": self.exact_zero,
            "sup_square": str(self.sup_square) if self.sup_square is not None else None,
        }


class FitResult:
    __slots__ = ("alpha_hat", "intercept", "residual", "bound_exponent", "c_hat",
                 "c_hat_square", "zero_levels")

    def __init__(self, alpha_hat: float, intercept: float, residual: float,
                 bound_exponent: float | None, c_hat: float, c_hat_square: Fraction | None,
                 zero_levels: list[int]):
        self.alpha_hat = alpha_hat
        self.intercept = intercept
        self.residual = residual
        self.bound_exponent = bound_exponent  # -1/d(f)
        self.c_hat = c_hat
        self.c_hat_square = c_hat_square
        self.zero_levels = zero_levels


def primitive_direction_count(p: int, m: int, r: int) -> int:
    return p ** (m * r) - p ** ((m - 1) * r)


def _sample_directions(
    p: int, m: int, r: int, count: int, seed: int
) -> Iterator[tuple[int, ...]]:
    rng = random.Random(seed)
    mod = p**m
    produced = 0
    while produced < count:
        u = tuple(rng.randrange(mod) for _ in range(r))
        if any(c % p for c in u):
            produced += 1
            yield u


def _exact_sup_square(hist: PhaseHistogram) -> Fraction | None:
    if len(hist.counts) > ABS_SQUARE_CLASS_LIMIT:
        return None
    return hist.abs_square().exact_rational()


def sup_at_level(
    f: PolyMap,
    phi: SchwartzBruhat,
    m: int,
    strategy: Strategy,
    ctx: PrimeContext,
) -> DecayRecord:
    """Max of |E(u/p**m)| over primitive directions at level m.

    ``strategy`` is ``"exhaustive"`` or ``("sample", count, seed)``: the
    directions are ``eval_unit_directions``'s exhaustive stream (``None``)
    or the draws in order, repeats included.  Either strategy's budget
    counts its directions, every primitive one when exhaustive.  The argmax
    is the first direction whose float magnitude is strictly larger than
    every earlier one (the smallest u when exhaustive, the first drawn u
    when sampled), so a histogram object the stream yields again, with the
    same float, is measured once.
    """
    if m < 1:
        raise ValueError("level must be >= 1")
    p = ctx.p
    r = f.r
    exhaustive = strategy == "exhaustive"
    if exhaustive:
        # total >= p**((m-1)*r): past both the budget and 10**MAX_DIGITS, it
        # exceeds the budget and is too long to state, so it is not built
        if power_exceeds(p, (m - 1) * r, max(ctx.naive_budget, 10**MAX_DIGITS)):
            total = None
        else:
            total = primitive_direction_count(p, m, r)
        if total is None or total > ctx.naive_budget:
            raise BudgetExceededError(
                total, ctx.naive_budget, what="directions (use a sample strategy)"
            )
        directions = None
    else:
        kind, count, seed = strategy
        if kind != "sample":
            raise ValueError(f"unknown strategy {strategy!r}")
        if count > ctx.naive_budget:
            raise BudgetExceededError(count, ctx.naive_budget, what="directions")
        directions = _sample_directions(p, m, r, count, seed)

    best_mag = 0.0
    best_err = 0.0
    best_u: tuple[int, ...] | None = None
    best_square: Fraction | None = None

    # ids of the measured histograms; each entry drops itself when its
    # histogram is freed, so a new object that reuses the id is measured
    measured: dict[int, weakref.ref] = {}
    for u, hist in eval_unit_directions(f, phi, m, ctx, directions):
        key = id(hist)
        if not hist.counts or key in measured:
            continue
        measured[key] = weakref.ref(hist, functools.partial(measured.pop, key))
        mag, err = hist.magnitude()
        if mag > best_mag or best_u is None:
            best_mag, best_err, best_u = mag, err, u
            best_square = _exact_sup_square(hist)
    if best_u is None:  # every direction gave an exact zero
        return DecayRecord(m, 0.0, 0.0, None, exhaustive, True, Fraction(0))
    return DecayRecord(m, best_mag, best_err, best_u, exhaustive, False, best_square)


def fit_alpha(
    records: Sequence[DecayRecord],
    f: PolyMap,
    ctx: PrimeContext,
) -> FitResult:
    """Least-squares slope of log_p(sup) against m over the window of levels
    the records cover.

    Also computes c_hat, the smallest constant for which every usable data
    point satisfies sup <= c * m**(n-1) * p**(-m/d(f)); when the achieved
    suprema have rational squares and d(f) divides 2m the per-level ratios
    are compared exactly, so clean cases report c_hat without rounding.
    """
    p = ctx.p
    zero_levels = [rec.level for rec in records if rec.exact_zero]
    usable = [rec for rec in records if not rec.exact_zero]
    if not usable:
        raise ExactVanishingError(
            "every record in the window is exactly zero; nothing to fit"
        )
    if len(usable) < 2:
        raise FitError("need at least two nonzero records to fit a slope")
    xs = [float(rec.level) for rec in usable]
    ys = [math.log(rec.sup, p) for rec in usable]
    slope, intercept = statistics.linear_regression(xs, ys)
    residual = math.sqrt(
        math.fsum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    )
    deg, bound_exponent, ratios = _envelope(usable, f, p)
    c_hat, c_hat_square = _envelope_constant(usable, ratios, deg.d_max, f.n, p)
    return FitResult(
        alpha_hat=slope,
        intercept=intercept,
        residual=residual,
        bound_exponent=bound_exponent,
        c_hat=c_hat,
        c_hat_square=c_hat_square,
        zero_levels=zero_levels,
    )


def _envelope(
    usable: Sequence[DecayRecord], f: PolyMap, p: int
) -> tuple[DegreeData, float | None, list[tuple[int, float]]]:
    """The degree data of f, the exponent -1/d(f) (None when f is constant)
    and, for each nonzero record, (m, sup * p**(m/d) / m**(n-1)): the least
    c for which that record satisfies the envelope."""
    deg = degree_data(f, p)
    d = deg.d_max
    if d == 0:
        return deg, None, []
    ratios = [
        (rec.level, rec.sup * p ** (rec.level / d) / rec.level ** (f.n - 1)) for rec in usable
    ]
    return deg, -1.0 / d, ratios


def _envelope_constant(
    usable: Sequence[DecayRecord], ratios: list[tuple[int, float]], d: int, n: int, p: int
) -> tuple[float, Fraction | None]:
    """The largest of the ratios, exact when every record allows it."""
    if d == 0:
        return 0.0, None
    best_square = Fraction(0)
    for rec in usable:
        if rec.sup_square is None or (2 * rec.level) % d:
            return max(ratio for _, ratio in ratios), None
        ratio_square = (
            rec.sup_square
            * Fraction(p) ** (2 * rec.level // d)
            / Fraction(rec.level) ** (2 * (n - 1))
        )
        best_square = max(best_square, ratio_square)
    root = _exact_sqrt(best_square)
    return (float(root) if root is not None else math.sqrt(best_square)), best_square


def _exact_sqrt(q: Fraction) -> Fraction | None:
    num = math.isqrt(q.numerator)
    den = math.isqrt(q.denominator)
    if num * num == q.numerator and den * den == q.denominator:
        return Fraction(num, den)
    return None


class DecayReport:
    """Per-level envelope ratios, the exponent fit (or why there is none)
    and the exponent-consistency verdict."""

    __slots__ = ("hypothesis_ok", "d_max", "e_orders", "epsilon", "bound_exponent", "ratios",
                 "verdict", "notes", "fit", "fit_error")

    def __init__(self, hypothesis_ok: bool, d_max: int, e_orders: tuple[float | int, ...],
                 epsilon: float, bound_exponent: float | None, ratios: list[tuple[int, float]],
                 verdict: str, notes: list[str], fit: FitResult | None, fit_error: str | None):
        self.hypothesis_ok = hypothesis_ok
        self.d_max = d_max
        self.e_orders = e_orders
        self.epsilon = epsilon
        self.bound_exponent = bound_exponent
        self.ratios = ratios
        self.verdict = verdict
        self.notes = notes
        self.fit = fit
        self.fit_error = fit_error  # the FitError text when ``fit`` is None

    @property
    def alpha_hat(self) -> float | None:
        return self.fit.alpha_hat if self.fit else None

    @property
    def c_hat(self) -> float:
        return self.fit.c_hat if self.fit else 0.0

    def to_json_dict(self) -> dict:
        return {
            "hypothesis_ok": self.hypothesis_ok,
            "d_f": self.d_max,
            "e_orders": [None if e is INFINITY else e for e in self.e_orders],
            "epsilon": self.epsilon,
            "bound_exponent": self.bound_exponent,
            "ratios": [[m, r] for m, r in self.ratios],
            "c_hat": self.c_hat,
            "alpha_hat": self.alpha_hat,
            "verdict": self.verdict,
            "notes": self.notes,
        }

    def fit_json_dict(self) -> dict:
        """The ``fit`` block of the decay output: the fit, or why there is
        none."""
        if self.fit is None:
            return {"error": self.fit_error, "verdict": self.verdict}
        return {
            "alpha_hat": self.fit.alpha_hat,
            "intercept": self.fit.intercept,
            "residual": self.fit.residual,
            "d_f": self.d_max,
            "bound_exponent": self.fit.bound_exponent,
            "c_hat": self.fit.c_hat,
            "verdict": self.verdict,
        }


def degree_bound_report(
    f: PolyMap,
    records: Sequence[DecayRecord],
    ctx: PrimeContext,
    epsilon: float = DEFAULT_EPSILON,
) -> DecayReport:
    """Fit the records and check them against the explicit |y|**(-1/d(f))
    envelope.

    The verdict is CONSISTENT when the fitted exponent is at most
    -1/d(f) + epsilon; only the exponent is checked, while the constant is
    reported as the data-derived c_hat (by construction every data point
    satisfies the envelope with c = c_hat).  Degenerate inputs produce
    banners in ``notes``, never failures.
    """
    notes: list[str] = []
    hypothesis_ok = check_affine_independence(f)
    if not hypothesis_ok:
        notes.append(
            "HYPOTHESIS FAILED: 1, f_1, ..., f_r are linearly dependent; "
            "the degree-based envelope is not asserted for this map"
        )
    usable = [rec for rec in records if not rec.exact_zero]
    deg, bound_exponent, ratios = _envelope(usable, f, ctx.p)
    try:
        fit, fit_error = fit_alpha(records, f, ctx), None
    except FitError as exc:
        fit, fit_error = None, str(exc)
    if deg.d_max == 0:
        notes.append("map is constant: no envelope exponent is defined")
    if not usable:
        verdict = "VACUOUS"
        notes.append("every recorded supremum is exactly zero")
    elif fit is None:
        verdict = "VACUOUS"
        notes.append(fit_error)
    else:
        if bound_exponent is None:
            verdict = "NOT-APPLICABLE"
        elif fit.alpha_hat <= bound_exponent + epsilon:
            verdict = "CONSISTENT"
        else:
            verdict = "INCONSISTENT"
        if not hypothesis_ok:
            notes.append("verdict reported on data only; hypothesis does not hold")
    return DecayReport(
        hypothesis_ok, deg.d_max, deg.e_orders, epsilon, bound_exponent,
        ratios, verdict, notes, fit, fit_error,
    )


def write_decay_csv(records: Sequence[DecayRecord], out: TextIO) -> None:
    writer = csv.writer(out)
    writer.writerow(["m", "sup", "sup_error", "argmax_u", "exhaustive"])
    for rec in records:
        writer.writerow(
            [
                rec.level,
                repr(rec.sup),
                repr(rec.sup_error),
                ",".join(str(c) for c in rec.argmax) if rec.argmax else "",
                rec.exhaustive,
            ]
        )
