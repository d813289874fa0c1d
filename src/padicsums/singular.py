"""Fiber counting, local solution densities, and the finite-level Fourier
identity.

N_m(z) counts residue tuples x mod p**m with f(x) = z mod p**m; the density
F_m(z) = N_m(z) * p**(m*(r-n)) is the level-m avatar of the local singular
series.  Because phases of y . f(x) with v(y) >= -m only depend on f(x)
mod p**m, regrouping the oscillatory sum by fiber gives an exact identity

    E(y) = sum_z N_m(z) * p**(-m*n) * psi(y . z),

whose residual is checked to be the exact zero histogram.
"""

from __future__ import annotations

import csv
import itertools
from fractions import Fraction
from functools import partial
from typing import NamedTuple, Sequence, TextIO

from .errors import BudgetExceededError, PreconditionError
from .expsum import EvalRequest, Terms, descend_cosets, eval_naive
from .padic import (
    PhaseHistogram,
    PrimeContext,
    Rational,
    _int_valuation,
    clearing_exponent,
    power_exceeds,
    residue,
    valuation,
)
from .polymap import (
    PolyMap,
    coefficient_floor,
    integer_images,
    jacobian,
    matrix_rank,
    poly_eval,
)

FiberKey = tuple[Fraction, ...] | tuple[int, ...]

#: Preimages of the top level at which ``stabilization_probe`` reads the
#: Jacobian rank.
PREIMAGE_SAMPLE_LIMIT = 16


class DensityTable(NamedTuple):
    """Exact fiber counts N_m(z) for z in (Z/p**m)^r.

    ``clear`` is the denominator exponent B of the map: counts are taken at
    the effective level m + B and keyed by integer representatives when
    B = 0, by Fractions with denominator p**B otherwise.
    """

    p: int
    level: int
    n: int
    r: int
    clear: int
    counts: dict[FiberKey, int]

    def count(self, z: Sequence[Rational]) -> int:
        key = self._key(z)
        return 0 if key is None else self.counts.get(key, 0)

    def density(self, z: Sequence[Rational]) -> Fraction:
        """F_m(z) = N_m(z) * p**(m*r - (m+B)*n); the usual N * p**(m*(r-n))
        when the map has integral coefficients (B = 0)."""
        return self.count(z) * self._density_scale()

    def _density_scale(self) -> Fraction:
        return Fraction(self.p) ** (self.level * self.r - (self.level + self.clear) * self.n)

    def _density_texts(self) -> dict[int, str]:
        """str(F) for every count N in the table."""
        scale = self._density_scale()
        return {count: str(count * scale) for count in set(self.counts.values())}

    def _key(self, z: Sequence[Rational]) -> FiberKey | None:
        """Canonical residue key of z mod p**level, or None when some
        component lies outside p**(-clear) Z_p (such z have no solutions)."""
        z = [Fraction(c) for c in z]
        mod = self.p ** (self.level + self.clear)
        try:
            reps = [residue(c, self.p, self.clear, mod) for c in z]
        except ValueError:
            return None
        den = self.p**self.clear
        return tuple(Fraction(v, den) for v in reps) if self.clear else tuple(reps)

    def total(self) -> int:
        return sum(self.counts.values())

    def sorted_items(self) -> list[tuple[FiberKey, int]]:
        return sorted(self.counts.items())

    def write_csv(self, out: TextIO) -> None:
        writer = csv.writer(out)
        writer.writerow([f"z_{i+1}" for i in range(self.r)] + ["N", "F"])
        texts = self._density_texts()
        # the csv module writes every non-string field with str()
        writer.writerows(key + (count, texts[count]) for key, count in self.sorted_items())

    def to_json_dict(self) -> dict:
        texts = self._density_texts()
        return {
            "p": self.p,
            "level": self.level,
            "n": self.n,
            "r": self.r,
            "rows": [
                {"z": [str(c) for c in key], "N": count, "F": texts[count]}
                for key, count in self.sorted_items()
            ],
        }


def _table(f: PolyMap, m: int, p: int, clear: int, columns, counts: list[int]) -> DensityTable:
    """DensityTable from the value columns of the fibers (ascending) and
    their point counts."""
    if clear:
        den = p**clear
        columns = [[Fraction(v, den) for v in col] for col in columns]
    return DensityTable(p, m, f.n, f.r, clear, dict(zip(zip(*columns), counts)))


def _count_naive(f: PolyMap, m: int, ctx: PrimeContext) -> DensityTable:
    from .grid import tally  # numpy: loaded only on the brute-force paths
    b, mod, comps = integer_images(f.components, ctx.p, m)
    columns, counts = tally(comps, mod, f.n, ctx.naive_budget)
    return _table(f, m, ctx.p, b, columns, counts)


def _hensel_box(polys, terms: Terms, n: int, p: int, level: int) -> list[int] | None:
    """Box exponents lambda_j of a coset whose image is a box, or None.

    ``polys`` are the components on the coset, as polynomials in the coset
    coordinate t, reduced mod p**level and read through the walk's
    ``terms``.  A component is constant mod p**level (lambda_j = level), or
    its nonlinear coefficients all lie deeper than lambda_j, the least
    valuation of its linear ones.  When the
    linear rows of the nonconstant components, divided by p**lambda_j, are
    also independent mod p, (g_j - g_j(0)) / p**lambda_j is a submersion of
    Z_p^n with unit Jacobian minors (Hensel), which carries Haar measure onto
    Haar measure: the coset covers the box prod_j (g_j(0) + p**lambda_j Z)
    mod p**level uniformly.
    """
    lams = []
    rows = []
    degree, exponents = terms.degree, terms.exponents
    for g in polys:
        linear = nonlinear = level
        row = [0] * n
        for code, c in g.items():
            d = degree[code]
            if d == 1:
                row[exponents[code].index(1)] = c
                linear = min(linear, _int_valuation(c, p))
            elif d > 1:
                nonlinear = min(nonlinear, _int_valuation(c, p))
        if nonlinear <= linear < level or linear == level > nonlinear:
            return None
        lams.append(linear)
        if linear < level:
            rows.append([c // p**linear % p for c in row])
    return lams if _independent_mod_p(rows, p) else None


def _independent_mod_p(rows: list[list[int]], p: int) -> bool:
    """Whether the rows are linearly independent over F_p (elimination)."""
    rows = [list(row) for row in rows]
    for i, row in enumerate(rows):
        pivot = next((j for j, v in enumerate(row) if v), None)
        if pivot is None:
            return False
        inv = pow(row[pivot], -1, p)
        for other in rows[i + 1 :]:
            factor = other[pivot] * inv % p
            if factor:
                other[:] = [(a - factor * b) % p for a, b in zip(other, row)]
    return True


def _count_recursive(f: PolyMap, m: int, ctx: PrimeContext) -> DensityTable:
    """Coset descent: a coset is resolved once ``_hensel_box`` finds the box
    it covers; each fiber in the box gets an equal share of its points.

    The walk may visit at most ctx.naive_budget coset nodes, and a box may
    hold at most ctx.naive_budget fibers; BudgetExceededError otherwise.
    The root's label is the same at every level above its coefficients'
    valuations, so a root box past the budget is refused from the images at
    such a level before p**(m+B) is built.
    """
    p = ctx.p
    n = f.n
    top = max((valuation(c, p) for comp in f.components for c in comp.values()), default=0)
    low = min(m, max(0, top + 1))
    b, mod, comps = integer_images(f.components, p, low)
    rule = partial(_hensel_box, n=n, p=p, level=low + b)
    _, _, lams, _ = next(descend_cosets(comps, mod, n, p, rule, ctx.naive_budget))
    if lams is not None:  # a component constant at the low level is constant at m
        _check_box(p, sum(m + b - lam for lam in lams if lam < low + b), ctx.naive_budget)
    b, mod, comps = integer_images(f.components, p, m)
    m_eff = m + b
    counts: dict[tuple[int, ...], int] = {}
    rule = partial(_hensel_box, n=n, p=p, level=m_eff)
    walk = descend_cosets(comps, mod, n, p, rule, ctx.naive_budget)
    for k, polys, lams, terms in walk:
        if lams is None:
            continue
        box = sum(m_eff - lam for lam in lams)  # the box has p**box fibers
        _check_box(p, box, ctx.naive_budget)
        weight = p ** ((m_eff - k) * n - box)
        sides = [
            range(terms.constant(g) % p**lam, mod, p**lam) for g, lam in zip(polys, lams)
        ]
        for values in itertools.product(*sides):
            counts[values] = counts.get(values, 0) + weight
    keys = sorted(counts)
    return _table(f, m, p, b, list(zip(*keys)), [counts[k] for k in keys])


def _check_box(p: int, box: int, budget: int) -> None:
    """Refuse a box of p**box fibers past the budget; p**box may be too long
    to print, so only the bound is reported."""
    if power_exceeds(p, box, budget):
        raise BudgetExceededError(None, budget, what="fibers in one box")


def count_fibers(
    f: PolyMap, m: int, ctx: PrimeContext, strategy: str = "auto"
) -> DensityTable:
    """N_m(z) for every z, exact.

    ``auto`` enumerates when the effective residue space fits the budget and
    falls back to the recursive counter otherwise; ``naive`` raises on budget
    overrun instead.  The recursive counter has budgets of its own (see
    ``_count_recursive``).
    """
    if m < 0:
        raise PreconditionError("level must be >= 0")
    if strategy == "naive":
        return _count_naive(f, m, ctx)
    if strategy == "recursive":
        return _count_recursive(f, m, ctx)
    if strategy != "auto":
        raise ValueError(f"unknown strategy {strategy!r}")
    b = coefficient_floor(f.components, ctx.p)
    if not power_exceeds(ctx.p, (m + b) * f.n, ctx.naive_budget):
        return _count_naive(f, m, ctx)
    return _count_recursive(f, m, ctx)


def fourier_check(
    f: PolyMap, y: Sequence[Rational], m: int, ctx: PrimeContext
) -> PhaseHistogram:
    """Residual of the fiber-regrouping identity at level m; exactly zero.

    Requires v(y_j) >= -m for every component, since only then does the
    phase of y . f(x) depend on f(x) mod p**m alone.
    """
    p = ctx.p
    ys = [Fraction(v) for v in y]
    for v in ys:
        if v != 0 and valuation(v, p) < -m:
            raise PreconditionError(
                f"component {v} has valuation below {-m}; raise the level"
            )
    direct = eval_naive(EvalRequest.of(f, ys, ctx)).histogram
    table = count_fibers(f, m, ctx)
    # z_j = v_j / p**B with v_j an integer, so psi(y . z) only needs each
    # y_j / p**B mod Z_p, written over the common denominator p**level.
    den = p**table.clear
    shifted = [v / den for v in ys]
    level = clearing_exponent(shifted, p)
    mod = p**level
    weights = [residue(v, p, level, mod) for v in shifted]
    counts: dict[int, int] = {}
    for key, count in table.counts.items():
        dot = sum(w * z.numerator * (den // z.denominator) for w, z in zip(weights, key))
        counts[dot % mod] = counts.get(dot % mod, 0) + count
    synth = PhaseHistogram(p, level, counts, Fraction(p) ** (-(m + table.clear) * f.n))
    return direct + synth.scaled(-1)


class StabilizationReport(NamedTuple):
    """Density trace F_m(z) across a level window plus Jacobian-rank evidence
    gathered at sampled preimages of the top level."""

    z: tuple[int, ...]
    levels: list[int]
    f_values: list[Fraction]
    stable: bool
    stable_from: int | None
    preimage_count: int
    sampled_preimages: list[tuple[int, ...]]
    ranks: list[int]
    full_rank: bool


def stabilization_probe(
    f: PolyMap,
    z: Sequence[int],
    m_range: tuple[int, int],
    ctx: PrimeContext,
) -> StabilizationReport:
    """Track F_m(z) over [m0, m1] and flag whether it stabilizes.  Each
    coordinate of z must be an integer (an int or an integral Fraction).

    Full Jacobian rank at every preimage is the computational signature of a
    regular value, for which the density is expected to become constant in m.
    The ranks are read at the first ``PREIMAGE_SAMPLE_LIMIT`` preimages in lex
    order, and are evidence only: preimages are known only mod p**m1.
    """
    m0, m1 = m_range
    if not (1 <= m0 <= m1):
        raise PreconditionError("need 1 <= m0 <= m1")
    zt = tuple(map(Fraction, z))
    if any(c.denominator != 1 for c in zt):
        raise ValueError(f"target coordinates must be integers, not {z!r}")
    zt = tuple(c.numerator for c in zt)
    if len(zt) != f.r:
        raise ValueError("target arity must equal component count")
    levels = list(range(m0, m1 + 1))
    f_values = [count_fibers(f, m, ctx).density(zt) for m in levels]
    stable_from = None
    for i in range(len(levels)):
        if all(f_values[j] == f_values[i] for j in range(i, len(levels))):
            stable_from = levels[i]
            break
    stable = stable_from is not None and stable_from < m1
    preimages = _preimages(f, zt, m1, ctx, PREIMAGE_SAMPLE_LIMIT)
    jac = jacobian(f)
    ranks = [
        matrix_rank([[poly_eval(entry, x) for entry in row] for row in jac])
        for x in preimages[1]
    ]
    max_rank = min(f.r, f.n)
    return StabilizationReport(
        z=zt,
        levels=levels,
        f_values=f_values,
        stable=stable,
        stable_from=stable_from,
        preimage_count=preimages[0],
        sampled_preimages=preimages[1],
        ranks=ranks,
        full_rank=bool(preimages[1]) and all(r == max_rank for r in ranks),
    )


def _preimages(
    f: PolyMap, z: tuple[int, ...], m: int, ctx: PrimeContext, limit: int
) -> tuple[int, list[tuple[int, ...]]]:
    """(total count, first ``limit`` solutions of f(x) = z mod p**m in lex order)."""
    from .grid import find_points  # numpy: loaded only on the brute-force paths
    b, mod, comps = integer_images(f.components, ctx.p, m)
    values = [residue(c, ctx.p, b, mod) for c in z]
    return find_points(comps, mod, f.n, ctx.naive_budget, values, limit)
