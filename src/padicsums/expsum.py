"""Evaluators for p-adic oscillatory integrals with polynomial phase.

For a phase polynomial g = sum_j y_j f_j and a coset c + p**k Z_p^n, the
integral of psi(g(x)) reduces to a finite normalized character sum: clearing
denominators writes g = G / p**M with G an integer polynomial determined
mod p**M, and the phase class of a point depends only on its residue
mod p**M.  ``eval_naive`` enumerates that residue space.  ``eval_recursive``
descends through sub-cosets a + p**k Z_p^n; writing
H(t) = G(a + p**k t) - G(a), a coset is resolved without enumeration when

  (P1) every nonconstant coefficient of H vanishes mod p**M: the coset
       carries the single phase G(a) with its full measure; or
  (P2) every nonlinear coefficient vanishes mod p**M while some linear one
       does not: the remaining sum is a complete nontrivial character sum
       over the next digit layer and cancels exactly.

Otherwise the coset splits into its p**n sub-cosets.  Each monomial of
degree d picks up a factor p**(k*d) at depth k, so by depth M rule P1 always
fires and the recursion terminates.  The walk itself, ``descend_cosets``,
takes the prune rule as an argument; the recursive fiber counter in
``singular`` runs it with its box rule.  Both evaluators return the same
exact value; equality of reduced histograms is the cross-check used
throughout the test suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Any, Callable, Iterable, Iterator, Sequence

from .errors import BudgetExceededError, PreconditionError
from .grid import IntPoly, tally
from .padic import PhaseHistogram, PrimeContext, Rational, clearing_exponent
from .polymap import (
    Poly,
    PolyMap,
    RestrictedSeries,
    SchwartzBruhat,
    integer_images,
    poly_add,
    poly_scale,
    series_truncate,
    substitute_affine,
)


@dataclass
class PruneStats:
    """Work accounting: prune hits and splits for the recursive evaluator,
    enumerated point count for the naive one."""

    p1: int = 0
    p2: int = 0
    splits: int = 0
    leaves: int = 0
    points: int = 0

    def __add__(self, other: "PruneStats") -> "PruneStats":
        return PruneStats(
            self.p1 + other.p1,
            self.p2 + other.p2,
            self.splits + other.splits,
            self.leaves + other.leaves,
            self.points + other.points,
        )

    def to_json_dict(self) -> dict:
        return {
            "p1": self.p1,
            "p2": self.p2,
            "splits": self.splits,
            "leaves": self.leaves,
            "points": self.points,
        }


@dataclass(frozen=True)
class EvalRequest:
    """One integral: map, weight function, frequency vector, context."""

    f: PolyMap
    phi: SchwartzBruhat
    y: tuple[Fraction, ...]
    ctx: PrimeContext

    def __post_init__(self):
        if len(self.y) != self.f.r:
            raise ValueError("frequency vector length must equal component count")
        if self.phi.n != self.f.n:
            raise ValueError("phi arity must equal variable count")

    @classmethod
    def of(
        cls,
        f: PolyMap,
        y: Sequence[Rational],
        ctx: PrimeContext,
        phi: SchwartzBruhat | None = None,
    ) -> "EvalRequest":
        return cls(
            f,
            phi if phi is not None else SchwartzBruhat.trivial(f.n),
            tuple(Fraction(v) for v in y),
            ctx,
        )

    def phase_poly(self) -> Poly:
        g: Poly = {}
        for yj, comp in zip(self.y, self.f.components):
            if yj:
                g = poly_add(g, poly_scale(comp, yj))
        return g


@dataclass
class EvalResult:
    histogram: PhaseHistogram
    stats: PruneStats


# ------------------------------------------------------------- coset descent


def _shift_digit_mod(g: IntPoly, delta: Sequence[int], p: int, mod: int) -> IntPoly:
    """G(delta + p*t) reduced mod ``mod``, variable by variable."""
    out = g
    for i, d in enumerate(delta):
        nxt: IntPoly = {}
        for exp, c in out.items():
            e = exp[i]
            if e == 0:
                nc = (nxt.get(exp, 0) + c) % mod
                if nc:
                    nxt[exp] = nc
                else:
                    nxt.pop(exp, None)
                continue
            powd = 1
            # expand (d + p*t)^e; iterate j descending so d-powers build up
            for j in range(e, -1, -1):
                term = c * comb(e, j) * powd % mod * pow(p, j, mod) % mod
                powd = powd * d % mod
                if not term:
                    continue
                nexp = exp[:i] + (j,) + exp[i + 1 :]
                nc = (nxt.get(nexp, 0) + term) % mod
                if nc:
                    nxt[nexp] = nc
                else:
                    nxt.pop(nexp, None)
        out = nxt
    return out


def descend_cosets(
    polys: Sequence[IntPoly],
    mod: int,
    n: int,
    p: int,
    rule: Callable[[tuple[IntPoly, ...]], Any],
    budget: int,
) -> Iterator[tuple[int, tuple[IntPoly, ...], Any]]:
    """Walk the cosets a + p**k Z_p^n in digit-lexicographic order.

    ``polys`` are integer polynomials reduced mod ``mod``, a power of p, as
    polynomials in the coordinate t of the root coset Z_p^n.  Each node is
    yielded as (k, its polynomials in its own coordinate, label), where the
    label is ``rule(polys)``; a label of None splits the node into its p**n
    sub-cosets a + p**k * delta + p**(k+1) Z_p^n, visited in order of the
    digit vector delta.  Both the phase sums and the fiber counts are leaf
    handlers over this walk.  A walk of more than ``budget`` nodes raises
    BudgetExceededError, counting a split's children before building them.
    """
    deltas = None
    stack = [(0, tuple(polys))]
    pushed = 1
    while stack:
        k, polys = stack.pop()
        label = rule(polys)
        yield k, polys, label
        if label is None:
            pushed += p**n
            if pushed > budget:
                raise BudgetExceededError(None, budget, what="coset nodes")
            if deltas is None:
                # children are pushed last digit vector first, so they pop in lex order
                deltas = list(itertools.product(range(p), repeat=n))[::-1]
            shifted = [[_shift_digit_mod(g, d, p, mod) for d in deltas] for g in polys]
            stack.extend(zip(itertools.repeat(k + 1), zip(*shifted)))


def _classify(polys: tuple[IntPoly, ...]) -> str | None:
    """Prune rule of the phase descent: "p1", "p2", or None to split."""
    (g,) = polys
    has_linear = False
    for exp in g:
        degree = sum(exp)
        if degree >= 2:
            return None
        if degree == 1:
            has_linear = True
    return "p2" if has_linear else "p1"


def _collect_leaves(
    g: IntPoly, level: int, mod: int, n: int, p: int, budget: int
) -> tuple[dict[int, int], PruneStats]:
    """Phase-class counts of the P1 leaves, in units of p**(-level*n), for
    G reduced mod ``mod`` = p**level.

    Classes appear in the order the digit-lexicographic walk first meets
    them.
    """
    zero = (0,) * n
    counts: dict[int, int] = {}
    stats = PruneStats()
    for k, (poly,), kind in descend_cosets((g,), mod, n, p, _classify, budget):
        if kind is None:
            stats.splits += 1
            continue
        stats.leaves += 1
        if kind == "p2":
            stats.p2 += 1
            continue
        stats.p1 += 1
        cls = poly.get(zero, 0) % mod
        counts[cls] = counts.get(cls, 0) + p ** ((level - k) * n)
    return counts, stats


def _naive_counts(
    g: IntPoly, level: int, mod: int, n: int, p: int, budget: int
) -> tuple[dict[int, int], PruneStats]:
    """Histogram counts of G(x) mod ``mod`` = p**level over all residue tuples."""
    keys, counts = tally([g], mod, n, budget)
    return dict(zip(keys.tolist(), counts.tolist())), PruneStats(points=mod**n)


# ------------------------------------------------------------------ evaluators


def _eval_terms(req: EvalRequest, method: str) -> EvalResult:
    """Sum over the balls c + p**k Z_p^n of phi: g(c + p**k t) is G(t) / p**M
    mod Z_p, and the ball's weighted integral is its weight times
    p**(-(k + M) n) times the sum of psi(G(t) / p**M) over t mod p**M."""
    p = req.ctx.p
    n = req.f.n
    g = req.phase_poly()
    total = PhaseHistogram.zero(p)
    stats = PruneStats()
    for ball in req.phi.terms:
        gb = substitute_affine(g, ball.center, Fraction(p) ** ball.k, n)
        m_eff, mod, (gint,) = integer_images([gb], p, 0)
        collect = _naive_counts if method == "naive" else _collect_leaves
        counts, st = collect(gint, m_eff, mod, n, p, req.ctx.naive_budget)
        scale = ball.weight * Fraction(p) ** (-(ball.k + m_eff) * n)
        total = total + PhaseHistogram(p, m_eff, counts, scale)
        stats = stats + st
    return EvalResult(total, stats)


def eval_naive(req: EvalRequest) -> EvalResult:
    """Exact value by full enumeration of the determining residue space.

    Requires p**(M*n) <= ctx.naive_budget for the effective level M of every
    ball of phi (after the affine substitution into the unit polydisc).
    """
    return _eval_terms(req, "naive")


def eval_recursive(req: EvalRequest) -> EvalResult:
    """Exact value by pruned descent, depth <= level + B.

    The descent of each ball of phi may visit at most ctx.naive_budget
    coset nodes; a larger tree raises BudgetExceededError.
    """
    return _eval_terms(req, "recursive")


def eval_series(
    series: Sequence[RestrictedSeries],
    phi: SchwartzBruhat,
    y: Sequence[Rational],
    ctx: PrimeContext,
) -> EvalResult:
    """Evaluate with restricted power series components via truncation.

    Components are truncated at the frequency level m: for x in the unit
    polydisc the discarded tails lie in p**m Z_p, and v(y_j) >= -m makes
    their phase contribution vanish, so the truncated value is exact.
    """
    if not phi.supported_in_unit_polydisc(ctx.p):
        raise PreconditionError(
            "series evaluation requires phi supported in the unit polydisc"
        )
    m = clearing_exponent([Fraction(v) for v in y], ctx.p)
    f = PolyMap(series[0].n, tuple(series_truncate(s, m, ctx.p) for s in series))
    return eval_recursive(EvalRequest.of(f, y, ctx, phi))


# --------------------------------------------------------------- unit sweeps


def eval_unit_directions(
    f: PolyMap,
    phi: SchwartzBruhat,
    m: int,
    ctx: PrimeContext,
    units: Iterable[int],
) -> Iterator[tuple[int, PhaseHistogram]]:
    """Reduced histograms of E(u / p**m) for each of ``units`` (integers
    prime to p), in the order given.

    Only for r = 1.  A unit u rescales every coefficient of the phase
    polynomial by a p-adic unit, so the coset classification (vanishing of
    coefficients mod p**M) is identical for all u, and E(u / p**m) is the
    Galois conjugate sigma_u E(1 / p**m), where sigma_u sends zeta to
    zeta**u.  One recursive evaluation gives R = E(1 / p**m), reduced at
    level M'; sigma_u R depends only on u mod p**M', so each class of units
    mod p**M' is relabelled and reduced once, and its histogram (one shared
    object) is yielded for every unit of the class.
    """
    if f.r != 1:
        raise ValueError("unit-direction sweep applies to single-component maps")
    if m < 1:
        raise ValueError("sweep level must be >= 1")
    p = ctx.p
    base = eval_recursive(EvalRequest.of(f, (Fraction(1, p**m),), ctx, phi)).histogram.reduced()
    mod = p**base.level
    classes: dict[int, PhaseHistogram] = {}
    for u in units:
        if u % p == 0:
            raise ValueError(f"direction {u} is not a unit mod {p}")
        hist = classes.get(u % mod)
        if hist is None:
            hist = classes[u % mod] = base.galois(u).reduced()
        yield u, hist
