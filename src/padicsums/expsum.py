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

``eval_recursive`` first splits each ball's G into its variable groups: two
variables share a group when some monomial contains both.  When G is a sum
of polynomials in disjoint sets of variables, the integral over the unit
polydisc is the product of the integrals over each group's own variables
(Fubini; the Thom-Sebastiani property of Denef-Loeser), and a variable in no
monomial integrates to 1.  So each group is walked alone, at the cost of
the sum of the groups' trees instead of their product, and the reduced
histograms of the groups are multiplied exactly.  Each group's walk may
visit the whole node budget, and the products may pair at most that many
phase classes in all.  The work counts (``PruneStats``) sum over the
groups.  ``eval_naive`` and the fiber counter do not split: they stay the
oracles.

``eval_unit_directions`` sweeps the directions u of one decay level m.
For r = 1 it evaluates E(1 / p**m) once and relabels it by the Galois
action.  For r >= 2 it integerizes each ball's components once per level
(``integer_images`` at level m) and walks each direction's integer
combination sum_j u_j G_j mod p**(m+B) with ``_split_walk``, so no
direction builds rational polynomials of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Any, Callable, Iterable, Iterator, Sequence

from .errors import BudgetExceededError, PreconditionError
from .padic import PhaseHistogram, PrimeContext, Rational, _int_valuation, clearing_exponent
from .polymap import (
    IntPoly,
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
    summed over the walks of every variable group of every ball, and the
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


def _shift_variable(g: IntPoly, i: int, d: int, p: int, mod: int, top: int) -> IntPoly:
    """G with x_i replaced by d + p*x_i, reduced mod ``mod``.  Powers
    (p*x_i)**j with j > ``top`` are not expanded: each such j exceeds x_i's
    degree in G, or p**j vanishes mod ``mod``."""
    out: IntPoly = {}
    for exp, c in g.items():
        e = exp[i]
        if e == 0:
            nc = (out.get(exp, 0) + c) % mod
            if nc:
                out[exp] = nc
            else:
                out.pop(exp, None)
            continue
        # expand (d + p*t)^e; iterate j descending so d-powers build up
        j0, powd = e, 1
        if e > top:
            j0, powd = top, pow(d, e - top, mod)
        for j in range(j0, -1, -1):
            term = c * comb(e, j) * powd % mod * pow(p, j, mod) % mod
            powd = powd * d % mod
            if not term:
                continue
            nexp = exp[:i] + (j,) + exp[i + 1 :]
            nc = (out.get(nexp, 0) + term) % mod
            if nc:
                out[nexp] = nc
            else:
                out.pop(nexp, None)
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
    stack = [(0, tuple(polys))]
    pushed = 1
    top = None  # the cap on the j that ``_shift_variable`` expands; set at the first split
    while stack:
        k, polys = stack.pop()
        label = rule(polys)
        yield k, polys, label
        if label is None:
            pushed += p**n
            if pushed > budget:
                raise BudgetExceededError(None, budget, what="coset nodes")
            if top is None:  # shifts never raise an exponent past the root's degree
                degree = max((max(exp) for g in polys for exp in g), default=0)
                top = degree if p**degree < mod else _int_valuation(mod, p) - 1
            children = [polys]  # shift x1, then x2 on each result, ...
            for i in range(n):
                children = [tuple(_shift_variable(g, i, d, p, mod, top) for g in c)
                            for c in children for d in range(p)]
            # pushed last child first, so they pop in digit-lexicographic order
            stack.extend((k + 1, c) for c in reversed(children))


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
    from .grid import tally  # numpy: loaded only on the brute-force paths
    (values,), counts = tally([g], mod, n, budget)
    return dict(zip(values, counts)), PruneStats(points=mod**n)


# ------------------------------------------------------------------ evaluators


def _variable_groups(g: IntPoly, n: int) -> list[list[int]]:
    """The variables of G's nonconstant monomials in connected groups, each
    ascending, the groups in order of their least variable: two variables
    share a group when some monomial contains both.  Variables in no
    monomial are in no group."""
    groups: list[set[int]] = []
    for exp in g:
        support = {i for i in range(n) if exp[i]}
        if support:
            apart = [s for s in groups if not s & support]
            groups = apart + [support.union(*(s for s in groups if s & support))]
    return sorted(sorted(s) for s in groups)


def _split_walk(
    g: IntPoly, level: int, mod: int, n: int, p: int, budget: int
) -> tuple[PhaseHistogram, PruneStats]:
    """The sum of psi(G(t) / p**level) over the unit polydisc, normalized by
    its measure: one coset walk per variable group of G, multiplied.

    The sum factors over the groups (Fubini): each group's walk runs in its
    own variables, and a variable in no group integrates to 1.  The
    constant term rides with the first group, or alone in a walk over no
    variables when G is constant.  Each walk may visit ``budget`` nodes, and
    the products may pair at most ``budget`` classes in all.
    """
    zero = (0,) * n
    factors = []
    stats = PruneStats()
    for index, group in enumerate(_variable_groups(g, n) or [[]]):
        part = {
            tuple(exp[i] for i in group): c
            for exp, c in g.items()
            if any(exp[i] for i in group) or (exp == zero and index == 0)
        }
        counts, st = _collect_leaves(part, level, mod, len(group), p, budget)
        stats = stats + st
        scale = Fraction(p) ** (-level * len(group))
        factors.append(PhaseHistogram(p, level, counts, scale).reduced())
    product, pairs = factors[0], 0
    for factor in factors[1:]:
        pairs += len(product.counts) * len(factor.counts)
        if pairs > budget:
            raise BudgetExceededError(pairs, budget, what="phase class pairs")
        product = (product * factor).reduced()
    return product, stats


def _eval_terms(req: EvalRequest, method: str) -> EvalResult:
    """Sum over the balls c + p**k Z_p^n of phi: g(c + p**k t) is G(t) / p**M
    mod Z_p, and the ball's weighted integral is its weight times
    p**(-k n) times the mean of psi(G(t) / p**M) over t mod p**M."""
    p = req.ctx.p
    n = req.f.n
    g = req.phase_poly()
    total = PhaseHistogram.zero(p)
    stats = PruneStats()
    for ball in req.phi.terms:
        gb = substitute_affine(g, ball.center, Fraction(p) ** ball.k, n)
        m_eff, mod, (gint,) = integer_images([gb], p, 0)
        if method == "naive":
            counts, st = _naive_counts(gint, m_eff, mod, n, p, req.ctx.naive_budget)
            mean = PhaseHistogram(p, m_eff, counts, Fraction(p) ** (-m_eff * n))
        else:
            mean, st = _split_walk(gint, m_eff, mod, n, p, req.ctx.naive_budget)
        total = total + mean.scaled(ball.weight * Fraction(p) ** (-ball.k * n))
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
    directions: Iterable[tuple[int, ...]] | None,
) -> Iterator[tuple[tuple[int, ...], PhaseHistogram]]:
    """Reduced histograms of E(u / p**m) for each of ``directions`` (r-tuples
    u with a coordinate prime to p), in the order given.

    For r >= 2 each ball c + p**k Z_p^n of phi is integerized once per
    level: ``integer_images`` turns its components f_j(c + p**k t) into
    integer polynomials G_j = p**B f_j mod p**(m+B), so u's phase on the
    ball is G_u / p**(m+B) with G_u = sum_j u_j G_j.  Each direction walks
    G_u per ball (``_split_walk``) and sums the weighted means, as
    ``eval_recursive`` does.  When u's phase clears at a smaller level L,
    G_u = p**(m+B-L) G' for the G' its own walk would take at level L: a
    coefficient vanishes mod p**(m+B) exactly when its part in G' vanishes
    mod p**L, so both walks meet the same tree and give the same reduced
    histogram.  ``None`` is not accepted: the caller streams the
    directions.

    For r = 1, ``None`` stands for the ascending units below
    min(max(p**M', p), p**m): the smallest unit below p**m of each class
    mod p**M', and no other unit unless M' = 0.  A unit u rescales every
    coefficient of the phase polynomial by a p-adic unit, so the coset
    classification (vanishing of coefficients mod p**M) is identical for
    all u, and E(u / p**m) is the Galois conjugate sigma_u E(1 / p**m),
    where sigma_u sends zeta to zeta**u.  One recursive evaluation gives
    R = E(1 / p**m), reduced at level M'; sigma_u R depends only on u mod
    p**M', so each class of units mod p**M' is relabelled and reduced once,
    and its histogram (one shared object) is yielded for every unit of the
    class.
    """
    if m < 1:
        raise ValueError("sweep level must be >= 1")
    p, n = ctx.p, f.n
    if f.r > 1:
        if directions is None:
            raise ValueError("a multi-component sweep needs its directions")
        balls = []
        for ball in phi.terms:
            parts = [substitute_affine(c, ball.center, Fraction(p) ** ball.k, n) for c in f.components]
            clear, mod, images = integer_images(parts, p, m)
            balls.append((m + clear, mod, images, ball.weight * Fraction(p) ** (-ball.k * n)))
        for u in directions:
            if len(u) != f.r or not any(c % p for c in u):
                raise ValueError(f"direction {u} is not a primitive {f.r}-vector mod {p}")
            total = PhaseHistogram.zero(p)
            for level, mod, images, weight in balls:
                g: IntPoly = {}
                for c, image in zip(u, images):
                    for exp, a in image.items():
                        g[exp] = (g.get(exp, 0) + c * a) % mod
                g = {exp: a for exp, a in g.items() if a}
                mean, _ = _split_walk(g, level, mod, n, p, ctx.naive_budget)
                total = total + mean.scaled(weight)
            yield u, total.reduced()
        return
    base = eval_recursive(EvalRequest.of(f, (Fraction(1, p**m),), ctx, phi)).histogram.reduced()
    mod = p**base.level
    if directions is None:  # at M' = 0 all units form one class; its smallest, 1, is below p
        directions = ((u,) for u in range(1, min(max(mod, p), p**m)) if u % p)
    classes: dict[int, PhaseHistogram] = {}
    for u in directions:
        if u[0] % p == 0:
            raise ValueError(f"direction {u} is not a unit mod {p}")
        hist = classes.get(u[0] % mod)
        if hist is None:
            hist = classes[u[0] % mod] = base.galois(u[0]).reduced()
        yield u, hist
