"""Evaluators for p-adic oscillatory integrals with polynomial phase.

For a frequency y and a ball c + p**k Z_p^n of the weight function, the
integral of psi(sum_j y_j f_j) over the ball reduces to a finite normalized
character sum.  Every path builds it the same way.  ``_ball_images``
substitutes x = c + p**k t into each component and integerizes them at the
level m, the clearing exponent of y: G_j = p**B f_j(c + p**k t) mod
p**(m+B) is an integer polynomial.  With the integer weights u_j = p**m y_j
the phase on the ball is G / p**M for G = sum_j u_j G_j mod p**M
(``_combination``) and M = m + B, so the phase class of a point depends
only on its residue mod p**M.  Each variable's binomial expansion about a
nonzero centre coordinate is counted against the budget before it is
built, and every ball of phi is integerized before any walk.
``eval_naive`` enumerates the residue space, after dividing out the
content of G so that it enumerates mod the level the phase clears at.
``eval_recursive`` descends through sub-cosets a + p**k Z_p^n; writing
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

The walk stores exponents packed: a monomial's exponent vector is one
integer whose digits, in base D + 1 for the root's largest exponent D, are
the exponents (``Terms``); the constant term is 0.  Rules and leaf handlers
read degrees, exponent vectors and constant terms through the ``Terms`` the
walk hands them, never the packing itself.  A split shifts each polynomial
once per variable for all p digits: x_i -> d + p*t expands x_i**e from two
tables, comb(e, j) * p**j mod p**M and d**k mod p**M, filled only for the
exponents that occur and shared by the walks of one modulus
(``_expansions``), and each child's coefficient is reduced mod p**M once,
after its terms are summed.

The phase walk resolves its last digit layer at the parent.  When every
coefficient of degree >= 2 of a node's G is divisible by p**(M-2), each
child G(d + p*t) has no nonlinear term mod p**M: its linear coefficients
are p * dG/dx_i(d) and its constant is G(d), so it is a P1 leaf when all of
p * dG/dx_i(d) vanish mod p**M and a P2 leaf otherwise.  The phase rule
labels such a node "last" (``_last_layer_rule``), and ``_collect_leaves``
counts it as the split it stands for, in the stats and against the budget,
but loops over its p**n digit vectors (``_last_layer``) instead of building
the children.  The tree, the work counts and the values are those of the
full walk.

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
It builds each ball's images once per level and walks each direction's
``_combination`` with ``_split_walk``, as ``eval_recursive`` does for one
frequency; for r = 1 it walks u = (1,) alone and applies the Galois action.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd
from operator import mul
from typing import Any, Callable, Iterable, Iterator, Sequence

from .errors import BudgetExceededError, PreconditionError
from .padic import (
    PhaseHistogram,
    PrimeContext,
    Rational,
    Value,
    clearing_exponent,
    residue,
    valuation,
)
from .polymap import (
    BallTerm,
    IntPoly,
    Poly,
    PolyMap,
    RestrictedSeries,
    SchwartzBruhat,
    integer_images,
    series_truncate,
    substitute_affine,
)


class PruneStats(Value):
    """Work accounting: prune hits and splits for the recursive evaluator,
    summed over the walks of every variable group of every ball, and the
    enumerated point count for the naive one."""

    __slots__ = ("p1", "p2", "splits", "leaves", "points")

    def __init__(self, p1: int = 0, p2: int = 0, splits: int = 0, leaves: int = 0,
                 points: int = 0):
        self.p1 = p1
        self.p2 = p2
        self.splits = splits
        self.leaves = leaves
        self.points = points

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


class EvalRequest:
    """One integral: map, weight function, frequency vector, context."""

    __slots__ = ("f", "phi", "y", "ctx")

    def __init__(self, f: PolyMap, phi: SchwartzBruhat, y: tuple[Fraction, ...],
                 ctx: PrimeContext):
        if len(y) != f.r:
            raise ValueError("frequency vector length must equal component count")
        if phi.n != f.n:
            raise ValueError("phi arity must equal variable count")
        self.f = f
        self.phi = phi
        self.y = y
        self.ctx = ctx

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


class EvalResult:
    __slots__ = ("histogram", "stats")

    def __init__(self, histogram: PhaseHistogram, stats: PruneStats):
        self.histogram = histogram
        self.stats = stats


# ------------------------------------------------------------- coset descent


class _Lazy(dict):
    """A dict that fills a missing key with ``fill(key)`` on first read."""

    def __init__(self, fill: Callable[[Any], Any]):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class Terms:
    """How coset walks store their polynomials, and how their rules and leaf
    handlers read them.

    The exponent vector of a monomial is packed into one integer, its code
    sum_i e_i * base**i, where ``base`` is one more than the largest
    exponent in the root's polynomials: a shift never raises an exponent,
    so every e_i stays one digit.  The constant term is code 0.  A node's
    polynomial is a dict from codes to coefficients.  ``degree[code]`` and
    ``exponents[code]`` are a code's total degree and exponent vector, each
    worked out the first time it is read.  Codes mean the same in every walk
    with the same n and base, and those walks share one ``Terms``
    (``_terms``, kept for the life of the process), so a sweep's many small
    walks decode each code once; what it holds grows only with the distinct
    (n, base) pairs and monomials the process meets.
    """

    def __init__(self, n: int, base: int):
        self.weights = [base**i for i in range(n)]
        self.exponents = _Lazy(lambda code: tuple(code // w % base for w in self.weights))
        self.degree = _Lazy(lambda code: sum(self.exponents[code]))

    def pack(self, g: IntPoly) -> dict[int, int]:
        return {sum(map(mul, exp, self.weights)): c for exp, c in g.items()}

    @staticmethod
    def constant(g: dict[int, int]) -> int:
        return g.get(0, 0)


_terms = lru_cache(maxsize=None)(Terms)


@lru_cache(maxsize=1)
def _expansions(p: int, mod: int) -> _Lazy:
    """(d + p*t)**e mod ``mod`` for all p digits d, row e filled on first use.

    Row e lists (k, comb(e, j) * p**j mod ``mod``, [d**k mod ``mod`` for each
    digit d]) with k = e - j, for each j whose coefficient is nonzero; it
    stops at the first j with p**j = 0 mod ``mod``, so a high power costs
    only the terms that live.  The d**k lists are shared between rows.  The
    table depends on p and ``mod`` alone, so the walks of one evaluation or
    sweep, which share both, share it too.
    """
    powers = _Lazy(lambda k: [pow(d, k, mod) for d in range(p)])

    def row(e: int) -> list[tuple[int, int, list[int]]]:
        live, pj = [], 1
        for j in range(e + 1):
            if not pj:
                break
            b = comb(e, j) * pj % mod
            if b:
                live.append((e - j, b, powers[e - j]))
            pj = pj * p % mod
        return live

    return _Lazy(row)


class _Splitter:
    """Builds the p**n children of a node, one variable at a time: each
    polynomial is shifted in x_i for all p digits d in one pass.

    Under x_i -> d + p*t a term c * x_i**e becomes
    c * sum_j comb(e, j) p**j d**(e-j) t**j: its codes and coefficients come
    from the row e of ``_expansions``.  A child's coefficient is reduced
    mod ``mod`` once, after all its terms are summed.
    """

    def __init__(self, terms: Terms, p: int, mod: int):
        self._p, self._mod = p, mod
        self._weights, self._exponents = terms.weights, terms.exponents
        self._rows = _expansions(p, mod)

    def children(self, polys: tuple[dict[int, int], ...]) -> list[tuple[dict[int, int], ...]]:
        """The children in digit-lexicographic order: x1 is shifted first,
        then x2 on each result, and so on."""
        columns = [[g] for g in polys]  # each polynomial's children so far
        for i, w in enumerate(self._weights):
            columns = [
                [child for g in column for child in self._shift(g, i, w)] for column in columns
            ]
        return list(zip(*columns))

    def _shift(self, g: dict[int, int], i: int, w: int) -> list[dict[int, int]]:
        """G with x_i replaced by d + p*x_i, reduced mod ``mod``, for each
        digit d.  A polynomial free of x_i is its own child for every d."""
        exponents, rows, mod = self._exponents, self._rows, self._mod
        fixed = {}  # the terms every digit shares: x_i-free, and the t**e part
        moving = []  # (code, coefficient, d**k by digit) for k >= 1
        for code, c in g.items():
            e = exponents[code][i]
            if not e:
                fixed[code] = c
                continue
            for k, b, power in rows[e]:
                if k:
                    moving.append((code - k * w, c * b, power))
                else:
                    fixed[code] = c * b
        if not moving:
            return [g] * self._p
        out = [{code: r for code, c in fixed.items() if (r := c % mod)}]
        for d in range(1, self._p):
            acc = dict(fixed)
            for code, a, power in moving:
                acc[code] = acc.get(code, 0) + a * power[d]
            out.append({code: r for code, c in acc.items() if (r := c % mod)})
        return out


def descend_cosets(
    polys: Sequence[IntPoly],
    mod: int,
    n: int,
    p: int,
    rule: Callable[[tuple[dict[int, int], ...], Terms], Any],
    budget: int,
) -> Iterator[tuple[int, tuple[dict[int, int], ...], Any, Terms]]:
    """Walk the cosets a + p**k Z_p^n in digit-lexicographic order.

    ``polys`` are integer polynomials reduced mod ``mod``, a power of p,
    without zero coefficients, as polynomials in the coordinate t of the
    root coset Z_p^n.  Each node is
    yielded as (k, its polynomials in its own coordinate, label, terms):
    the polynomials are packed, and ``terms`` (one ``Terms`` for the whole
    walk) reads them.  The label is ``rule(polys, terms)``; a label of None
    splits the node into its p**n sub-cosets a + p**k * delta +
    p**(k+1) Z_p^n, visited in order of the digit vector delta.  Both the
    phase sums and the fiber counts are leaf handlers over this walk.  A
    walk of more than ``budget`` nodes raises BudgetExceededError, counting
    a split's children before building them.
    """
    terms = _terms(n, 1 + max((e for g in polys for exp in g for e in exp), default=0))
    stack = [(0, tuple(terms.pack(g) for g in polys))]
    pushed = 1
    splitter = None  # built at the first split
    while stack:
        k, polys = stack.pop()
        label = rule(polys, terms)
        yield k, polys, label, terms
        if label is None:
            pushed += p**n
            if pushed > budget:
                raise BudgetExceededError(None, budget, what="coset nodes")
            if splitter is None:
                splitter = _Splitter(terms, p, mod)
            # pushed last child first, so they pop in digit-lexicographic order
            stack.extend((k + 1, c) for c in reversed(splitter.children(polys)))


def _classify(polys, terms: Terms) -> str | None:
    """Prune rule of the phase descent: "p1", "p2", or None to split."""
    (g,) = polys
    degree = terms.degree
    has_linear = False
    for code in g:
        d = degree[code]
        if d >= 2:
            return None
        if d == 1:
            has_linear = True
    return "p2" if has_linear else "p1"


def _last_layer_rule(top: int) -> Callable[[tuple[dict[int, int], ...], Terms], str | None]:
    """The phase walk's rule: ``_classify``, but "last" for a node it would
    split whose coefficients of degree >= 2 are all divisible by ``top`` =
    p**(M-2) (every coefficient, for M <= 2): all of its children are
    leaves, and ``_collect_leaves`` resolves them at the node."""

    def rule(polys, terms: Terms) -> str | None:
        kind = _classify(polys, terms)
        if kind is None:
            degree = terms.degree
            if all(c % top == 0 for code, c in polys[0].items() if degree[code] >= 2):
                return "last"
        return kind

    return rule


def _outer(c: int, tables: Sequence[list[int]]) -> list[int]:
    """c * prod_i tables[i][d_i] for every digit vector d, in
    digit-lexicographic order (x1 most significant)."""
    out = [c]
    for table in tables:
        out = [a * b for a in out for b in table]
    return out


def _last_layer(g: dict[int, int], terms: Terms, n: int, p: int, mod: int) -> list[int]:
    """The phase classes of the P1 children of a "last" node, in
    digit-lexicographic order; its other children are P2.

    The child at digit vector d is G(d + p*t).  Its nonlinear coefficients
    vanish mod ``mod`` = p**M (each is p**|a| >= p**2 times a sum of
    coefficients of degree >= 2 of G), its coefficient of t_i is
    p * dG/dx_i(d) and its constant is G(d): it is P1 exactly when every
    p * dG/dx_i(d) vanishes mod p**M.  The slopes are found a variable at a
    time, for all digit vectors at once, and the search stops at the first
    variable whose slope is nonzero at every digit vector still in the
    running.  Each term's x_i**e reads d**e and e * p * d**(e-1) from the
    row e of ``_expansions`` (its first two entries, the latter absent when
    e * p vanishes mod p**M).
    """
    rows = _expansions(p, mod)
    monomials = [(c, terms.exponents[code]) for code, c in g.items()]
    flat = [True] * p**n  # the children not yet known to be P2
    for i in range(n):
        slope = [0] * p**n  # p * dG/dx_i at each digit vector
        for c, exps in monomials:
            e = exps[i]
            if e and len(rows[e]) > 1 and rows[e][1][0] == e - 1:
                _, b, power = rows[e][1]
                tables = [power if j == i else rows[f][0][2] for j, f in enumerate(exps)]
                slope = [s + t for s, t in zip(slope, _outer(c * b, tables))]
        flat = [f and not s % mod for f, s in zip(flat, slope)]
        if not any(flat):
            return []
    value = [0] * p**n
    for c, exps in monomials:
        value = [s + t for s, t in zip(value, _outer(c, [rows[e][0][2] for e in exps]))]
    return [v % mod for v, is_flat in zip(value, flat) if is_flat]


def _collect_leaves(
    g: IntPoly, level: int, mod: int, n: int, p: int, budget: int
) -> tuple[dict[int, int], PruneStats]:
    """Phase-class counts of the P1 leaves, in units of p**(-level*n), for
    G reduced mod ``mod`` = p**level.

    Classes appear in the order the digit-lexicographic walk first meets
    them.  A "last" node (``_last_layer_rule``) counts as the split it
    stands for: its p**n children count against the budget and in the
    stats as the walk's own would, but are resolved by ``_last_layer``
    without being built.  The budget is checked here, at each split of
    either kind, before the walk's own check, which sees fewer splits.
    """
    counts: dict[int, int] = {}
    stats = PruneStats()
    width = p**n
    rule = _last_layer_rule(max(mod // (p * p), 1))
    for k, (poly,), kind, terms in descend_cosets((g,), mod, n, p, rule, budget):
        if kind is None or kind == "last":
            stats.splits += 1
            if 1 + stats.splits * width > budget:
                raise BudgetExceededError(None, budget, what="coset nodes")
            if kind == "last":
                classes = _last_layer(poly, terms, n, p, mod)
                weight = p ** ((level - k - 1) * n)
                for cls in classes:
                    counts[cls] = counts.get(cls, 0) + weight
                stats.leaves += width
                stats.p1 += len(classes)
                stats.p2 += width - len(classes)
            continue
        stats.leaves += 1
        if kind == "p2":
            stats.p2 += 1
            continue
        stats.p1 += 1
        cls = terms.constant(poly) % mod
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
    the products may pair at most ``budget`` classes in all.  Once a
    group's sum cancels the product is zero: the later groups are still
    walked, for the budget and the stats, but their histograms are not
    formed, and a zero factor pairs no classes.
    """
    zero = (0,) * n
    factors = []  # up to the first zero factor
    stats = PruneStats()
    for index, group in enumerate(_variable_groups(g, n) or [[]]):
        part = {
            tuple(exp[i] for i in group): c
            for exp, c in g.items()
            if any(exp[i] for i in group) or (exp == zero and index == 0)
        }
        counts, st = _collect_leaves(part, level, mod, len(group), p, budget)
        stats = stats + st
        if factors and not factors[-1].counts:
            continue
        if not counts:  # the sum cancels: no power of p is built for it
            factors.append(PhaseHistogram.zero(p))
            continue
        scale = Fraction(p) ** (-level * len(group))
        factors.append(PhaseHistogram(p, level, counts, scale).reduced())
    product, pairs = factors[0], 0
    for factor in factors[1:]:
        pairs += len(product.counts) * len(factor.counts)
        if pairs > budget:
            raise BudgetExceededError(pairs, budget, what="phase class pairs")
        product = (product * factor).reduced()
    return product, stats


def _ball_images(
    components: Sequence[Poly], ball: BallTerm, m: int, ctx: PrimeContext
) -> tuple[int, int, list[IntPoly], Fraction]:
    """(m + B, p**(m+B), the images G_j, the ball's weight times its measure
    p**(-k n)) for the ball c + p**k Z_p^n: each component is substituted,
    f_j(c + p**k t), and ``integer_images`` at level m makes G_j the integer
    polynomial p**B f_j(c + p**k t) mod p**(m+B).  Each variable's binomial
    expansion is held to ctx.naive_budget terms (``substitute_affine``)."""
    p, n = ctx.p, len(ball.center)
    step = Fraction(p) ** ball.k
    parts = [substitute_affine(c, ball.center, step, n, ctx.naive_budget) for c in components]
    clear, mod, images = integer_images(parts, p, m)
    return m + clear, mod, images, ball.weight * Fraction(p) ** (-ball.k * n)


def _combination(weights: Sequence[int], images: Sequence[IntPoly], mod: int) -> IntPoly:
    """sum_j u_j G_j mod ``mod`` for integer weights u_j, zero coefficients
    dropped."""
    g: IntPoly = {}
    for u, image in zip(weights, images):
        for exp, a in image.items():
            g[exp] = (g.get(exp, 0) + u * a) % mod
    return {exp: a for exp, a in g.items() if a}


def _eval_terms(req: EvalRequest, method: str) -> EvalResult:
    """Sum over the balls of phi of each ball's weighted mean of
    psi(G(t) / p**(m+B)), G = sum_j u_j G_j with u_j = p**m y_j over the
    components with y_j != 0.  Every ball is integerized before the first
    walk or grid.  The walk runs at level m + B; the grid divides out G's
    content p**c first and enumerates mod p**(m+B-c)."""
    p, n = req.ctx.p, req.f.n
    m = clearing_exponent(req.y, p)
    used = [j for j, yj in enumerate(req.y) if yj]
    components = [req.f.components[j] for j in used]
    balls = [_ball_images(components, ball, m, req.ctx) for ball in req.phi.terms]
    total = PhaseHistogram.zero(p)
    stats = PruneStats()
    for level, mod, images, weight in balls:
        g = _combination([residue(req.y[j], p, m, mod) for j in used], images, mod)
        if method == "naive":
            content = min((valuation(a, p) for a in g.values()), default=level)
            level -= content
            mod //= p**content
            g = {exp: a // p**content for exp, a in g.items()}
            counts, st = _naive_counts(g, level, mod, n, p, req.ctx.naive_budget)
            mean = PhaseHistogram(p, level, counts, Fraction(p) ** (-level * n))
        else:
            mean, st = _split_walk(g, level, mod, n, p, req.ctx.naive_budget)
        total = total + mean.scaled(weight)
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


def primitive_directions(p: int, m: int, r: int) -> Iterator[tuple[int, ...]]:
    """All u in [0, p**m)^r with at least one unit coordinate, lex order."""
    mod = p**m
    for head in itertools.product(range(mod), repeat=r - 1):
        unit_head = any(c % p for c in head)
        for c in range(mod):
            if unit_head or c % p:
                yield head + (c,)


def eval_unit_directions(
    f: PolyMap,
    phi: SchwartzBruhat,
    m: int,
    ctx: PrimeContext,
    directions: Iterable[tuple[int, ...]] | None,
) -> Iterator[tuple[tuple[int, ...], PhaseHistogram]]:
    """Reduced histograms of E(u / p**m) for each of ``directions``, in the
    order given; a direction that is not an r-tuple with a coordinate prime
    to p is a ValueError.  ``None`` is the level's exhaustive stream:
    ``primitive_directions(p, m, r)`` for r >= 2, and for r = 1 the smallest
    unit below p**m of each class mod p**M' (the units below
    min(max(p**M', p), p**m), ascending).  Directions of equal value may
    share one yielded histogram object, so a caller need measure each
    object only once, by identity.

    Each ball's images G_j are built once per level (``_ball_images`` at
    level m), for every r.  ``walk(u)`` walks u's phase G_u / p**(m+B) on
    each ball, G_u = sum_j u_j G_j (``_combination``), with ``_split_walk``
    and sums the weighted means: the integer path of ``eval_recursive`` at
    y = u / p**m.  For r >= 2 each direction is walked on its own.

    For r = 1, a unit u rescales every coefficient of the phase polynomial
    by a p-adic unit, so the coset classification (vanishing of
    coefficients mod p**M) is identical for all u, and E(u / p**m) is the
    Galois conjugate sigma_u E(1 / p**m), where sigma_u sends zeta to
    zeta**u.  Only u = (1,) is walked, giving R = E(1 / p**m) reduced at
    level M'; sigma_u R depends only on u mod p**M', so each class of units
    mod p**M' is relabelled and reduced once, and its histogram (one shared
    object) is yielded for every unit of the class.
    """
    if m < 1:
        raise ValueError("sweep level must be >= 1")
    p, n, r = ctx.p, f.n, f.r
    balls = [_ball_images(f.components, ball, m, ctx) for ball in phi.terms]

    def walk(u: tuple[int, ...]) -> PhaseHistogram:
        total = PhaseHistogram.zero(p)
        for level, mod, images, weight in balls:
            mean, _ = _split_walk(_combination(u, images, mod), level, mod, n, p, ctx.naive_budget)
            total = total + mean.scaled(weight)
        return total.reduced()

    histogram = walk
    if r == 1:
        base = walk((1,))
        mod = p**base.level
        classes: dict[int, PhaseHistogram] = {}

        def histogram(u: tuple[int, ...]) -> PhaseHistogram:
            hist = classes.get(u[0] % mod)
            if hist is None:
                hist = classes[u[0] % mod] = base.galois(u[0]).reduced()
            return hist

        if directions is None:  # at M' = 0 all units form one class; its smallest, 1, is below p
            directions = ((u,) for u in range(1, min(max(mod, p), p**m)) if u % p)
    elif directions is None:
        directions = primitive_directions(p, m, r)
    for u in directions:
        if len(u) != r or gcd(p, *u) != 1:  # no coordinate is prime to p
            raise ValueError(f"direction {u} is not a primitive {r}-vector mod {p}")
        yield u, histogram(u)
