import functools
import itertools
import random
import time
import types
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from padicsums.decay import primitive_directions
from padicsums.errors import BudgetExceededError, PreconditionError, SeriesFloorError
from padicsums.expsum import (
    EvalRequest,
    EvalResult,
    PruneStats,
    _classify,
    _collect_leaves,
    _last_layer_rule,
    _naive_counts,
    _split_walk,
    descend_cosets,
    eval_naive,
    eval_recursive,
    eval_series,
    eval_unit_directions,
)
from padicsums.padic import PhaseHistogram, PrimeContext, clearing_exponent
from padicsums.polymap import (
    PolyMap,
    RestrictedSeries,
    SchwartzBruhat,
    integer_images,
    parse_polymap,
    poly_add,
    poly_const,
    poly_mul,
    poly_pow,
    poly_scale,
    poly_var,
    substitute_affine,
)
from padicsums.singular import _hensel_box


def make_random_instance(rng, p_choices=(2, 3, 5), max_level=3, budget=200_000):
    """Random (f, y, ctx) with the effective enumeration inside the budget."""
    while True:
        p = rng.choice(p_choices)
        ctx = PrimeContext(p, budget)
        n = rng.choice([1, 2])
        r = rng.choice([1, 2])
        comps = []
        for _ in range(r):
            poly = {}
            for _ in range(rng.randint(1, 4)):
                exp = tuple(rng.randint(0, 3) for _ in range(n))
                if sum(exp) > 4:
                    continue
                unit = rng.choice([1, 2, -1, 4, 7])
                while unit % p == 0:
                    unit += 1
                poly[exp] = poly.get(exp, Fraction(0)) + Fraction(unit) * Fraction(p) ** rng.randint(-2, 2)
            poly = {k: v for k, v in poly.items() if v}
            if not poly:
                poly = {(0,) * n: Fraction(1)}
            comps.append(poly)
        f = PolyMap(n, tuple(comps))
        y = []
        for _ in range(r):
            e = rng.randint(0, max_level)
            if e == 0:
                y.append(Fraction(rng.randint(-2, 2)))
            else:
                u = rng.randrange(1, p**e)
                y.append(Fraction(u, p**e))
        req = EvalRequest.of(f, y, ctx)
        m_eff, _ = _integer_level(req)
        if p ** (m_eff * n) <= budget:
            return req


def make_random_sweep_instance(rng, r=1):
    """Random r-component (f, phi, m, ctx) for direction sweeps: p in
    {2, 3, 5}, coefficients with denominators, and 40% of the time a weight
    function of several balls, some of them outside Z_p^n.  For r = 2 the
    level is kept to at most p**(2m) <= 81 directions."""
    p = rng.choice((2, 3, 5))
    n = rng.choice((1, 2))
    polys = []
    for _ in range(r):
        poly = {}
        for _ in range(rng.randint(1, 4)):
            exp = tuple(rng.randint(0, 3) for _ in range(n))
            if sum(exp) > 4:
                continue
            unit = rng.choice([1, 2, -1, 4, 7])
            while unit % p == 0:
                unit += 1
            poly[exp] = poly.get(exp, Fraction(0)) + Fraction(unit) * Fraction(p) ** rng.randint(-1, 2)
        polys.append({k: v for k, v in poly.items() if v} or {(0,) * n: Fraction(1)})
    phi = SchwartzBruhat.trivial(n)
    if rng.random() < 0.4:
        terms = []
        for _ in range(rng.randint(2, 3)):
            center = [Fraction(rng.randint(-2, 2), rng.choice((1, 1, p))) for _ in range(n)]
            weight = Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2)))
            terms += SchwartzBruhat.ball(center, rng.randint(0, 2), weight).terms
        phi = SchwartzBruhat(n, tuple(terms))
    m = rng.randint(1, ({2: 5, 3: 3, 5: 2} if r == 1 else {2: 3, 3: 2, 5: 1})[p])
    return PolyMap(n, tuple(polys)), phi, m, PrimeContext(p, 10**6)


def substitute_variables(f, images):
    """f(images): each x_i replaced by the polynomial images[i]."""
    comps = []
    for comp in f.components:
        out = {}
        for exp, c in comp.items():
            term = poly_const(f.n, c)
            for image, e in zip(images, exp):
                term = poly_mul(term, poly_pow(image, e, f.n))
            out = poly_add(out, term)
        comps.append(out)
    return PolyMap(f.n, tuple(comps))


def random_substitutions(rng, n, p):
    """Images of x under x -> x + a with a in Z^n, and under x -> Ax with A
    integral, det A a p-unit; A is a permutation (the swap for n = 2) a
    third of the time.  Both maps carry Haar measure on Z_p^n onto itself."""
    def linear(row):
        return {tuple(int(k == i) for k in range(n)): Fraction(a) for i, a in enumerate(row) if a}

    translation = [poly_add(poly_var(n, i), poly_const(n, rng.randint(-4, 4))) for i in range(n)]
    if rng.random() < 1 / 3:
        matrix = [[int(i == (j + 1) % n) for i in range(n)] for j in range(n)]
    else:
        while True:
            matrix = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            det = matrix[0][0] if n == 1 else matrix[0][0] * matrix[1][1] - matrix[0][1] * matrix[1][0]
            if det % p:
                break
    return translation, [linear(row) for row in matrix]


def phase_poly(req):
    """The rational phase polynomial sum_j y_j f_j of ``req``."""
    g = {}
    for yj, comp in zip(req.y, req.f.components):
        if yj:
            g = poly_add(g, poly_scale(comp, yj))
    return g


def rational_phase_eval(req, method):
    """E(y) from the rational phase: ``phase_poly`` substituted into each
    ball of phi and integerized at level 0, so each ball is enumerated
    (``method`` "naive") or walked at the level L its phase clears at.  A
    reference for the evaluators, which integerize each component once per
    ball and combine the images with integer weights."""
    p, n, budget = req.ctx.p, req.f.n, req.ctx.naive_budget
    phase = phase_poly(req)
    total, stats = PhaseHistogram.zero(p), PruneStats()
    for ball in req.phi.terms:
        gb = substitute_affine(phase, ball.center, Fraction(p) ** ball.k, n, 10**6)
        level, mod, (g,) = integer_images([gb], p, 0)
        if method == "naive":
            counts, st = _naive_counts(g, level, mod, n, p, budget)
            mean = PhaseHistogram(p, level, counts, Fraction(p) ** (-level * n))
        else:
            (mean,), st = _split_walk(g, (level,), mod, n, p, budget)
        total = total + mean.scaled(ball.weight * Fraction(p) ** (-ball.k * n))
        stats = stats + st
    return EvalResult(total, stats)


def _integer_level(req):
    clear, _, (g,) = integer_images([phase_poly(req)], req.ctx.p, 0)
    return clear, g


def test_eval_naive_gauss_example():
    ctx = PrimeContext(3)
    f = parse_polymap("x1^2", 1)
    res = eval_naive(EvalRequest.of(f, [Fraction(1, 3)], ctx))
    h = res.histogram
    assert h.level == 1 and h.scale == Fraction(1, 3)
    assert h.counts == {0: 1, 1: 2}
    mag, err = h.magnitude()
    assert abs(mag - 3**-0.5) <= err + 1e-12


def test_eval_naive_linear_full_character_sum_vanishes():
    for p in (2, 3, 5):
        ctx = PrimeContext(p)
        f = parse_polymap("x1", 1)
        for m in (1, 2, 3):
            for u in range(1, p**m):
                if u % p == 0:
                    continue
                res = eval_naive(EvalRequest.of(f, [Fraction(u, p**m)], ctx))
                assert res.histogram.is_zero()


def test_eval_naive_integral_frequency_gives_one():
    ctx = PrimeContext(5)
    f = parse_polymap("x1^3 + 2*x1*x2; x2^2", 2)
    res = eval_naive(EvalRequest.of(f, [Fraction(3), Fraction(-1)], ctx))
    assert res.histogram.exact_rational() == 1


def test_eval_recursive_matches_naive_on_gauss_mod9():
    ctx = PrimeContext(3)
    f = parse_polymap("x1^2", 1)
    req = EvalRequest.of(f, [Fraction(1, 9)], ctx)
    naive = eval_naive(req)
    rec = eval_recursive(req)
    assert rec.histogram.reduced() == naive.histogram.reduced()
    mag, err = rec.histogram.magnitude()
    assert abs(mag - 1 / 3) <= err + 1e-12
    # the oscillation prune fires on the unit cosets after one split
    assert rec.stats.p2 > 0 and rec.stats.splits >= 1


def test_eval_recursive_linear_prunes_at_root():
    ctx = PrimeContext(3)
    f = parse_polymap("x1", 1)
    res = eval_recursive(EvalRequest.of(f, [Fraction(1, 3)], ctx))
    assert res.histogram.is_zero()
    assert res.stats.p2 == 1 and res.stats.splits == 0 and res.stats.p1 == 0


def test_eval_recursive_constant_map_prunes_at_root():
    ctx = PrimeContext(3)
    f = PolyMap(1, ({(0,): Fraction(2, 3)},))
    y = Fraction(1)
    res = eval_recursive(EvalRequest.of(f, [y], ctx))
    assert res.stats.p1 == 1 and res.stats.splits == 0
    expected = PhaseHistogram(3, 1, {2: 1})  # psi(2/3)
    assert res.histogram.reduced() == expected.reduced()



@pytest.mark.parametrize(
    "text, n, m, p1, p2, splits",
    [
        ("x1^3 + x2^3 + x1*x2", 2, 6, 1, 728, 91),
        ("x1^3 + x2^3 + x1*x2", 2, 7, 9, 6552, 820),
        ("x1^2*x2 + x3^3 + x2", 3, 5, 3, 663, 86),
    ],
)
def test_phase_descent_tree_is_pinned(text, n, m, p1, p2, splits):
    """The prune rules fix the tree; a rule change must show up here."""
    req = EvalRequest.of(parse_polymap(text, n), [Fraction(1, 3**m)], PrimeContext(3))
    stats = eval_recursive(req).stats
    assert (stats.p1, stats.p2, stats.splits, stats.leaves) == (p1, p2, splits, p1 + p2)


def test_split_tree_is_pinned():
    """x1^2 + x2^5 at p = 5 walks x1 and x2 apart, so the counts of the two
    one-variable trees add up where the joint walk's multiply: the joint
    tree has 406,901 nodes, the split ones 1,412 together."""
    req = EvalRequest.of(parse_polymap("x1^2 + x2^5", 2), [Fraction(1, 5**8)], PrimeContext(5))
    result = eval_recursive(req)
    stats = result.stats
    assert (stats.p1, stats.p2, stats.splits, stats.leaves) == (2, 1128, 282, 1130)
    assert result.histogram.reduced() == PhaseHistogram(5, 0, {0: 1}, Fraction(1, 5**6))


def _reference_shift(g, delta, p, mod):
    """G(delta + p*t) mod ``mod``, shifting x1..xn anew for each digit vector."""
    out = g
    for i, d in enumerate(delta):
        nxt = {}
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


class _Read(dict):
    def __init__(self, read):
        super().__init__()
        self.read = read

    def __missing__(self, exp):
        return self.read(exp)


#: The reader of ``Terms`` for polynomials keyed by exponent tuples, as the
#: reference walk keeps them: a rule reads them as it reads the walk's codes.
TUPLE_TERMS = types.SimpleNamespace(degree=_Read(sum), exponents=_Read(tuple))


def _reference_walk(polys, mod, n, p, rule, k=0):
    """Pre-order walk whose children are built one digit vector at a time,
    in lexicographic order of the digit vector."""
    label = rule(polys, TUPLE_TERMS)
    yield k, polys, label
    if label is None:
        for delta in itertools.product(range(p), repeat=n):
            child = tuple(_reference_shift(g, delta, p, mod) for g in polys)
            yield from _reference_walk(child, mod, n, p, rule, k + 1)


def _unpacked_walk(polys, mod, n, p, rule, budget=10**6):
    """``descend_cosets`` with each node's polynomials keyed by exponent
    tuples again."""
    for k, packed, label, terms in descend_cosets(polys, mod, n, p, rule, budget):
        yield k, tuple({terms.exponents[code]: c for code, c in g.items()} for g in packed), label


def _random_integer_map(rng, p, n, r):
    """r integer polynomials in n variables mod p**level, p**(level*n) <= 4096."""
    level = rng.randint(1, max(e for e in range(1, 13) if p ** (e * n) <= 4096))
    mod = p**level
    polys = []
    for _ in range(r):
        poly = {}
        for _ in range(rng.randint(1, 4)):
            exp = tuple(rng.randint(0, 3) for _ in range(n))
            if sum(exp) <= 4:
                poly[exp] = rng.randrange(1, p) * p ** rng.randint(0, 1) % mod
        polys.append({exp: c for exp, c in poly.items() if c})
    return polys, level, mod


def test_coset_walk_is_pinned_node_by_node():
    """The walk yields the same nodes, in the same order, as a walk that
    builds each child from its digit vector: depth, polynomials and label."""
    rng = random.Random(110)
    cases = []
    for _ in range(60):
        req = make_random_instance(rng, budget=4096)
        p, n = req.ctx.p, req.f.n
        _, mod, (g,) = integer_images([phase_poly(req)], p, 0)
        cases.append(((g,), mod, n, p, _classify))
    for n in (1, 2, 3):
        for _ in range(15):
            p = rng.choice((2, 3, 5))
            polys, _, mod = _random_integer_map(rng, p, n, 1)
            cases.append((tuple(polys), mod, n, p, _classify))
            p = rng.choice((2, 3, 5))
            polys, level, mod = _random_integer_map(rng, p, n, 2)
            rule = functools.partial(_hensel_box, n=n, p=p, level=level)
            cases.append((tuple(polys), mod, n, p, rule))
    # degrees above the level: p**j vanishes mod p**level before j reaches e
    cases.append((({(9, 0): 2, (4, 1): 1, (0, 5): 1},), 3**2, 2, 3, _classify))
    box = functools.partial(_hensel_box, n=2, p=2, level=3)
    cases.append((({(7, 5): 1, (0, 3): 3}, {(6, 0): 1, (0, 1): 2}), 2**3, 2, 2, box))
    split = set()
    for polys, mod, n, p, rule in cases:
        walk = list(_unpacked_walk(polys, mod, n, p, rule))
        assert walk == list(_reference_walk(polys, mod, n, p, rule)), (polys, mod, n, p)
        if n > 1 and walk[0][2] is None:
            split.add((n, p))
    assert len(cases) >= 100 and split == {(n, p) for n in (2, 3) for p in (2, 3, 5)}

    # Edge cases of the packed exponents, walked with the box rule at the
    # level of their modulus, and the one-polynomial ones with the phase rule.
    edges = [
        # x_i**D with p**D < mod: the packing's top digit survives the shifts
        (({(3, 0): 1, (0, 3): 2, (3, 3): 1},), 3**4, 2, 3),
        (({(4,): 1, (1,): 2},), 2**6, 1, 2),
        (({(2, 2): 1, (2, 0): 1}, {(0, 2): 1, (1, 1): 2}), 3**3, 2, 3),
        # top < degree: p**degree >= mod, so high powers of p*t vanish
        (({(6, 1): 1, (1, 0): 3, (0, 2): 1},), 2**4, 2, 2),
        (({(5,): 1, (2,): 1},), 3**3, 1, 3),
        (({(4, 0): 1, (0, 2): 5}, {(4, 1): 1, (0, 1): 1}), 5**2, 2, 5),
        # p = 2 and p = 7
        (({(2, 1): 1, (0, 3): 1, (1, 0): 1},), 2**4, 2, 2),
        (({(1, 1): 1, (0, 1): 2}, {(1, 0): 1, (0, 2): 1}), 2**3, 2, 2),
        (({(3,): 1, (2,): 3},), 7**3, 1, 7),
        (({(2, 0): 1, (0, 2): 3, (1, 1): 1},), 7**2, 2, 7),
        (({(2, 0): 1, (0, 1): 1}, {(0, 2): 2, (1, 0): 1}), 7**2, 2, 7),
        # n = 3 with mixed degrees
        (({(3, 0, 0): 1, (0, 2, 0): 2, (0, 0, 1): 1, (1, 1, 1): 1},), 2**4, 3, 2),
        (({(2, 1, 0): 1, (0, 0, 4): 1}, {(0, 1, 0): 1, (1, 0, 2): 1}), 3**2, 3, 3),
        # a constant polynomial: the root is a leaf, also in no variables
        (({(0, 0): 4},), 3**3, 2, 3),
        (({(): 4},), 3**3, 0, 3),
        (({(): 4}, {(): 5}), 5**2, 0, 5),
    ]
    for polys, mod, n, p in edges:
        level = clearing_exponent([Fraction(1, mod)], p)
        constant = not any(any(exp) for g in polys for exp in g)
        for rule in (_classify, functools.partial(_hensel_box, n=n, p=p, level=level)):
            if rule is _classify and len(polys) > 1:
                continue
            walk = list(_unpacked_walk(polys, mod, n, p, rule))
            assert walk == list(_reference_walk(polys, mod, n, p, rule)), (polys, mod, n, p)
            assert (walk[0][2] is None) != constant, polys  # all but constants split


def _reference_leaves(g, level, mod, n, p):
    """``_collect_leaves`` from ``_reference_walk`` with ``_classify``: every
    node the rule does not prune is split and its children built."""
    counts, stats = {}, PruneStats()
    for k, (poly,), kind in _reference_walk((g,), mod, n, p, _classify):
        if kind is None:
            stats.splits += 1
            continue
        stats.leaves += 1
        if kind == "p2":
            stats.p2 += 1
            continue
        stats.p1 += 1
        cls = poly.get((0,) * n, 0) % mod
        counts[cls] = counts.get(cls, 0) + p ** ((level - k) * n)
    return counts, stats


def _random_leaf_instance(rng):
    """(g, level, mod, n, p): an integer polynomial reduced mod p**level, its
    residue grid at most 3**8 points, with exponents drawn from 0..3, p and
    2p, so that the binomials of x**p and x**(2p) carry extra powers of p."""
    while True:
        p = rng.choice((2, 3, 5, 7))
        n = rng.randint(1, 3)
        level = rng.randint(1, 6)
        if p ** (level * n) <= 3**8:
            break
    mod = p**level
    g = {}
    for _ in range(rng.randint(1, 5)):
        exp = tuple(rng.choice((0, 0, 1, 2, 3, p, 2 * p)) for _ in range(n))
        g[exp] = (g.get(exp, 0) + rng.randrange(1, 3 * p) * p ** rng.randint(0, 2)) % mod
    return {exp: c for exp, c in g.items() if c}, level, mod, n, p


def test_last_layer_matches_the_split_walk():
    """A node whose children are all leaves is resolved without building
    them: the counts, in the same class order, and the stats equal those
    of the walk that splits it, and so does the budget, node for node."""
    rng = random.Random(117)
    seen, resolved = set(), 0
    for _ in range(240):
        g, level, mod, n, p = _random_leaf_instance(rng)
        expected = _reference_leaves(g, level, mod, n, p)
        need = 1 + expected[1].splits * p**n
        (counts,), stats = _collect_leaves(g, (level,), mod, n, p, need)
        assert (list(counts.items()), stats) == (list(expected[0].items()), expected[1]), (g, mod, n)
        if expected[1].splits:
            with pytest.raises(BudgetExceededError) as parent:
                for _ in descend_cosets((g,), mod, n, p, _classify, need - 1):
                    pass
            with pytest.raises(BudgetExceededError) as exc:
                _collect_leaves(g, (level,), mod, n, p, need - 1)
            assert str(exc.value) == str(parent.value)
        rule = _last_layer_rule(max(mod // p**2, 1))
        labels = [kind for *_, kind, _ in descend_cosets((g,), mod, n, p, rule, need)]
        resolved += "last" in labels
        seen.add((p, n, level, stats.p1 > 0 and "last" in labels))
    assert resolved >= 100
    assert {p for p, *_ in seen} == {2, 3, 5, 7} and {n for _, n, *_ in seen} == {1, 2, 3}
    assert {level for _, _, level, _ in seen} == set(range(1, 7))
    assert sum(flat for *_, flat in seen) >= 10  # resolved splits with P1 children


def make_images_instance(rng):
    """Random request for the integer-image path: p in {2, 3, 5}, n <= 3,
    r <= 3, at most three monomials of total degree <= 3 per component
    (so no variable's binomial expansion builds more than 24 terms), with
    coefficients over powers of p and over denominators prime to p.  Each
    y_j is 0, u / p**e, u * p**e or u / q for a unit u and q prime to p;
    most components whose y_j is 0 carry a coefficient p**-4, and phi is one
    to three balls with k in -2..2, some centred outside Z_p^n."""
    p = rng.choice((2, 3, 5))
    n, r = rng.randint(1, 3), rng.randint(1, 3)
    q = rng.choice([d for d in (3, 7, 11) if d % p])
    units = [u for u in range(1, 3 * p) if u % p]
    y, comps = [], []
    for _ in range(r):
        kind = rng.choice(("zero", "power", "power", "positive", "prime"))
        e = rng.randint(1, 3)
        y.append({"zero": Fraction(0), "power": Fraction(rng.choice(units), p**e),
                  "positive": Fraction(rng.choice(units) * p**e),
                  "prime": Fraction(rng.choice(units), q)}[kind])
        comp = {}
        for _ in range(rng.randint(1, 3)):
            exp = [0] * n
            for _ in range(rng.randint(0, 3)):
                exp[rng.randrange(n)] += 1
            den = rng.choice((1, p, p**2, q, p * q))
            comp = poly_add(comp, {tuple(exp): Fraction(rng.choice(units), den)})
        if kind == "zero" and rng.random() < 0.7:
            comp = poly_add(comp, {tuple(rng.randint(0, 1) for _ in range(n)): Fraction(1, p**4)})
        comps.append(comp or poly_const(n, 1))
    terms = []
    for _ in range(rng.randint(1, 3)):
        center = [Fraction(rng.randint(-2, 2), rng.choice((1, 1, p, q))) for _ in range(n)]
        weight = Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2)))
        terms += SchwartzBruhat.ball(center, rng.randint(-2, 2), weight).terms
    phi = SchwartzBruhat(n, tuple(terms))
    return EvalRequest.of(PolyMap(n, tuple(comps)), y, PrimeContext(p), phi)


def _outcome(evaluate, req):
    try:
        result = evaluate(req)
    except BudgetExceededError as exc:
        return "budget", str(exc)
    return result.histogram.reduced(), result.stats


def test_integer_images_match_the_rational_phase():
    """eval_naive and eval_recursive, which combine each ball's integer
    images with the weights p**m y_j, equal the rational-phase reference on
    seeded instances: the same reduced histogram and pruning stats, and at a
    tight budget the same BudgetExceededError text."""
    rng = random.Random(116)
    outcomes, features = Counter(), Counter()
    for _ in range(160):
        req = make_images_instance(rng)
        p, comps = req.ctx.p, req.f.components
        for budget in (5_000, 30):
            at = EvalRequest(req.f, req.phi, req.y, PrimeContext(p, budget))
            for method, evaluate in (("naive", eval_naive), ("recursive", eval_recursive)):
                got = _outcome(evaluate, at)
                assert got == _outcome(lambda r: rational_phase_eval(r, method), at), (method, budget, req)
                outcomes[method, budget, got[0] == "budget"] += 1
        features["y_j = 0 on a deep component"] += any(
            not yj and clearing_exponent(comp.values(), p) >= 4 for yj, comp in zip(req.y, comps)
        )
        features["positive valuation"] += any(yj.numerator % p == 0 for yj in req.y if yj)
        features["denominator prime to p"] += any(yj.denominator % p for yj in req.y if yj.denominator > 1)
        features["centre outside Z_p"] += any(
            c.denominator % p == 0 for ball in req.phi.terms for c in ball.center
        )
        features["k < 0"] += any(ball.k < 0 for ball in req.phi.terms)
    assert len(outcomes) == 8 and min(outcomes.values()) >= 10, outcomes
    assert len(features) == 5 and min(features.values()) >= 20, features


def test_oracle_equivalence_randomized():
    rng = random.Random(100)
    for _ in range(60):
        req = make_random_instance(rng)
        h1 = eval_naive(req).histogram.reduced()
        h2 = eval_recursive(req).histogram.reduced()
        assert h1 == h2


def make_deep_instance(rng, grid=200_000):
    """Random request in the style of ``make_random_instance`` at the
    largest level whose residue grid p**(M*n) fits ``grid``: p in
    {2, 3, 5, 7}, n <= 3, r <= 2, monomials of total degree <= 6, unit
    coefficients times p**(-1..2), and y_j = u_j / p**m for units u_j."""
    p = rng.choice((2, 3, 5, 7))
    n = rng.randint(1, 3)
    comps = []
    for _ in range(rng.choice((1, 2))):
        poly = {}
        for _ in range(rng.randint(1, 4)):
            exp = [0] * n
            for _ in range(rng.randint(1, 6)):
                exp[rng.randrange(n)] += 1
            unit = rng.choice([u for u in range(1, 3 * p) if u % p])
            poly = poly_add(poly, {tuple(exp): Fraction(unit) * Fraction(p) ** rng.randint(-1, 2)})
        comps.append(poly or poly_const(n, 1))
    f = PolyMap(n, tuple(comps))
    units = [rng.choice([u for u in range(1, 3 * p) if u % p]) for _ in comps]
    for m in range(40, 0, -1):
        req = EvalRequest.of(f, [Fraction(u, p**m) for u in units], PrimeContext(p, 10**6))
        if p ** (_integer_level(req)[0] * n) <= grid:
            return req
    return None


def test_kernel_matches_naive_at_the_deepest_levels_in_budget():
    """The recursive evaluator equals the residue grid where the grid is as
    large as the test affords: deep walks of degree up to 6 in up to three
    variables, at p = 2, 3, 5 and 7."""
    rng = random.Random(115)
    seen = set()
    for _ in range(48):
        req = make_deep_instance(rng)
        if req is None:
            continue
        assert eval_recursive(req).histogram.reduced() == eval_naive(req).histogram.reduced(), req
        degree = max(sum(exp) for comp in req.f.components for exp in comp)
        seen.add((req.ctx.p, req.f.n, degree == 6, req.f.r))
    assert {p for p, _, _, _ in seen} == {2, 3, 5, 7}
    assert {n for _, n, _, _ in seen} == {1, 2, 3}
    assert any(six for _, _, six, _ in seen) and {r for *_, r in seen} == {1, 2}


def _random_group_poly(rng, p, n, group):
    """A random polynomial in the variables of ``group`` (in the style of
    ``make_random_instance``): monomials of degree <= 4, unit coefficients
    times p**(-1..2)."""
    poly = {}
    for _ in range(rng.randint(1, 3)):
        exp = [0] * n
        for i in group:
            exp[i] = rng.randint(0, 3)
        if not 0 < sum(exp) <= 4:
            continue
        unit = rng.choice([1, 2, -1, 4, 7])
        while unit % p == 0:
            unit += 1
        poly = poly_add(poly, {tuple(exp): Fraction(unit) * Fraction(p) ** rng.randint(-1, 2)})
    return poly


def make_separable_instance(rng):
    """Random request whose phase is a sum of polynomials on disjoint sets of
    variables: n <= 4, p in {2, 3, 5}, 1-2 components over the same split of
    the variables into 2-3 groups, or into one group with a variable left
    out of every monomial; half the time a weight function of 2-3 balls,
    some off the origin or outside Z_p^n, with negative weights."""
    p = rng.choice((2, 3, 5))
    n = rng.randint(2, 4)
    order = rng.sample(range(n), n)
    used = order[: n - 1] if rng.random() < 0.3 else order
    count = rng.randint(1 if len(used) < n else 2, min(3, len(used)))
    cuts = sorted(rng.sample(range(1, len(used)), count - 1))
    groups = [used[a:b] for a, b in zip([0] + cuts, cuts + [len(used)])]
    comps = []
    for _ in range(rng.choice((1, 2))):
        comp = poly_const(n, rng.choice((0, 1, Fraction(1, p))))
        for group in groups:
            comp = poly_add(comp, _random_group_poly(rng, p, n, group))
        comps.append(comp or poly_const(n, 1))
    phi = SchwartzBruhat.trivial(n)
    if rng.random() < 0.5:
        terms = []
        for _ in range(rng.randint(2, 3)):
            center = [Fraction(rng.randint(-2, 2), rng.choice((1, 1, p))) for _ in range(n)]
            weight = Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2)))
            terms += SchwartzBruhat.ball(center, rng.randint(0, 2), weight).terms
        phi = SchwartzBruhat(n, tuple(terms))
    y = []
    for _ in comps:
        e = rng.randint(1, {2: 5, 3: 3, 5: 2}[p])
        y.append(Fraction(rng.choice([u for u in range(1, 3 * p) if u % p]), p**e))
    return EvalRequest.of(PolyMap(n, tuple(comps)), y, PrimeContext(p, 50_000), phi)


def test_window_levels_are_read_off_the_deepest_tree():
    """One walk at the deepest level M gives every level's sum: the leaves
    shallower than L and the nodes at depth exactly L, read mod p**L, reduce
    to the level-L walk's histogram.  Level M's counts, in class order, its
    stats and its budget are those of the one-level walk."""
    rng = random.Random(124)
    seen, covered = Counter(), set()
    while seen["windows"] < 500:
        g, top, mod, n, p = _random_leaf_instance(rng)
        if top == 1:
            continue
        seen["windows"] += 1
        levels = tuple(sorted(rng.sample(range(1, top), rng.randint(0, top - 1)))) + (top,)
        counts, stats = _collect_leaves(g, levels, mod, n, p, 10**6)
        (alone,), alone_stats = _collect_leaves(g, (top,), mod, n, p, 10**6)
        assert (list(counts[-1].items()), stats) == (list(alone.items()), alone_stats), (g, levels)
        if stats.splits:
            need = 1 + stats.splits * p**n
            with pytest.raises(BudgetExceededError, match=f"more than {need - 1} coset nodes"):
                _collect_leaves(g, levels, mod, n, p, need - 1)
        for level, at in zip(levels[:-1], counts):
            low = p**level
            (expected,), _ = _collect_leaves(
                {exp: c % low for exp, c in g.items() if c % low}, (level,), low, n, p, 10**6
            )
            scale = Fraction(p) ** (-level * n)
            got = PhaseHistogram(p, level, at, scale).reduced()
            assert got == PhaseHistogram(p, level, expected, scale).reduced(), (g, levels, level)
            seen["levels"] += 1
            seen["nonzero"] += bool(got.counts)
            seen["read off a different tree"] += at != expected
            covered.add((p, n))
    assert seen["levels"] >= 600 and seen["nonzero"] >= 400 and seen["read off a different tree"] >= 100, seen
    assert covered >= {(p, n) for p in (2, 3, 5, 7) for n in (1, 2)} | {(2, 3)}, covered


def _joint_walk(req, budget):
    """The value of ``req`` from one coset walk of the whole phase per ball,
    in all n variables, each of at most ``budget`` nodes: the evaluator
    before the phase was split."""
    p, n = req.ctx.p, req.f.n
    total = PhaseHistogram.zero(p)
    for ball in req.phi.terms:
        gb = substitute_affine(phase_poly(req), ball.center, Fraction(p) ** ball.k, n, 10**6)
        level, mod, (g,) = integer_images([gb], p, 0)
        (counts,), _ = _collect_leaves(g, (level,), mod, n, p, budget)
        total = total + PhaseHistogram(p, level, counts, ball.weight * Fraction(p) ** (-(ball.k + level) * n))
    return total.reduced()


def test_a_cancelling_group_builds_no_power_of_its_level():
    """Groups whose sums cancel (here two P2 roots) are zero factors before
    their scale p**(-level) or a reduction's p**level is built: each such
    power of 3 took ~0.2 s at level 2,000,000."""
    level = 2_000_000
    mod = 3**level
    start = time.perf_counter()
    (hist,), stats = _split_walk({(1, 0): 1, (0, 1): 2}, (level,), mod, 2, 3, 10)
    zero = PhaseHistogram(3, level, {5: 0}, Fraction(1, 3)).reduced()
    assert time.perf_counter() - start < 0.1
    assert hist == zero == PhaseHistogram.zero(3) and (stats.p2, stats.splits) == (2, 0)


def test_groups_after_a_zero_factor_are_walked_but_not_formed(monkeypatch):
    """Once a group's sum cancels, the later groups are still walked, for
    their work counts and the node budget, but no histogram is formed or
    multiplied for them."""
    g = {(1, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 2}  # x1 cancels at its root
    _, x2 = _collect_leaves({(2,): 1}, (3,), 27, 1, 3, 100)
    _, x3 = _collect_leaves({(2,): 2}, (3,), 27, 1, 3, 100)
    reductions = []
    reduced = PhaseHistogram.reduced
    monkeypatch.setattr(PhaseHistogram, "reduced", lambda h: reductions.append(h) or reduced(h))
    (hist,), stats = _split_walk(g, (3,), 27, 3, 3, 100)
    assert hist == PhaseHistogram.zero(3) and not reductions
    assert x2.splits and x3.splits and stats == PruneStats(p2=1, leaves=1) + x2 + x3
    need = 1 + x3.splits * 3
    with pytest.raises(BudgetExceededError, match=f"more than {need - 1} coset nodes"):
        _split_walk(g, (3,), 27, 3, 3, need - 1)


def test_split_walk_matches_naive_and_joint_walk():
    """A separable phase evaluated group by group equals the grid where the
    grid fits the budget, and the joint walk at deeper levels."""
    rng = random.Random(113)
    cases = [EvalRequest.of(parse_polymap("x2^2", 2), [Fraction(1, 27)], PrimeContext(3))]
    cases += [make_separable_instance(rng) for _ in range(200)]
    checked = {"naive": 0, "joint": 0}
    for req in cases:
        try:
            split = eval_recursive(req).histogram.reduced()
            try:
                oracle, expected = "naive", eval_naive(req).histogram.reduced()
            except BudgetExceededError:
                oracle, expected = "joint", _joint_walk(req, 3_000)
        except BudgetExceededError:
            continue
        assert split == expected, (oracle, req)
        checked[oracle] += 1
    assert checked["naive"] >= 100 and checked["joint"] >= 50, checked


def test_linearity_in_phi():
    ctx = PrimeContext(3)
    f = parse_polymap("x1^2 + x1", 1)
    y = [Fraction(2, 9)]
    phi1 = SchwartzBruhat.ball([0], 1, Fraction(2))
    phi2 = SchwartzBruhat.ball([1], 1, Fraction(-1, 2))
    combined = SchwartzBruhat(1, phi1.terms + phi2.terms)
    h1 = eval_recursive(EvalRequest.of(f, y, ctx, phi1)).histogram
    h2 = eval_recursive(EvalRequest.of(f, y, ctx, phi2)).histogram
    h = eval_recursive(EvalRequest.of(f, y, ctx, combined)).histogram
    assert h.reduced() == (h1 + h2).reduced()


def test_character_triviality_for_integral_data():
    ctx = PrimeContext(3)
    f = parse_polymap("x1^2 + 2*x1", 1)
    for y in (Fraction(1), Fraction(3), Fraction(0), Fraction(1, 2)):
        res = eval_recursive(EvalRequest.of(f, [y], ctx))
        assert res.histogram.exact_rational() == 1


def test_translation_covariance():
    rng = random.Random(102)
    for _ in range(20):
        req = make_random_instance(rng, max_level=2)
        n = req.f.n
        c = [Fraction(rng.randint(-3, 3)) for _ in range(req.f.r)]
        shifted = PolyMap(
            n,
            tuple(
                poly_add(comp, {(0,) * n: ci} if ci else {})
                for comp, ci in zip(req.f.components, c)
            ),
        )
        req2 = EvalRequest(shifted, req.phi, req.y, req.ctx)
        h1 = eval_recursive(req).histogram
        h2 = eval_recursive(req2).histogram
        dot = sum((yj * cj for yj, cj in zip(req.y, c)), Fraction(0))
        assert h2.reduced() == h1.rotated(dot).reduced()


def test_translation_and_unimodular_substitution_invariance():
    """E_f(y) = E_{f o T}(y) for T(x) = x + a and T(x) = Ax (trivial phi)."""
    rng = random.Random(109)
    for _ in range(30):
        req = make_random_instance(rng, max_level=2)
        want = eval_naive(req).histogram.reduced()
        for images in random_substitutions(rng, req.f.n, req.ctx.p):
            moved = EvalRequest(substitute_variables(req.f, images), req.phi, req.y, req.ctx)
            assert eval_recursive(moved).histogram.reduced() == want, (req.f, images)
            assert eval_naive(moved).histogram.reduced() == want, (req.f, images)


def test_magnitude_bounded_by_phi_l1():
    rng = random.Random(103)
    for _ in range(20):
        req = make_random_instance(rng, max_level=2)
        n = req.f.n
        terms = []
        for _ in range(rng.randint(1, 3)):
            center = tuple(Fraction(rng.randint(0, 2)) for _ in range(n))
            terms.append(
                SchwartzBruhat.ball(center, rng.randint(0, 1), Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2]))).terms[0]
            )
        phi = SchwartzBruhat(n, tuple(terms))
        req2 = EvalRequest(req.f, phi, req.y, req.ctx)
        mag, err = eval_recursive(req2).histogram.magnitude()
        # sum |weight| * measure(ball) bounds the L1 norm of phi
        l1 = sum(abs(t.weight) * Fraction(req.ctx.p) ** (-t.k * n) for t in phi.terms)
        assert mag <= float(l1) + err + 1e-12


def test_budget_error_reports_requirements():
    ctx = PrimeContext(3, naive_budget=10)
    f = parse_polymap("x1^2", 1)
    with pytest.raises(BudgetExceededError) as exc:
        eval_naive(EvalRequest.of(f, [Fraction(1, 81)], ctx))
    assert exc.value.needed == 81
    assert exc.value.budget == 10


def test_frequency_level():
    ctx = PrimeContext(3)
    f = parse_polymap("1/3*x1^2; x1", 1)
    for y, level in (([Fraction(1, 9), 0], 2), ([5, Fraction(2, 27)], 3), ([0, 0], 0), ([Fraction(1, 2), 6], 0)):
        assert clearing_exponent(EvalRequest.of(f, y, ctx).y, ctx.p) == level


def test_eval_series_frozen_oracle():
    # sum_i 3^i x^i at y = 1/3: every point of Z_3 contributes the phase 1/3,
    # computed by direct 3-term enumeration of the truncation 1 (+ tail in 3Z_3):
    # value is exactly psi(1/3), magnitude 1.
    ctx = PrimeContext(3)
    s = RestrictedSeries(1, lambda exp: Fraction(3 ** exp[0]), lambda d: d)
    res = eval_series([s], SchwartzBruhat.trivial(1), [Fraction(1, 3)], ctx)
    expected = PhaseHistogram(3, 1, {1: 1})  # psi(1/3)
    assert res.histogram.reduced() == expected.reduced()
    mag, err = res.histogram.magnitude()
    assert abs(mag - 1.0) <= err + 1e-12


def test_eval_series_matches_polynomial_evaluator():
    ctx = PrimeContext(3)
    poly = parse_polymap("1 + 3*x1 + 9*x1^2", 1).components[0]
    s = RestrictedSeries.from_poly(1, poly, 3)
    for y in (Fraction(1, 3), Fraction(2, 9), Fraction(1)):
        via_series = eval_series([s], SchwartzBruhat.trivial(1), [y], ctx)
        direct = eval_recursive(EvalRequest.of(PolyMap(1, (poly,)), [y], ctx))
        assert via_series.histogram.reduced() == direct.histogram.reduced()


def test_eval_series_constant():
    ctx = PrimeContext(3)
    s = RestrictedSeries(1, lambda exp: Fraction(1 if sum(exp) == 0 else 0), lambda d: 0 if d == 0 else 100)
    res = eval_series([s], SchwartzBruhat.trivial(1), [Fraction(2, 9)], ctx)
    expected = PhaseHistogram(3, 2, {2: 1})  # psi(2/9)
    assert res.histogram.reduced() == expected.reduced()


def test_eval_series_floor_violation():
    ctx = PrimeContext(3)
    units = RestrictedSeries(1, lambda exp: Fraction(1), lambda d: 0)
    with pytest.raises(SeriesFloorError):
        eval_series([units], SchwartzBruhat.trivial(1), [Fraction(1, 3)], ctx)


def test_eval_series_requires_unit_polydisc_support():
    ctx = PrimeContext(3)
    s = RestrictedSeries(1, lambda exp: Fraction(3 ** exp[0]), lambda d: d)
    phi = SchwartzBruhat.ball([Fraction(1, 3)], 0, 1)
    with pytest.raises(PreconditionError):
        eval_series([s], phi, [Fraction(1, 3)], ctx)


def test_unit_sweep_matches_per_direction_eval():
    rng = random.Random(105)
    for _ in range(40):
        f, phi, m, ctx = make_random_sweep_instance(rng)
        p = ctx.p
        units = []
        all_units = list(primitive_directions(p, m, 1))
        for u, hist in eval_unit_directions(f, phi, m, ctx, all_units):
            direct = eval_recursive(EvalRequest.of(f, [Fraction(u[0], p**m)], ctx, phi))
            assert hist == direct.histogram.reduced(), (f, phi, m, p, u)
            units.append(u)
        assert units == [(u,) for u in range(1, p**m) if u % p]


def test_unit_sweep_over_given_units():
    f = parse_polymap("x1^3 + x1^2", 1)
    ctx = PrimeContext(3)
    phi = SchwartzBruhat.trivial(1)
    units = [(7,), (2,), (7,), (25,), (1,)]
    swept = list(eval_unit_directions(f, phi, 3, ctx, units))
    assert [u for u, _ in swept] == units
    full = dict(eval_unit_directions(f, phi, 3, ctx, primitive_directions(3, 3, 1)))
    assert all(hist == full[u] for u, hist in swept)
    with pytest.raises(ValueError):
        list(eval_unit_directions(f, phi, 3, ctx, [(3,)]))


def test_negated_frequency_is_the_conjugate():
    """E(-y) is the complex conjugate of E(y)."""
    rng = random.Random(106)
    for _ in range(40):
        req = make_random_instance(rng)
        neg = EvalRequest(req.f, req.phi, tuple(-v for v in req.y), req.ctx)
        expected = eval_recursive(req).histogram.conjugate().reduced()
        assert eval_recursive(neg).histogram.reduced() == expected


def test_unit_multiple_is_the_galois_conjugate():
    """E(u*y) = sigma_u E(y) for a unit u, where sigma_u sends zeta to zeta**u."""
    rng = random.Random(107)
    for _ in range(40):
        req = make_random_instance(rng)
        p = req.ctx.p
        u = rng.choice([u for u in range(2, 3 * p) if u % p])
        scaled = EvalRequest(req.f, req.phi, tuple(u * v for v in req.y), req.ctx)
        expected = eval_recursive(req).histogram.galois(u).reduced()
        assert eval_recursive(scaled).histogram.reduced() == expected


def test_descent_node_budget():
    f = parse_polymap("x1^3 + x2^3 + x1*x2", 2)
    req = EvalRequest.of(f, [Fraction(1, 3**6)], PrimeContext(3, naive_budget=820))
    assert eval_recursive(req).stats.leaves == 729  # 820 nodes: 91 splits, 729 leaves
    tight = EvalRequest(req.f, req.phi, req.y, PrimeContext(3, naive_budget=819))
    with pytest.raises(BudgetExceededError) as exc:
        eval_recursive(tight)
    assert exc.value.needed is None and exc.value.budget == 819
    assert "more than 819 coset nodes" in str(exc.value)
