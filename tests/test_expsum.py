import functools
import itertools
import random
from dataclasses import replace
from fractions import Fraction
from math import comb

import pytest

from padicsums.decay import primitive_directions
from padicsums.errors import BudgetExceededError, PreconditionError, SeriesFloorError
from padicsums.expsum import (
    EvalRequest,
    _classify,
    _collect_leaves,
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


def _integer_level(req):
    from padicsums.polymap import integer_images

    clear, _, (g,) = integer_images([req.phase_poly()], req.ctx.p, 0)
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


def _reference_walk(polys, mod, n, p, rule, k=0):
    """Pre-order walk whose children are built one digit vector at a time,
    in lexicographic order of the digit vector."""
    label = rule(polys)
    yield k, polys, label
    if label is None:
        for delta in itertools.product(range(p), repeat=n):
            child = tuple(_reference_shift(g, delta, p, mod) for g in polys)
            yield from _reference_walk(child, mod, n, p, rule, k + 1)


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
        _, mod, (g,) = integer_images([req.phase_poly()], p, 0)
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
        walk = list(descend_cosets(polys, mod, n, p, rule, 10**6))
        assert walk == list(_reference_walk(polys, mod, n, p, rule)), (polys, mod, n, p)
        if n > 1 and walk[0][2] is None:
            split.add((n, p))
    assert len(cases) >= 100 and split == {(n, p) for n in (2, 3) for p in (2, 3, 5)}

def test_oracle_equivalence_randomized():
    rng = random.Random(100)
    for _ in range(60):
        req = make_random_instance(rng)
        h1 = eval_naive(req).histogram.reduced()
        h2 = eval_recursive(req).histogram.reduced()
        assert h1 == h2


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


def _joint_walk(req, budget):
    """The value of ``req`` from one coset walk of the whole phase per ball,
    in all n variables, each of at most ``budget`` nodes: the evaluator
    before the phase was split."""
    p, n = req.ctx.p, req.f.n
    total = PhaseHistogram.zero(p)
    for ball in req.phi.terms:
        gb = substitute_affine(req.phase_poly(), ball.center, Fraction(p) ** ball.k, n)
        level, mod, (g,) = integer_images([gb], p, 0)
        counts, _ = _collect_leaves(g, level, mod, n, p, budget)
        total = total + PhaseHistogram(p, level, counts, ball.weight * Fraction(p) ** (-(ball.k + level) * n))
    return total.reduced()


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
            moved = replace(req, f=substitute_variables(req.f, images))
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
