"""The residue-grid kernel and the Hensel box rule of the recursive fiber
counter, against plain point loops that share no code with either."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

import padicsums.grid as grid
from padicsums.expsum import EvalRequest, eval_naive
from padicsums.padic import PhaseHistogram, PrimeContext
from padicsums.polymap import PolyMap, coefficient_floor, parse_polymap, poly_eval
from padicsums.singular import _hensel_box, _preimages, count_fibers
from tests.test_expsum import TUPLE_TERMS


def reference_counts(f: PolyMap, m: int, p: int) -> dict:
    """N_m(z) by evaluating f exactly at every residue tuple mod p**(m+B)."""
    b = coefficient_floor(f.components, p)
    mod = p ** (m + b)
    counts: dict = {}
    for x in itertools.product(range(mod), repeat=f.n):
        key = []
        for comp in f.components:
            v = poly_eval(comp, x) * p**b
            rep = v.numerator * pow(v.denominator, -1, mod) % mod if mod > 1 else 0
            key.append(Fraction(rep, p**b) if b else rep)
        counts[tuple(key)] = counts.get(tuple(key), 0) + 1
    return counts


def reference_value(f: PolyMap, y, p: int) -> PhaseHistogram:
    """E(y) on the unit polydisc by summing psi(y . f(x)) over a grid fine
    enough to determine every phase."""
    phase = {}
    for yj, comp in zip(y, f.components):
        for exp, c in comp.items():
            phase[exp] = phase.get(exp, 0) + yj * c
    v = min((c for c in phase.values() if c), key=lambda c: _val(c, p), default=0)
    level = max(0, -_val(v, p)) if v else 0
    mod = p**level
    counts: dict = {}
    for x in itertools.product(range(mod), repeat=f.n):
        value = poly_eval(phase, x) * mod  # in Z_p: its class mod p**level is the phase
        k = value.numerator * pow(value.denominator, -1, mod) % mod if mod > 1 else 0
        counts[k] = counts.get(k, 0) + 1
    return PhaseHistogram(p, level, counts, Fraction(1, mod**f.n))


def _val(c, p):
    c = Fraction(c)
    v, num, den = 0, c.numerator, c.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def random_map(rng, p: int, grid_cap: int):
    """(f, m) with n <= 3, r <= 4, some p-power denominators, and a residue
    grid of at most ``grid_cap`` points."""
    while True:
        n = rng.randint(1, 3)
        r = rng.randint(1, 4)
        comps = []
        for _ in range(r):
            poly = {}
            for _ in range(rng.randint(1, 4)):
                exp = tuple(rng.randint(0, 3) for _ in range(n))
                if sum(exp) <= 4:
                    unit = rng.choice((1, 2, -1, 4, 7))
                    while unit % p == 0:
                        unit += 1
                    poly[exp] = Fraction(unit) * Fraction(p) ** rng.choice((-1, 0, 0, 1))
            comps.append(poly or {(0,) * n: Fraction(1)})
        f = PolyMap(n, tuple(comps))
        m = rng.randint(1, 3)
        if (p ** (m + coefficient_floor(comps, p))) ** n <= grid_cap:
            return f, m


@pytest.mark.parametrize("p", [2, 3, 5])
def test_fiber_counts_match_point_loop(p):
    rng = random.Random(100 + p)
    ctx = PrimeContext(p, 10**6)
    denominators = 0
    for _ in range(20):
        f, m = random_map(rng, p, 800)
        denominators += coefficient_floor(f.components, p) > 0
        expected = reference_counts(f, m, p)
        assert count_fibers(f, m, ctx, strategy="naive").counts == expected
        assert count_fibers(f, m, ctx, strategy="recursive").counts == expected
    assert denominators > 0


@pytest.mark.parametrize("p", [2, 3, 5])
def test_eval_naive_matches_point_loop(p):
    rng = random.Random(200 + p)
    ctx = PrimeContext(p, 10**6)
    for _ in range(15):
        f, m = random_map(rng, p, 400)
        y = [Fraction(rng.randrange(p**m), p ** rng.randint(0, m)) for _ in range(f.r)]
        got = eval_naive(EvalRequest.of(f, y, ctx)).histogram.reduced()
        assert got == reference_value(f, y, p).reduced()


def test_grid_spanning_many_blocks(monkeypatch):
    # 11 points per block: partial x1 runs at both ends of the grid
    monkeypatch.setattr(grid, "BLOCK_POINTS", 11)
    ctx = PrimeContext(3)
    for text, n, m in (("x1^2+x2*x3; x1*x2+x3^3", 3, 1), ("x1^3+x2^2", 2, 2), ("x1^4", 1, 3)):
        f = parse_polymap(text, n)
        assert count_fibers(f, m, ctx, strategy="naive").counts == reference_counts(f, m, 3)


def test_default_blocks_agree_with_descent():
    # 3**12 points: many blocks at the default size; the box rule resolves
    # the same map without the grid
    ctx = PrimeContext(3, 10**6)
    f = parse_polymap("x1^3+x2^2", 2)
    assert 3**12 > grid.BLOCK_POINTS
    naive = count_fibers(f, 6, ctx, strategy="naive")
    assert naive.counts == count_fibers(f, 6, ctx, strategy="recursive").counts
    assert naive.total() == 3**12


def test_wide_keys_use_exact_integers():
    # r = 4 at modulus 3**10: the key space 3**40 does not fit an int64
    ctx = PrimeContext(3, 10**6)
    f = parse_polymap("x1; x1^2; 2*x1^3+1; x1^4+x1", 1)
    assert (3**10) ** 4 > grid.INT64_KEYS_MAX
    mod = 3**10
    expected: dict = {}
    for x in range(mod):
        key = (x, x**2 % mod, (2 * x**3 + 1) % mod, (x**4 + x) % mod)
        expected[key] = expected.get(key, 0) + 1
    assert count_fibers(f, 10, ctx, strategy="naive").counts == expected


def test_big_modulus_path_matches_int64_path(monkeypatch):
    f = parse_polymap("x1^3*x2+5*x2^2+x1; 7*x1*x2+2", 2)
    ctx = PrimeContext(5)
    expected = count_fibers(f, 2, ctx, strategy="naive").counts
    req = EvalRequest.of(f, [Fraction(3, 25), Fraction(1, 5)], ctx)
    value = eval_naive(req).histogram
    # every modulus above 3 now takes the exact Python-integer path
    monkeypatch.setattr(grid, "INT64_MOD_MAX", 3)
    assert count_fibers(f, 2, ctx, strategy="naive").counts == expected
    assert eval_naive(req).histogram == value


def test_products_near_the_int64_limit_stay_exact():
    # an odd modulus just below the int64 limit (int64 wrap-around is exact
    # modulo a power of two), at coordinates just below it: every product of
    # two residues is near 2**62, so each further factor needs a reduction
    mod = grid.INT64_MOD_MAX - 1
    coords = [mod - 1, 1_518_500_249, 1_234_567_891]
    g = {(1, 1, 1): mod - 3, (2, 0, 1): mod - 5, (0, 3, 0): 7, (1, 0, 2): 1, (0, 0, 0): mod - 1}
    # five terms on all three axes: their unreduced sum passes 2**63
    g.update({(1, 2, 1): mod - 7, (2, 1, 1): 3, (1, 1, 2): mod - 2, (2, 2, 2): mod - 11})
    axes = [
        grid._power_axes(np.array(coords, dtype=np.int64), 3, mod, i, 3) for i in range(3)
    ]
    values = grid._block_values(grid._support_groups(g), axes, (3, 3, 3), mod, np.int64)
    expected = [
        sum(c * x[0] ** e[0] * x[1] ** e[1] * x[2] ** e[2] for e, c in g.items()) % mod
        for x in itertools.product(coords, repeat=3)
    ]
    assert values.tolist() == expected


def _preimages_by_loop(f, z, m, p, limit):
    mod = p**m
    found = [
        x
        for x in itertools.product(range(mod), repeat=f.n)
        if all((poly_eval(c, x) - t) % mod == 0 for c, t in zip(f.components, z))
    ]
    return len(found), found[:limit]


@pytest.mark.parametrize("block_points", [5, grid.BLOCK_POINTS])
def test_preimages_order_and_count(monkeypatch, block_points):
    monkeypatch.setattr(grid, "BLOCK_POINTS", block_points)
    ctx = PrimeContext(3)
    cases = (("x1^2", 1, (0,), 4), ("x1^2+x2^2", 2, (1,), 2), ("x1*x2; x1+x2^2", 2, (0, 0), 2))
    for text, n, z, m in cases:
        f = parse_polymap(text, n)
        for limit in (0, 1, 3, 1000):
            assert _preimages(f, z, m, ctx, limit) == _preimages_by_loop(f, z, m, 3, limit)


def test_hensel_box_mixed_constant_and_submersive_components():
    # mod 3**4: the first component is constant, the second has linear part
    # 3*t1 and nonlinear part 9*t2**2 deeper than it
    polys = [{(0, 0): 5}, {(0, 0): 2, (1, 0): 3, (0, 2): 9}]
    assert _hensel_box(polys, TUPLE_TERMS, 2, 3, 4) == [4, 1]
    # a nonlinear term as deep as the linear one blocks the rule
    assert _hensel_box([{(1, 0): 3, (0, 2): 3}], TUPLE_TERMS, 2, 3, 4) is None
    # a nonconstant component without a linear term blocks it too
    assert _hensel_box([{(0, 0): 1}, {(2, 0): 9}], TUPLE_TERMS, 2, 3, 4) is None
    # dependent linear rows mod p: (3, 6) / 3 = (1, 2) and (1, 2)
    assert _hensel_box([{(1, 0): 3, (0, 1): 6}, {(1, 0): 1, (0, 1): 2}], TUPLE_TERMS, 2, 3, 4) is None
    assert _hensel_box([{(1, 0): 3, (0, 1): 6}, {(1, 0): 1, (0, 1): 1}], TUPLE_TERMS, 2, 3, 4) == [1, 0]


def test_box_credit_with_partly_constant_components():
    # On x1 = 0 mod 3, x1^2 is constant mod 9 while x2 + x1^3 is submersive:
    # those cosets are credited as boxes with one constant side.
    ctx = PrimeContext(3)
    for text, n, m in (("x1^2; x2+x1^3", 2, 2), ("3*x1^2; x2", 2, 3), ("9*x1^2+x2; x1", 2, 2)):
        f = parse_polymap(text, n)
        assert count_fibers(f, m, ctx, strategy="recursive").counts == reference_counts(f, m, 3)
