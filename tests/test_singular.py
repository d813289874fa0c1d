import csv
import io
import random
from fractions import Fraction

import pytest

from padicsums.errors import BudgetExceededError, PreconditionError
from padicsums.padic import PrimeContext
from padicsums.polymap import PolyMap, coefficient_floor, parse_polymap
from padicsums.singular import count_fibers, fourier_check, stabilization_probe
from tests.test_expsum import make_random_instance, random_substitutions, substitute_variables


def test_count_fibers_square_example():
    ctx = PrimeContext(3)
    f = parse_polymap("x1^2", 1)
    t = count_fibers(f, 1, ctx)
    assert t.count([0]) == 1
    assert t.count([1]) == 2
    assert t.count([2]) == 0
    assert t.total() == 3


def test_density_lookup_inverts_unit_denominators():
    # 1/2 is a 3-adic integer congruent to 2 mod 3
    ctx = PrimeContext(3)
    f = parse_polymap("x1^2", 1)
    t = count_fibers(f, 1, ctx)
    assert t.count([Fraction(1, 2)]) == t.count([2]) == 0
    assert t.count([Fraction(-1, 2)]) == t.count([1]) == 2
    # components outside Z_3 have no integral solutions
    assert t.count([Fraction(1, 3)]) == 0


def test_count_fibers_identity_and_constant():
    ctx = PrimeContext(3)
    ident = parse_polymap("x1", 1)
    for m in (1, 2, 3):
        t = count_fibers(ident, m, ctx)
        assert all(c == 1 for _, c in t.sorted_items())
        assert t.total() == 3**m

    const = parse_polymap("7", 1)
    t = count_fibers(const, 2, ctx)
    assert t.count([7 % 9]) == 9
    assert t.count([1]) == 0


def test_count_fibers_strategies_agree():
    rng = random.Random(21)
    for _ in range(25):
        req = make_random_instance(rng, max_level=0)
        m = rng.randint(1, 2)
        b_needed = (req.ctx.p ** (m + 2)) ** req.f.n
        if b_needed > req.ctx.naive_budget:
            continue
        naive = count_fibers(req.f, m, req.ctx, strategy="naive")
        rec = count_fibers(req.f, m, req.ctx, strategy="recursive")
        assert naive.counts == rec.counts
        assert naive.clear == rec.clear


def test_densities_invariant_under_translation_and_unimodular_substitution():
    """F_m(z) is the same for f and f o T, T(x) = x + a or Ax, under both
    strategies; f o T may clear fewer denominators, so compare densities."""
    rng = random.Random(22)
    for _ in range(25):
        req = make_random_instance(rng, max_level=0)
        f, p = req.f, req.ctx.p
        m = 2
        while m and (p ** (m + coefficient_floor(f.components, p))) ** f.n > 20_000:
            m -= 1

        def densities(g, strategy):
            table = count_fibers(g, m, req.ctx, strategy=strategy)
            return {z: table.density(z) for z in table.counts}

        want = densities(f, "naive")
        for images in random_substitutions(rng, f.n, p):
            moved = substitute_variables(f, images)
            for strategy in ("naive", "recursive"):
                assert densities(moved, strategy) == want, (f, images, strategy)


def test_count_fibers_budget_and_fallback():
    ctx = PrimeContext(3, naive_budget=5)
    f = parse_polymap("x1^2", 1)
    with pytest.raises(BudgetExceededError):
        count_fibers(f, 2, ctx, strategy="naive")
    # auto falls back to the recursive counter and still gets exact counts
    t = count_fibers(f, 2, ctx)
    big = PrimeContext(3)
    assert t.counts == count_fibers(f, 2, big, strategy="naive").counts


def test_recursive_count_budgets():
    f = parse_polymap("(x1+1)^2", 1)
    # the coset 1 + 3 Z_3 covers a box of 3^2 = 9 fibers mod 27
    with pytest.raises(BudgetExceededError, match="more than 8 fibers in one box"):
        count_fibers(f, 3, PrimeContext(3, naive_budget=8), strategy="recursive")
    table = count_fibers(f, 3, PrimeContext(3, naive_budget=9), strategy="recursive")
    assert table.counts == count_fibers(f, 3, PrimeContext(3), strategy="naive").counts
    # x1^2 first descends the branch x1 = 0, one node per level
    with pytest.raises(BudgetExceededError, match="more than 10 coset nodes"):
        count_fibers(parse_polymap("x1^2", 1), 40, PrimeContext(3, naive_budget=10), strategy="recursive")


def test_mass_conservation_and_refinement():
    rng = random.Random(22)
    for _ in range(25):
        req = make_random_instance(rng, max_level=0)
        p, n = req.ctx.p, req.f.n
        # keep coefficients integral for the classical invariants
        comps = tuple(
            {e: Fraction(c.numerator) for e, c in comp.items()}
            for comp in req.f.components
        )
        comps = tuple(c if c else {(0,) * n: Fraction(1)} for c in comps)
        f = PolyMap(n, comps)
        for m in (1, 2):
            if p ** ((m + 1) * n) > req.ctx.naive_budget:
                continue
            t = count_fibers(f, m, req.ctx)
            assert t.total() == p ** (m * n)
            t_next = count_fibers(f, m + 1, req.ctx)
            mod = p**m
            coarse: dict = {}
            for key, c in t_next.counts.items():
                coarse_key = tuple(int(z) % mod for z in key)
                coarse[coarse_key] = coarse.get(coarse_key, 0) + c
            for key, c in t.counts.items():
                assert coarse.get(tuple(int(z) for z in key), 0) == p**n * c
            for key, c in coarse.items():
                assert t.counts.get(key, 0) * p**n == c


def test_count_fibers_with_denominators():
    ctx = PrimeContext(3)
    f = parse_polymap("1/3*x1", 1)
    t = count_fibers(f, 1, ctx)
    assert t.clear == 1
    # x/3 mod 3 Z_3 takes 9 distinct values in (1/3)Z/3Z, once each
    assert t.total() == 9
    assert all(c == 1 for _, c in t.sorted_items())
    assert t.count([Fraction(1, 3)]) == 1
    assert t.density([Fraction(1, 3)]) == Fraction(1, 3)


def test_fourier_check_examples():
    ctx = PrimeContext(3)
    f = parse_polymap("x1^2", 1)
    assert fourier_check(f, [Fraction(1, 3)], 1, ctx).is_zero()

    f2 = parse_polymap("x1^2; x2", 2)
    assert fourier_check(f2, [Fraction(1, 3), Fraction(2, 3)], 1, ctx).is_zero()

    with pytest.raises(PreconditionError):
        fourier_check(f, [Fraction(1, 9)], 1, ctx)


def test_fourier_check_randomized():
    rng = random.Random(23)
    for _ in range(30):
        req = make_random_instance(rng, max_level=2)
        m = max(req.level, 1)
        if (req.ctx.p ** (m + 2)) ** req.f.n > req.ctx.naive_budget:
            continue
        res = fourier_check(req.f, list(req.y), m, req.ctx)
        assert res.is_zero()


def test_stabilization_square_regular_value():
    ctx = PrimeContext(3)
    f = parse_polymap("x1^2", 1)
    rep = stabilization_probe(f, [1], (1, 4), ctx)
    assert rep.f_values == [Fraction(2)] * 4
    assert rep.stable and rep.stable_from == 1
    assert rep.preimage_count == 2
    assert rep.ranks == [1, 1]
    assert rep.full_rank


def test_stabilization_square_critical_value():
    ctx = PrimeContext(3)
    f = parse_polymap("x1^2", 1)
    rep = stabilization_probe(f, [0], (1, 4), ctx)
    # brute-force oracle: N_m(0) = #{x mod 3^m : x^2 = 0 mod 3^m}
    expected = []
    for m in range(1, 5):
        count = sum(1 for x in range(3**m) if (x * x) % 3**m == 0)
        expected.append(Fraction(count))
    assert rep.f_values == expected
    assert expected == [Fraction(3 ** (m // 2)) for m in range(1, 5)]
    assert not rep.stable
    assert not rep.full_rank  # the Jacobian vanishes at x = 0


def test_stabilization_identity():
    ctx = PrimeContext(5)
    f = parse_polymap("x1", 1)
    rep = stabilization_probe(f, [2], (1, 3), ctx)
    assert rep.f_values == [Fraction(1)] * 3
    assert rep.stable
    assert rep.full_rank


def test_density_csv_and_json():
    ctx = PrimeContext(3)
    f = parse_polymap("x1^2", 1)
    t = count_fibers(f, 1, ctx)
    buf = io.StringIO()
    t.write_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "z_1,N,F"
    assert lines[1] == "0,1,1"
    assert lines[2] == "1,2,2"
    d = t.to_json_dict()
    assert d["rows"][0] == {"z": ["0"], "N": 1, "F": "1"}


def test_density_column_matches_exact_fractions():
    # F = N * p**e with e < 0 (r < n), e = 0, e > 0 (r > n), and with B > 0
    ctx = PrimeContext(3)
    cases = (("x1^2+x2^2", 2, 2), ("x1*x2", 2, 1), ("x1; x1^2", 1, 2), ("1/3*x1^2+x2^3", 2, 1))
    for text, n, m in cases:
        for strategy in ("naive", "recursive"):
            t = count_fibers(parse_polymap(text, n), m, ctx, strategy=strategy)
            buf = io.StringIO()
            t.write_csv(buf)
            rows = list(csv.reader(io.StringIO(buf.getvalue())))[1:]
            expected = [
                [str(c) for c in key] + [str(count), str(t.density(key))]
                for key, count in t.sorted_items()
            ]
            assert rows == expected
            json_rows = t.to_json_dict()["rows"]
            assert [r["F"] for r in json_rows] == [row[-1] for row in expected]
