import cmath
import json
import math
import random
import time
from fractions import Fraction

import pytest

from padicsums.padic import (
    INFINITY,
    PRIMALITY_BOUND,
    PhaseHistogram,
    PrimeContext,
    clearing_exponent,
    is_prime,
    power_exceeds,
    residue,
    valuation,
)


def test_prime_context_validation():
    PrimeContext(2)
    PrimeContext(97, naive_budget=10)
    with pytest.raises(ValueError):
        PrimeContext(6)
    with pytest.raises(ValueError):
        PrimeContext(1)
    with pytest.raises(ValueError):
        PrimeContext(3, naive_budget=0)


def test_is_prime_is_deterministic_miller_rabin():
    limit = 10**5
    sieve = [True] * limit  # trial division by every prime, all at once
    sieve[0] = sieve[1] = False
    for f in range(2, math.isqrt(limit) + 1):
        if sieve[f]:
            sieve[f * f :: f] = [False] * len(range(f * f, limit, f))
    assert [is_prime(n) for n in range(limit)] == sieve
    # Carmichael numbers, a strong pseudoprime to the bases 2, 3, 5 and 7,
    # and 2**67 - 1 = 193707721 * 761838257287
    for n in (561, 1105, 1729, 3215031751, 2**67 - 1):
        assert not is_prime(n)
    start = time.perf_counter()
    assert is_prime(10**16 + 61) and is_prime(2**61 - 1)
    PrimeContext(10**16 + 61)
    assert time.perf_counter() - start < 0.1  # trial division took seconds
    with pytest.raises(ValueError, match="decided only below"):
        PrimeContext(PRIMALITY_BOUND)


def test_valuation_examples():
    assert valuation(18, 3) == 2
    assert valuation(Fraction(5, 27), 3) == -3
    assert valuation(0, 3) == INFINITY


def test_valuation_multiplicative_and_ultrametric():
    rng = random.Random(1)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7])
        x = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        y = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        if x and y:
            assert valuation(x * y, p) == valuation(x, p) + valuation(y, p)
        vs = valuation(x + y, p)
        lo = min(valuation(x, p), valuation(y, p))
        assert vs >= lo
        if x and y and valuation(x, p) != valuation(y, p):
            assert vs == lo


def test_valuation_matches_one_division_per_factor():
    """The valuation by repeated squaring agrees with dividing out p one
    factor at a time."""

    def by_single_factors(n, p):
        n, v = abs(n), 0
        while n % p == 0:
            n, v = n // p, v + 1
        return v

    rng = random.Random(2)
    for _ in range(2000):
        p = rng.choice([2, 3, 5, 7])
        n = rng.choice([1, -1]) * rng.randint(1, 10**12) * p ** rng.randint(0, 300)
        assert valuation(n, p) == by_single_factors(n, p), (n, p)
        assert valuation(Fraction(1, n), p) == -by_single_factors(n, p)


def test_valuation_of_a_long_power_is_fast():
    """One division per factor of p took ~4 s on 7 * 3**100000."""
    x = 7 * 3**100000
    start = time.perf_counter()
    assert valuation(x, 3) == 100000
    assert clearing_exponent([Fraction(2, x)], 3) == 100000
    assert time.perf_counter() - start < 0.2


def fractional_part(x, p):
    """(level, class) of x modulo Z_p: x = class / p**level mod Z_p."""
    x = Fraction(x)
    level = clearing_exponent([x], p)
    return level, residue(x, p, level, p**level)


def test_fractional_part_examples():
    assert fractional_part(Fraction(7, 9), 3) == (2, 7)
    assert fractional_part(5, 3) == (0, 0)
    assert fractional_part(Fraction(1, 2), 3) == (0, 0)
    assert clearing_exponent([Fraction(1, 2), 5, Fraction(7, 9), Fraction(1, 3)], 3) == 2
    assert clearing_exponent([], 3) == 0
    # a level above the clearing exponent scales the class by p
    assert residue(Fraction(7, 9), 3, 3, 27) == 21
    with pytest.raises(ValueError, match="valuation below -1"):
        residue(Fraction(7, 9), 3, 1, 3)


def test_fractional_part_translation_invariance():
    rng = random.Random(2)
    for _ in range(100):
        p = rng.choice([2, 3, 5])
        x = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
        k = rng.randint(-5, 5)
        assert fractional_part(x, p) == fractional_part(x + k, p)


def test_fractional_part_canonical():
    assert fractional_part(Fraction(3, 9), 3) == (1, 1)  # 1/3 in disguise
    level, u = fractional_part(Fraction(1, 18), 3)  # denominator 2 * 3^2
    assert level == 2
    assert u % 3 != 0
    # 1/18 = u/9 mod Z_3 with 2u = 1 mod 9, u = 5
    assert u == 5


def test_power_exceeds_decides_without_building_large_powers():
    for p in (2, 3, 5, 7, 97):
        for e in range(0, 40):
            for bound in (1, 2, 9, 10, 1000, p**e - 1, p**e, p**e + 1, 10**50):
                if bound >= 1:
                    assert power_exceeds(p, e, bound) == (p**e > bound), (p, e, bound)
    start = time.perf_counter()
    assert power_exceeds(3, 10**12, 10)
    assert not power_exceeds(3, 0, 1)
    assert time.perf_counter() - start < 0.1


# ---------------------------------------------------------------- histograms


def test_valuation_of_pure_powers_and_their_multiples():
    """p**k * w for a unit w (so p**k itself too) and for a w that p
    divides, against dividing out p one factor at a time."""

    def by_single_factors(n, p):
        n, v = abs(n), 0
        while n % p == 0:
            n, v = n // p, v + 1
        return v

    rng = random.Random(7)
    for p in (2, 3, 5, 7):
        for k in [0, 1, 2, 63, 64, 65, 10**4] + [rng.randint(0, 2000) for _ in range(5)]:
            unit = rng.choice([1, -1, p - 1 or 1, rng.randint(1, 10**9) * p + 1])
            for w in (unit, p * unit, p**3 * unit, (p + 1) ** 5 * p):
                n = p**k * w
                assert valuation(n, p) == by_single_factors(n, p), (p, k, w)


def test_valuation_of_a_very_long_pure_power_is_fast():
    """A level's denominator 5**400000 took ~1.4 s by squaring divisions."""
    y = Fraction(2, 5**400_000)
    start = time.perf_counter()
    assert clearing_exponent([y], 5) == 400_000
    assert residue(y, 5, 400_000, 5**400_001) == 2
    assert time.perf_counter() - start < 0.5


def hist(p, level, counts, scale=1):
    return PhaseHistogram(p, level, dict(counts), Fraction(scale))


def one_class(p, x, weight=1):
    """weight * psi(x) as a histogram with a single class."""
    level, u = fractional_part(x, p)
    return hist(p, level, {u: weight})


def test_accumulate_examples():
    h1 = hist(3, 1, {}) + one_class(3, Fraction(1, 3))
    assert h1.counts == {1: 1} and h1.level == 1

    h2 = hist(3, 1, {1: 1}) + one_class(3, 0)
    assert h2.counts == {0: 1, 1: 1} and h2.level == 1

    h3 = hist(3, 0, {0: 1}) + one_class(3, Fraction(1, 9))
    assert h3.level == 2 and h3.counts == {0: 1, 1: 1}


def test_accumulate_commutes():
    rng = random.Random(3)
    for _ in range(50):
        p = rng.choice([2, 3, 5])
        phases = [
            (Fraction(rng.randrange(p**3), p ** rng.randint(0, 3)), rng.randint(-3, 3))
            for _ in range(6)
        ]
        h1 = PhaseHistogram.zero(p)
        for x, w in phases:
            h1 = h1 + one_class(p, x, w)
        shuffled = phases[:]
        rng.shuffle(shuffled)
        h2 = PhaseHistogram.zero(p)
        for x, w in shuffled:
            h2 = one_class(p, x, w) + h2
        assert h1.reduced() == h2.reduced()


def test_reduce_examples():
    # a full root-of-unity orbit sums to zero
    assert hist(3, 1, {0: 1, 1: 1, 2: 1}).reduced() == PhaseHistogram.zero(3)
    # already reduced input is unchanged
    h = hist(3, 1, {0: 1, 1: 2}, Fraction(1, 3))
    assert h.reduced() == h
    # {0, 3, 6} at level 2 is a full orbit of ninth roots cubed
    assert hist(3, 2, {0: 1, 3: 1, 6: 1}).reduced() == PhaseHistogram.zero(3)


def test_reduce_idempotent_and_value_preserving():
    rng = random.Random(4)
    for _ in range(80):
        p = rng.choice([2, 3, 5])
        level = rng.randint(0, 3)
        counts = {
            rng.randrange(p**level): rng.randint(-4, 4) for _ in range(rng.randint(1, 6))
        }
        h = hist(p, level, counts, Fraction(rng.randint(1, 5), rng.randint(1, 5)))
        r = h.reduced()
        assert r.reduced() == r
        m0, e0 = h.magnitude()
        m1, e1 = r.magnitude()
        assert abs(m0 - m1) <= e0 + e1 + 1e-12
        # reduction preserves the represented value exactly
        assert (h + r.scaled(-1)).is_zero()


def test_reduce_spec_invariant_top_orbit_class_empty():
    rng = random.Random(5)
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        level = rng.randint(1, 3)
        counts = {
            rng.randrange(p**level): rng.randint(-4, 4) for _ in range(rng.randint(1, 6))
        }
        r = hist(p, level, counts).reduced()
        if not r.counts or r.level == 0:
            continue
        period = p ** (r.level - 1)
        for j in range(period):
            orbit = [r.counts.get(j + t * period, 0) for t in range(p)]
            assert 0 in orbit


def test_is_zero():
    assert hist(3, 1, {0: 1, 1: 1, 2: 1}).is_zero()
    assert not hist(3, 0, {0: 1}).is_zero()
    assert hist(3, 2, {4: 17}, scale=0).is_zero()


def test_zero_histograms_have_magnitude_within_error_bound():
    h = hist(3, 1, {0: 1, 1: 1, 2: 1})  # unreduced representation of 0
    mag, err = h.magnitude()
    assert h.is_zero()
    assert mag <= err


def test_reduce_normalizes_out_of_range_classes():
    # class 4 at level 1 is class 1; such keys appear only in hand-built data
    h = hist(3, 1, {4: 1})
    assert h.reduced() == hist(3, 1, {1: 1})


def test_cross_level_rational_values_reduce_identically():
    # -1 built as zeta + zeta^2 at level 1 vs directly at level 0
    a = hist(3, 1, {1: 1, 2: 1})
    b = hist(3, 0, {0: -1})
    assert a.reduced() == b.reduced()


def test_magnitude_examples():
    h = hist(3, 1, {0: 1, 1: 2}, Fraction(1, 3))
    mag, err = h.magnitude()
    # oracle: direct complex evaluation of the three summands
    oracle = abs(sum(cmath.exp(2j * math.pi * (x * x % 3) / 3) for x in range(3))) / 3
    assert abs(mag - oracle) <= err + 1e-15
    assert abs(mag - 3 ** -0.5) < 1e-12

    assert PhaseHistogram.zero(3).magnitude() == (0.0, 0.0)

    mag, _ = hist(2, 0, {0: 4}, Fraction(1, 4)).magnitude()
    assert mag == 1.0


def test_add_merges_levels_and_scales():
    a = hist(3, 1, {1: 1}, Fraction(1, 3))
    b = hist(3, 2, {1: 1}, Fraction(1, 9))
    s = a + b
    assert s.level == 2
    # value check: s = a + b exactly
    assert s.reduced() == (b + a).reduced()
    assert (s + a.scaled(-1) + b.scaled(-1)).is_zero()


def test_add_zero_identity():
    z = PhaseHistogram.zero(5)
    h = hist(5, 1, {2: 3}, Fraction(2, 5))
    assert (z + h) == h
    assert (h + z) == h


def test_rotate_and_conjugate():
    h = hist(3, 1, {0: 1, 1: 2}, Fraction(1, 3))
    r = h.rotated(Fraction(1, 3))
    assert r.counts == {1: 1, 2: 2}
    assert h.rotated(Fraction(4, 3)).reduced() == r.reduced()  # psi(1 + x) = psi(x)
    mag_h, _ = h.magnitude()
    mag_r, _ = r.magnitude()
    assert abs(mag_h - mag_r) < 1e-12
    c = h.conjugate()
    mag_c, _ = c.magnitude()
    assert abs(mag_h - mag_c) < 1e-12


def _complex_value(h):
    return float(h.scale) * sum(c * cmath.exp(2j * math.pi * k / h.p**h.level) for k, c in h.counts.items())


def test_product_multiplies_values_across_levels():
    rng = random.Random(8)
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        a, b, c = (
            hist(p, level, {rng.randrange(p**level): rng.randint(-3, 3) for _ in range(4)},
                 Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
            for level in (rng.randint(0, 3) for _ in range(3))
        )
        product = a * b
        assert product.level == max(a.level, b.level)
        assert abs(_complex_value(product) - _complex_value(a) * _complex_value(b)) < 1e-9
        assert (a * (b + c)).reduced() == (a * b + a * c).reduced()
        assert (b * a).reduced() == product.reduced()
        x = Fraction(rng.randrange(p**3), p ** rng.randint(0, 3))
        assert (a * one_class(p, x)).reduced() == a.rotated(x).reduced()


def test_abs_square_is_rational_for_gauss_like_values():
    h = hist(3, 1, {0: 1, 1: 2}, Fraction(1, 3))  # magnitude 3^{-1/2}
    sq = h.abs_square().exact_rational()
    assert sq == Fraction(1, 3)


def test_exact_rational():
    assert hist(3, 1, {0: 2, 1: 1, 2: 1}).exact_rational() == 1
    assert hist(3, 1, {1: 1}).exact_rational() is None
    assert PhaseHistogram.zero(7).exact_rational() == 0


def test_json_round_trip():
    h = hist(5, 2, {0: 1, 7: -2}, Fraction(-3, 25))
    again = PhaseHistogram.from_json_dict(json.loads(json.dumps(h.to_json_dict())))
    assert again == h
    d = h.to_json_dict()
    assert set(d) == {"p", "M", "scale", "counts"}


def test_p2_reduction():
    # 1 + zeta_2 = 0
    assert hist(2, 1, {0: 1, 1: 1}).is_zero()
    h = hist(2, 2, {1: 1, 3: 1}).reduced()  # i + (-i) = 0
    assert h == PhaseHistogram.zero(2)
