import random
import time
from fractions import Fraction
from math import comb

import pytest

from padicsums.errors import (
    MAX_DIGITS,
    BudgetExceededError,
    ParseError,
    SeriesCertificationError,
    SeriesFloorError,
)
from padicsums.padic import INFINITY
from padicsums.polymap import (
    MAX_TERMS,
    MAX_VARIABLES,
    BallTerm,
    PolyMap,
    RestrictedSeries,
    SchwartzBruhat,
    check_affine_independence,
    degree_data,
    infer_variable_count,
    parse_polymap,
    parse_polynomial,
    series_truncate,
    substitute_affine,
)


def test_parse_examples():
    f = parse_polymap("x1^2", 1)
    assert f.components == ({(2,): Fraction(1)},)

    f = parse_polymap("x1^2*x2; x2^3", 2)
    assert f.r == 2
    assert f.components[0] == {(2, 1): Fraction(1)}
    assert f.components[1] == {(0, 3): Fraction(1)}

    f = parse_polymap("x1 + 1/3", 1)
    assert f.components[0] == {(1,): Fraction(1), (0,): Fraction(1, 3)}


def test_parse_precedence_and_signs():
    p = parse_polynomial("x1 + 2*x1^2 - 3", 1)
    assert p == {(1,): Fraction(1), (2,): Fraction(2), (0,): Fraction(-3)}
    p = parse_polynomial("-x1 + (x1 + 1)^2", 1)
    assert p == {(2,): Fraction(1), (1,): Fraction(1), (0,): Fraction(1)}
    p = parse_polynomial("2/3*x1", 1)
    assert p == {(1,): Fraction(2, 3)}


def test_parse_errors():
    with pytest.raises(ParseError) as exc:
        parse_polynomial("x1 + *", 1)
    assert exc.value.position is not None

    with pytest.raises(ParseError, match="unknown variable"):
        parse_polynomial("x3", 2)

    with pytest.raises(ParseError, match="exponent"):
        parse_polynomial("x1^99999", 1)

    with pytest.raises(ParseError):
        parse_polynomial("x1 ^ x1", 1)

    with pytest.raises(ParseError):
        parse_polymap("x1;;x1", 1)

    with pytest.raises(ParseError):
        parse_polynomial("(x1", 1)


def test_term_cap():
    nine = "(" + "+".join(f"x{i}" for i in range(1, 10)) + ")"
    assert len(parse_polynomial(f"{nine}^4", 9)) == 495
    assert len(parse_polynomial(f"{nine}^4 + x10*{nine}^4", 10)) == 990
    for text in (f"{nine}^5", f"{nine}^4*{nine}", f"{nine}^4 + x10*{nine}^4 + x11*{nine}^4"):
        with pytest.raises(ParseError, match=f"more than {MAX_TERMS} terms"):
            parse_polynomial(text, 11)
    # coefficients are capped the same way: literals as read, products as they expand
    big = 10**MAX_DIGITS - 1
    assert parse_polynomial(f"{big}*x1 + 1/{big}", 1) == {(1,): big, (0,): Fraction(1, big)}
    assert parse_polynomial("(x1+1)^100", 1)[(50,)] == comb(100, 50)
    for text in (f"{big + 1}*x1", f"1/{big + 1}*x1", f"{big}*x1*10", f"x1^{'0' * MAX_DIGITS}1",
                 "(x1+1)^999", "(x1+1)^4096", "(1/3*x1+1)^999"):
        start = time.perf_counter()
        with pytest.raises(ParseError, match=f"more than {MAX_DIGITS} digits"):
            parse_polynomial(text, 1)
        assert time.perf_counter() - start < 1.0  # each took seconds before the cap


def test_infer_variable_count():
    assert infer_variable_count("x1^2*x2; x2^3") == 2
    assert infer_variable_count("7") == 1


def test_variable_index_cap():
    assert infer_variable_count("x1 + x100") == MAX_VARIABLES == 100
    for text in ("x1 + x101", "x1 + x99999999", "x1 + x" + "9" * 5000):
        with pytest.raises(ParseError, match=f"exceeds limit {MAX_VARIABLES} \\(at position 5\\)"):
            infer_variable_count(text)
    # leading zeros are read by value, however many there are
    padded = "x" + "0" * 5000 + "1"
    assert infer_variable_count(padded) == 1
    assert parse_polymap(padded, 1) == parse_polymap("x01", 1) == parse_polymap("x1", 1)
    with pytest.raises(ParseError, match=f"exceeds limit {MAX_VARIABLES} \\(at position 0\\)"):
        parse_polymap("x" + "9" * 5000, 1)


def test_variable_index_zero_is_rejected_where_it_stands():
    """Variables are numbered from x1: x0 and x00 are refused at their
    position, not read as a map in no variables; x01 stays x1."""
    zero = "variable index 0: variables are numbered from x1"
    for text, pos in (("x0", 0), ("x00", 0), ("x1 + x0^2", 5), ("x2*x" + "0" * 5000, 3)):
        with pytest.raises(ParseError, match=f"{zero} \\(at position {pos}\\)"):
            infer_variable_count(text)
        with pytest.raises(ParseError, match=f"{zero} \\(at position {pos}\\)"):
            parse_polymap(text, 2)
    assert infer_variable_count("x01 + x2") == 2


def test_degree_data_examples():
    f = parse_polymap("x1^2*x2; x2^3", 2)
    dd = degree_data(f, 3)
    assert dd.d_max == 3
    assert dd.per_variable == ((2, 1), (0, 3))

    g = parse_polymap("3*x1 + 9*x1^2 + 5", 1)
    assert degree_data(g, 3).e_orders == (1,)

    g = parse_polymap("1/3*x1", 1)
    assert degree_data(g, 3).e_orders == (-1,)

    const = parse_polymap("4", 1)
    assert degree_data(const, 3).e_orders == (INFINITY,)
    assert degree_data(const, 3).d_max == 0


def test_degree_data_permutation_invariance():
    f = parse_polymap("x1^2*x2; x2^3 + x1", 2)
    g = parse_polymap("x2^3 + x1; x1^2*x2", 2)
    df, dg = degree_data(f, 3), degree_data(g, 3)
    assert df.d_max == dg.d_max
    assert df.per_variable == (dg.per_variable[1], dg.per_variable[0])
    assert df.e_orders == (dg.e_orders[1], dg.e_orders[0])


def test_polymap_rejects_zero_coefficients():
    with pytest.raises(ValueError):
        PolyMap(1, ({(1,): Fraction(0)},))


def test_substitute_affine_examples():
    g = parse_polynomial("x1^2", 1)
    assert substitute_affine(g, (1,), Fraction(3), 1, 10) == {
        (0,): Fraction(1),
        (1,): Fraction(6),
        (2,): Fraction(9),
    }

    g = parse_polynomial("x1", 1)
    assert substitute_affine(g, (0,), Fraction(9), 1, 10) == {(1,): Fraction(9)}

    g = parse_polynomial("x1^2", 1)
    assert substitute_affine(g, (0,), Fraction(1), 1, 10) == g


def test_substitute_affine_counts_binomial_terms_first():
    """Expanding x1^3*x2 + x1 about (1, 1) builds 4 + 2 terms for x1, then
    2 for each of the four x2 monomials; a zero centre coordinate expands
    nothing and counts nothing."""
    g = parse_polynomial("x1^3*x2 + x1", 2)
    full = substitute_affine(g, (1, 1), Fraction(3), 2, 10**6)
    assert substitute_affine(g, (1, 1), Fraction(3), 2, 8) == full
    for budget, needed in ((7, 8), (5, 6)):
        message = f"^budget exceeded: {needed} binomial terms needed, budget is {budget}$"
        with pytest.raises(BudgetExceededError, match=message):
            substitute_affine(g, (1, 1), Fraction(3), 2, budget)
    assert substitute_affine(g, (0, 1), Fraction(3), 2, 2) == substitute_affine(g, (0, 1), Fraction(3), 2, 10**6)
    with pytest.raises(BudgetExceededError, match="^budget exceeded: 2 binomial terms needed, budget is 1$"):
        substitute_affine(g, (0, 1), Fraction(3), 2, 1)


def test_shift_substitute_composition():
    rng = random.Random(12)
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        n = rng.choice([1, 2])
        poly = {
            tuple(rng.randint(0, 2) for _ in range(n)): Fraction(rng.randint(-4, 4))
            for _ in range(rng.randint(1, 4))
        }
        poly = {k: v for k, v in poly.items() if v}
        if not poly:
            continue
        a = tuple(rng.randint(0, p - 1) for _ in range(n))
        a2 = tuple(rng.randint(0, p - 1) for _ in range(n))
        k1, k2 = rng.randint(0, 2), rng.randint(0, 2)
        h1 = substitute_affine(poly, a, Fraction(p) ** k1, n, 100)
        h2 = substitute_affine(h1, a2, Fraction(p) ** k2, n, 100)
        combined_center = tuple(ai + p**k1 * a2i for ai, a2i in zip(a, a2))
        direct = substitute_affine(poly, combined_center, Fraction(p) ** (k1 + k2), n, 100)
        assert h2 == direct


def test_check_affine_independence_examples():
    assert not check_affine_independence(parse_polymap("x1; x1+1", 1))
    assert check_affine_independence(parse_polymap("x1; x1^2", 1))
    assert check_affine_independence(parse_polymap("2*x1", 1))
    assert not check_affine_independence(parse_polymap("5", 1))


def test_series_truncate_examples():
    geometric = RestrictedSeries(
        1, lambda exp: Fraction(3 ** exp[0]), lambda d: d
    )
    assert series_truncate(geometric, 2, 3) == {
        (0,): Fraction(1),
        (1,): Fraction(3),
    }
    assert series_truncate(geometric, 1, 3) == {(0,): Fraction(1)}

    units = RestrictedSeries(1, lambda exp: Fraction(1), lambda d: 0)
    with pytest.raises(SeriesFloorError):
        series_truncate(units, 1, 3)


def test_series_truncations_agree_below_common_level():
    geometric = RestrictedSeries(1, lambda exp: Fraction(3 ** exp[0]), lambda d: d)
    t2 = series_truncate(geometric, 2, 3)
    t4 = series_truncate(geometric, 4, 3)
    for exp, c in t2.items():
        assert t4[exp] == c


def test_series_certification_enforced():
    lying = RestrictedSeries(1, lambda exp: Fraction(1), lambda d: d)
    with pytest.raises(SeriesCertificationError):
        series_truncate(lying, 2, 3)


def test_series_from_poly():
    poly = parse_polynomial("1 + 3*x1 + 9*x1^2", 1)
    s = RestrictedSeries.from_poly(1, poly, 3)
    assert series_truncate(s, 2, 3) == {(0,): Fraction(1), (1,): Fraction(3)}


def test_schwartz_bruhat_validation():
    phi = SchwartzBruhat.trivial(2)
    assert phi.terms == (BallTerm((Fraction(0), Fraction(0)), 0, Fraction(1)),)
    assert phi.supported_in_unit_polydisc(3)

    ball = SchwartzBruhat.ball([Fraction(1, 3)], 1, Fraction(2))
    assert not ball.supported_in_unit_polydisc(3)
    assert ball.terms == (BallTerm((Fraction(1, 3),), 1, Fraction(2)),)

    with pytest.raises(ValueError):
        SchwartzBruhat(1, (next(iter(SchwartzBruhat.ball([0], 0, 0).terms)),))

