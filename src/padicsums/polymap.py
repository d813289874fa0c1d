"""Sparse multivariate polynomials over Q and polynomial-map metadata.

A polynomial in n variables is a dict mapping exponent tuples (length n,
one entry per variable) to nonzero Fraction coefficients; {} is zero.
Exact rational coefficients keep every downstream congruence computation
faithful; modular integer images (``IntPoly``, int coefficients) are
produced on demand.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    MAX_DIGITS,
    BudgetExceededError,
    ParseError,
    SeriesCertificationError,
    SeriesFloorError,
)
from .padic import INFINITY, Rational, Value, clearing_exponent, residue, valuation

Exponent = tuple[int, ...]
Poly = dict[Exponent, Fraction]
IntPoly = dict[Exponent, int]

#: Largest exponent accepted by the parser (guards expansion blow-up).
MAX_EXPONENT = 4096

#: Deepest parenthesis nesting accepted by the parser (guards its recursion).
MAX_NESTING = 100

#: Most terms a polynomial built by the parser may have; products and powers
#: are checked while they expand (guards term blow-up).  Their coefficients,
#: and every integer literal, are held to MAX_DIGITS digits (guards coefficient
#: blow-up).
MAX_TERMS = 1000

#: Largest variable index accepted (guards the exponent tuples' length).
MAX_VARIABLES = 100

#: Degree bound up to which a series valuation floor is searched before the
#: series is refused as not certified restricted.
SERIES_DEGREE_CAP = 512


# ----------------------------------------------------------- polynomial algebra


def poly_const(n: int, c: Rational) -> Poly:
    c = Fraction(c)
    return {} if c == 0 else {(0,) * n: c}


def poly_var(n: int, i: int) -> Poly:
    exp = [0] * n
    exp[i] = 1
    return {tuple(exp): Fraction(1)}


def poly_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for exp, c in b.items():
        nc = out.get(exp, Fraction(0)) + c
        if nc:
            out[exp] = nc
        else:
            out.pop(exp, None)
    return out


def poly_scale(a: Poly, c: Rational) -> Poly:
    c = Fraction(c)
    if c == 0:
        return {}
    return {exp: coeff * c for exp, coeff in a.items()}


def _check_terms(a: Poly) -> None:
    if len(a) > MAX_TERMS:
        raise ParseError(f"polynomial has more than {MAX_TERMS} terms")


def poly_mul(a: Poly, b: Poly) -> Poly:
    """a * b; ParseError as soon as the partial product passes MAX_TERMS terms
    or a coefficient passes MAX_DIGITS digits."""
    bound = 10**MAX_DIGITS
    out: Poly = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            exp = tuple(x + y for x, y in zip(e1, e2))
            nc = out.get(exp, Fraction(0)) + c1 * c2
            if nc:
                if abs(nc.numerator) >= bound or nc.denominator >= bound:
                    raise ParseError(f"coefficient has more than {MAX_DIGITS} digits")
                out[exp] = nc
            else:
                out.pop(exp, None)
        _check_terms(out)
    return out


def poly_pow(a: Poly, e: int, n: int) -> Poly:
    result = poly_const(n, 1)
    base = a
    while e > 0:
        if e & 1:
            result = poly_mul(result, base)
        base = poly_mul(base, base) if e > 1 else base
        e >>= 1
    return result


def poly_eval(a: Poly, point: Sequence[Rational]) -> Fraction:
    xs = [Fraction(x) for x in point]
    total = Fraction(0)
    for exp, c in a.items():
        term = c
        for x, e in zip(xs, exp):
            if e:
                term *= x**e
        total += term
    return total


def partial_derivative(a: Poly, i: int) -> Poly:
    out: Poly = {}
    for exp, c in a.items():
        e = exp[i]
        if e == 0:
            continue
        nexp = exp[:i] + (e - 1,) + exp[i + 1 :]
        nc = out.get(nexp, Fraction(0)) + c * e
        if nc:
            out[nexp] = nc
        else:
            out.pop(nexp, None)
    return out


def substitute_affine(
    a: Poly, center: Sequence[Rational], step: Fraction, n: int, budget: int
) -> Poly:
    """Full expansion of a(center + step * t) as a polynomial in t.

    Each variable with a nonzero centre coordinate first counts the binomial
    terms its expansion will build, e + 1 for each monomial of degree e >= 1
    in it, and raises BudgetExceededError before building any when they pass
    ``budget``.
    """
    out = a
    for i in range(n):
        c = Fraction(center[i])
        if c:
            terms = sum(exp[i] + 1 for exp in out if exp[i])
            if terms > budget:
                raise BudgetExceededError(terms, budget, what="binomial terms")
        out = _substitute_one(out, i, c, step)
    return out


def _substitute_one(a: Poly, i: int, c: Fraction, q: Fraction) -> Poly:
    out: Poly = {}
    for exp, coeff in a.items():
        e = exp[i]
        if e == 0:
            nc = out.get(exp, Fraction(0)) + coeff
            if nc:
                out[exp] = nc
            else:
                out.pop(exp, None)
            continue
        # (c + q*t)^e expanded by the binomial theorem; only q**e * t**e when c = 0.
        # comb(e, j) is built along the row, one product and quotient a term.
        binomial = 1
        for j in range(e if c == 0 else 0, e + 1):
            term = coeff * binomial * c ** (e - j) * q**j
            binomial = binomial * (e - j) // (j + 1)
            if not term:
                continue
            nexp = exp[:i] + (j,) + exp[i + 1 :]
            nc = out.get(nexp, Fraction(0)) + term
            if nc:
                out[nexp] = nc
            else:
                out.pop(nexp, None)
    return out


# ------------------------------------------------------------- integer images


def coefficient_floor(polys: Iterable[Poly], p: int) -> int:
    """B = max(0, -min coefficient valuation) across the given polynomials.

    p**B clears every denominator p-power, so arithmetic mod p**(m+B)
    determines all values mod p**m Z_p.
    """
    return clearing_exponent((c for a in polys for c in a.values()), p)


def poly_mod_int(a: Poly, p: int, clear: int, mod: int) -> IntPoly:
    """Integer image of p**clear * a with coefficients reduced mod ``mod``.

    Requires every coefficient of p**clear * a to lie in Z_p (ValueError
    otherwise).  Zero coefficients dropped.
    """
    images = ((exp, residue(c, p, clear, mod)) for exp, c in a.items())
    return {exp: v for exp, v in images if v}


def integer_images(polys: Sequence[Poly], p: int, level: int) -> tuple[int, int, list[IntPoly]]:
    """(B, p**(level+B), the images of p**B * g mod p**(level+B)), with
    B = ``coefficient_floor(polys, p)``: integer polynomials whose values
    determine every g(x) mod p**level Z_p for x in Z_p^n."""
    clear = coefficient_floor(polys, p)
    mod = p ** (level + clear)
    return clear, mod, [poly_mod_int(g, p, clear, mod) for g in polys]


# ------------------------------------------------------------------ matrix rank


def matrix_rank(rows: Sequence[Sequence[Rational]]) -> int:
    """Exact rank of a rational matrix by Gaussian elimination over Q."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][col]:
                factor = m[i][col] / m[rank][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


# ----------------------------------------------------------------------- types


class PolyMap(Value):
    """An r-tuple of polynomials Q^n -> Q, the map under study."""

    __slots__ = ("n", "components")

    def __init__(self, n: int, components: tuple[Poly, ...]):
        if n < 1:
            raise ValueError("need at least one variable")
        if not components:
            raise ValueError("need at least one component")
        for comp in components:
            for exp, c in comp.items():
                if len(exp) != n:
                    raise ValueError("exponent arity does not match variable count")
                if c == 0:
                    raise ValueError("zero coefficients must not be stored")
        self.n = n
        self.components = components

    @property
    def r(self) -> int:
        return len(self.components)


class DegreeData:
    """Per-variable degrees d[i][j], their max d(f), and the coefficient
    orders e(f_i) = min valuation over coefficients of f_i - f_i(0)."""

    __slots__ = ("per_variable", "d_max", "e_orders")

    def __init__(self, per_variable: tuple[tuple[int, ...], ...], d_max: int,
                 e_orders: tuple[int | float, ...]):
        self.per_variable = per_variable
        self.d_max = d_max
        self.e_orders = e_orders


def degree_data(f: PolyMap, p: int) -> DegreeData:
    per_var = []
    e_orders = []
    for comp in f.components:
        degs = tuple(max((exp[j] for exp in comp), default=0) for j in range(f.n))
        per_var.append(degs)
        nonconst = [c for exp, c in comp.items() if any(exp)]
        e_orders.append(min((valuation(c, p) for c in nonconst), default=INFINITY))
    d_max = max((d for degs in per_var for d in degs), default=0)
    return DegreeData(tuple(per_var), d_max, tuple(e_orders))


def check_affine_independence(f: PolyMap) -> bool:
    """True iff 1, f_1, ..., f_r are linearly independent over Q.

    Rational coefficients make independence over Q and over Q_p equivalent,
    so a rank computation on the coefficient matrix decides it exactly.
    """
    monomials = {(0,) * f.n}
    for comp in f.components:
        monomials.update(comp)
    cols = sorted(monomials)
    rows: list[list[Fraction]] = [
        [Fraction(1) if not any(c) else Fraction(0) for c in cols]
    ]
    for comp in f.components:
        rows.append([comp.get(c, Fraction(0)) for c in cols])
    return matrix_rank(rows) == f.r + 1


def jacobian(f: PolyMap) -> tuple[tuple[Poly, ...], ...]:
    return tuple(
        tuple(partial_derivative(comp, j) for j in range(f.n)) for comp in f.components
    )


# ---------------------------------------------------------------------- parser

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|(x\d+)|([+\-*^()/]))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", bad_at)
        if m.group(1):
            tokens.append(("int", m.group(1), m.start(1)))
        elif m.group(2):
            tokens.append(("var", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive descent over
    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' nat)*
    base   := nat ['/' nat] | var | '(' expr ')'
    """

    def __init__(self, text: str, n: int):
        self.tokens = _tokenize(text)
        self.n = n
        self.i = 0
        self.depth = 0
        self.length = len(text)

    def _peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, self.length)

    def _next(self):
        tok = self._peek()
        self.i += 1
        return tok

    def _expect_op(self, op: str):
        kind, val, pos = self._next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)

    def parse(self) -> Poly:
        poly = self.expr()
        kind, val, pos = self._peek()
        if kind is not None:
            raise ParseError(f"unexpected {val!r}", pos)
        return poly

    def expr(self) -> Poly:
        kind, val, _ = self._peek()
        sign = 1
        if kind == "op" and val in "+-":
            self._next()
            sign = -1 if val == "-" else 1
        poly = poly_scale(self.term(), sign)
        while True:
            kind, val, _ = self._peek()
            if kind == "op" and val in "+-":
                self._next()
                rhs = self.term()
                poly = poly_add(poly, poly_scale(rhs, -1 if val == "-" else 1))
                _check_terms(poly)
            else:
                return poly

    def term(self) -> Poly:
        poly = self.factor()
        while True:
            kind, val, _ = self._peek()
            if kind == "op" and val == "*":
                self._next()
                poly = poly_mul(poly, self.factor())
            else:
                return poly

    def factor(self) -> Poly:
        poly = self.base()
        while True:
            kind, val, _ = self._peek()
            if kind == "op" and val == "^":
                self._next()
                kind, val, pos = self._next()
                if kind != "int":
                    raise ParseError("expected integer exponent", pos)
                e = self._int(val, pos)
                if e > MAX_EXPONENT:
                    raise ParseError(f"exponent {e} exceeds limit {MAX_EXPONENT}", pos)
                poly = poly_pow(poly, e, self.n)
            else:
                return poly

    def _int(self, val: str, pos: int) -> int:
        if len(val) > MAX_DIGITS:
            raise ParseError(f"integer has more than {MAX_DIGITS} digits", pos)
        return int(val)

    def base(self) -> Poly:
        kind, val, pos = self._next()
        if kind == "int":
            num = self._int(val, pos)
            kind2, val2, _ = self._peek()
            if kind2 == "op" and val2 == "/":
                self._next()
                kind3, val3, pos3 = self._next()
                if kind3 != "int":
                    raise ParseError("expected integer denominator", pos3)
                den = self._int(val3, pos3)
                if den == 0:
                    raise ParseError("zero denominator", pos3)
                return poly_const(self.n, Fraction(num, den))
            return poly_const(self.n, num)
        if kind == "var":
            idx = _variable_index(val[1:], pos)
            if not 1 <= idx <= self.n:
                raise ParseError(f"unknown variable {val!r} (have x1..x{self.n})", pos)
            return poly_var(self.n, idx - 1)
        if kind == "op" and val == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            self.depth += 1
            poly = self.expr()
            self._expect_op(")")
            self.depth -= 1
            return poly
        raise ParseError(f"unexpected {'end of input' if kind is None else repr(val)}", pos)


def parse_polynomial(text: str, n: int) -> Poly:
    return _Parser(text, n).parse()


def parse_polymap(text: str, n: int) -> PolyMap:
    """Parse a semicolon-separated list of polynomial expressions in x1..xn."""
    parts = text.split(";")
    comps = []
    for part in parts:
        if not part.strip():
            raise ParseError("empty component in polynomial map")
        comps.append(parse_polynomial(part, n))
    return PolyMap(n, tuple(comps))


def _variable_index(digits: str, pos: int) -> int:
    """The index a variable's digits name, leading zeros ignored (x01 is x1);
    ParseError for index 0 and past MAX_VARIABLES."""
    digits = digits.lstrip("0")
    if not digits:
        raise ParseError("variable index 0: variables are numbered from x1", pos)
    # compare lengths first: int() refuses thousands of digits
    if len(digits) > len(str(MAX_VARIABLES)) or int(digits) > MAX_VARIABLES:
        raise ParseError(f"variable index exceeds limit {MAX_VARIABLES}", pos)
    return int(digits)


def infer_variable_count(text: str) -> int:
    """Largest variable index mentioned; 1 if none (constant map).  An index
    past MAX_VARIABLES is a ParseError."""
    indices = [_variable_index(m.group(1), m.start()) for m in re.finditer(r"x(\d+)", text)]
    return max(indices, default=1)


# ------------------------------------------------------------- series and phi


class RestrictedSeries:
    """A power series on the unit polydisc given by a coefficient oracle.

    ``valuation_floor(d)`` must be a nondecreasing certified lower bound on
    the valuation of every degree-d coefficient; it must tend to infinity for
    the series to converge on Z_p^n.  The floor is re-checked on every
    coefficient the oracle emits.
    """

    __slots__ = ("n", "coefficient", "valuation_floor")

    def __init__(self, n: int, coefficient: Callable[[Exponent], Rational],
                 valuation_floor: Callable[[int], int | float]):
        self.n = n
        self.coefficient = coefficient
        self.valuation_floor = valuation_floor

    @classmethod
    def from_poly(cls, n: int, poly: Poly, p: int) -> "RestrictedSeries":
        degrees = {sum(exp): None for exp in poly}
        floor_by_degree = {
            d: min(valuation(c, p) for exp, c in poly.items() if sum(exp) == d)
            for d in degrees
        }
        deg = max((sum(exp) for exp in poly), default=0)

        def coeff(exp: Exponent) -> Fraction:
            return poly.get(exp, Fraction(0))

        def floor(d: int) -> int | float:
            if d > deg:
                return INFINITY
            return min(
                (v for dd, v in floor_by_degree.items() if dd >= d), default=INFINITY
            )

        return cls(n, coeff, floor)


def _exponents_of_degree(d: int, n: int) -> Iterator[Exponent]:
    if n == 1:
        yield (d,)
        return
    for first in range(d, -1, -1):
        for rest in _exponents_of_degree(d - first, n - 1):
            yield (first,) + rest


def series_truncate(s: RestrictedSeries, m: int, p: int) -> Poly:
    """Polynomial of all series terms with coefficient valuation < m.

    For x in Z_p^n the discarded tail takes values in p**m Z_p, so every
    computation at level <= m is unchanged.  Refuses when the declared floor
    never certifies level m.
    """
    cutoff = None
    for d in range(SERIES_DEGREE_CAP + 1):
        if s.valuation_floor(d) >= m:
            cutoff = d
            break
    if cutoff is None:
        raise SeriesFloorError(
            f"valuation floor never reaches {m} below degree {SERIES_DEGREE_CAP}; "
            "series is not certified restricted"
        )
    out: Poly = {}
    for d in range(cutoff):
        floor_d = s.valuation_floor(d)
        for exp in _exponents_of_degree(d, s.n):
            c = Fraction(s.coefficient(exp))
            if c == 0:
                continue
            if valuation(c, p) < floor_d:
                raise SeriesCertificationError(
                    f"coefficient at {exp} has valuation {valuation(c, p)} "
                    f"below declared floor {floor_d}"
                )
            if valuation(c, p) < m:
                out[exp] = c
    return out


class BallTerm(Value):
    """weight times the indicator of center + p**k Z_p^n."""

    __slots__ = ("center", "k", "weight")

    def __init__(self, center: tuple[Fraction, ...], k: int, weight: Fraction):
        self.center = center
        self.k = k
        self.weight = weight


class SchwartzBruhat:
    """A finite rational combination of ball indicators (locally constant,
    compactly supported).  Balls may overlap; semantics are additive."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: tuple[BallTerm, ...]):
        for t in terms:
            if len(t.center) != n:
                raise ValueError("ball center arity does not match variable count")
            if t.weight == 0:
                raise ValueError("ball weights must be nonzero")
        self.n = n
        self.terms = terms

    @classmethod
    def trivial(cls, n: int) -> "SchwartzBruhat":
        """The indicator of the unit polydisc Z_p^n."""
        return cls(n, (BallTerm((Fraction(0),) * n, 0, Fraction(1)),))

    @classmethod
    def ball(cls, center: Sequence[Rational], k: int, weight: Rational = 1) -> "SchwartzBruhat":
        c = tuple(Fraction(x) for x in center)
        return cls(len(c), (BallTerm(c, k, Fraction(weight)),))

    def supported_in_unit_polydisc(self, p: int) -> bool:
        return all(
            t.k >= 0 and all(valuation(c, p) >= 0 for c in t.center) for t in self.terms
        )

    def to_json_list(self) -> list:
        return [
            {"center": [str(c) for c in t.center], "k": t.k, "weight": str(t.weight)}
            for t in self.terms
        ]

    @classmethod
    def from_json_list(cls, data: list, n: int) -> "SchwartzBruhat":
        terms = tuple(
            BallTerm(
                tuple(Fraction(c) for c in d["center"]),
                int(d["k"]),
                Fraction(d["weight"]),
            )
            for d in data
        )
        if not terms:
            raise ValueError("phi needs at least one ball term")
        return cls(n, terms)
