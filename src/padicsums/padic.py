"""Exact p-adic scalars and cyclotomic phase histograms.

Oscillatory sums over residue rings take values of the form

    scale * sum_k counts[k] * zeta**k,      zeta = exp(2*pi*i / p**M),

with integer counts and a rational scale.  ``PhaseHistogram`` carries such
values exactly, so equality and zero tests are independent of summation
order and of how the value was produced.  Floating point enters only in
``PhaseHistogram.magnitude``.

The canonical form produced by ``reduced`` uses the Z-basis
``{zeta**k : 0 <= k < phi(p**M)}`` of the ring of integers: every class
``k >= phi(p**M)`` is eliminated through the relation
``sum_{t<p} zeta**(j + t*p**(M-1)) = 0``, the level is dropped while every
remaining class index is divisible by p, and the integer content of the
counts is folded into the scale.  Two histograms represent the same value
iff their reduced forms are identical, which is what the cross-evaluator
tests rely on.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Iterable

INFINITY = math.inf

#: Default cap on the number of residue tuples a brute-force enumeration may
#: visit.  Overridable per context and via the CLI.
DEFAULT_NAIVE_BUDGET = 1_000_000

#: Default slack of ``decay``'s exponent consistency verdict.
DEFAULT_EPSILON = 0.1

#: Constant in the reported absolute error bound of ``magnitude``:
#: err <= |scale| * sum|counts| * MAGNITUDE_ERROR_CONSTANT * machine epsilon.
#: Covers argument reduction, cos/sin rounding and the final hypot.
MAGNITUDE_ERROR_CONSTANT = 8.0

Rational = Fraction | int


#: ``is_prime`` decides every n below this bound: Miller-Rabin on the prime
#: bases up to 41 has no strong pseudoprime there (Sorenson-Webster 2015).
PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test; ValueError for n >= PRIMALITY_BOUND."""
    if n >= PRIMALITY_BOUND:
        raise ValueError(f"primality is decided only below {PRIMALITY_BOUND}")
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for a in bases:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _int_valuation(n: int, p: int) -> int:
    """Exponent of p in a nonzero integer: p, p**2, p**4, ... are divided
    out while they divide, then the smaller squares again, one binary digit
    of the exponent each, so it takes O(log v) divisions, not v.  A pure
    power of p, such as a level's denominator, is answered first without
    dividing: the only p**k of its bit length is compared with it."""
    n = abs(n)
    if n % p:
        return 0
    bits = n.bit_length()
    k = int((bits - 1) / math.log2(p))
    power = p**k
    while power.bit_length() < bits:
        power *= p
        k += 1
    if power == n:
        return k
    v = 0
    squares = [p]  # p**(2**k)
    while n % squares[-1] == 0:
        n //= squares[-1]
        v += 1 << (len(squares) - 1)
        squares.append(squares[-1] * squares[-1])
    for k in range(len(squares) - 2, -1, -1):
        if n % squares[k] == 0:
            n //= squares[k]
            v += 1 << k
    return v


def valuation(x: Rational, p: int) -> int | float:
    """p-adic valuation of a rational; +infinity for 0.

    Satisfies v(a/b) = v(a) - v(b) for integers a, b.
    """
    x = Fraction(x)
    if x == 0:
        return INFINITY
    return _int_valuation(x.numerator, p) - _int_valuation(x.denominator, p)


def clearing_exponent(values: Iterable[Rational], p: int) -> int:
    """The least e >= 0 with p**e * v in Z_p for every v in ``values``."""
    # in lowest terms, v(x) < 0 exactly when p divides the denominator
    return max((_int_valuation(v.denominator, p) for v in values), default=0)


def residue(x: Rational, p: int, clear: int, mod: int) -> int:
    """p**clear * x mod ``mod``, a power of p: the p-unit part of the
    denominator is inverted mod ``mod``.  ValueError when v(x) < -clear, as
    p**clear * x is then not in Z_p."""
    den = x.denominator
    e = _int_valuation(den, p)
    if e > clear:
        raise ValueError(f"{x} has valuation below -{clear}")
    return x.numerator * p ** (clear - e) * pow(den // p**e, -1, mod) % mod


def power_exceeds(p: int, e: int, bound: int) -> bool:
    """Whether p**e > bound for a bound >= 1, without building p**e when
    bit lengths decide it: p**e >= 2**(e*(b-1)) for p of b bits, and p**e
    is built only when that is below 2**bound.bit_length(), where p**e has
    at most twice the bits of ``bound``."""
    if e * (p.bit_length() - 1) >= bound.bit_length():
        return True
    return p**e > bound


class Value:
    """Equality and repr by the fields in ``__slots__``, for the classes
    whose instances are compared.  Unhashable, like their mutable fields."""

    __slots__ = ()

    def _fields(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__ if k != "__weakref__"}

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self._fields().items())
        return f"{type(self).__name__}({args})"


class PrimeContext:
    """The prime, plus global budgets shared by all enumeration strategies."""

    __slots__ = ("p", "naive_budget")

    def __init__(self, p: int, naive_budget: int = DEFAULT_NAIVE_BUDGET):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if naive_budget < 1:
            raise ValueError("naive_budget must be >= 1")
        self.p = p
        self.naive_budget = naive_budget


def _fraction_gcd(a: Fraction, b: Fraction) -> Fraction:
    """Positive generator of the fractional ideal aZ + bZ."""
    num = math.gcd(a.numerator * b.denominator, b.numerator * a.denominator)
    return Fraction(num, a.denominator * b.denominator)


class PhaseHistogram(Value):
    """scale * sum_k counts[k] * zeta(p**level)**k with exact integer counts.

    Treat instances as immutable: every operation returns a new histogram.
    Counts are stored sparsely, keyed by the class k in [0, p**level); the
    evaluators build the dict themselves and pass it to the constructor.
    Equal values with different fields compare equal only after ``reduced``.
    """

    __slots__ = ("p", "level", "counts", "scale", "__weakref__")

    def __init__(self, p: int, level: int, counts: dict[int, int] | None = None,
                 scale: Fraction = Fraction(1)):
        self.p = p
        self.level = level
        self.counts = {} if counts is None else counts
        self.scale = scale

    @classmethod
    def zero(cls, p: int) -> "PhaseHistogram":
        return cls(p, 0, {}, Fraction(1))

    # ------------------------------------------------------------------ algebra

    def _lifted_counts(self, level: int) -> dict[int, int]:
        if level == self.level:
            return dict(self.counts)
        step = self.p ** (level - self.level)
        return {k * step: c for k, c in self.counts.items()}

    def scaled(self, q: Rational) -> "PhaseHistogram":
        return PhaseHistogram(self.p, self.level, dict(self.counts), self.scale * Fraction(q))

    def __add__(self, other: "PhaseHistogram") -> "PhaseHistogram":
        if self.p != other.p:
            raise ValueError("cannot add histograms over different primes")
        if other.scale == 0 or not other.counts:
            return PhaseHistogram(self.p, self.level, dict(self.counts), self.scale)
        if self.scale == 0 or not self.counts:
            return PhaseHistogram(other.p, other.level, dict(other.counts), other.scale)
        level = max(self.level, other.level)
        scale = _fraction_gcd(self.scale, other.scale)
        f1 = int(self.scale / scale)
        f2 = int(other.scale / scale)
        counts = {k: c * f1 for k, c in self._lifted_counts(level).items()}
        for k, c in other._lifted_counts(level).items():
            nc = counts.get(k, 0) + c * f2
            if nc:
                counts[k] = nc
            else:
                counts.pop(k, None)
        return PhaseHistogram(self.p, level, counts, scale)

    def rotated(self, x: Rational) -> "PhaseHistogram":
        """Multiply the represented value by psi(x) = exp(2*pi*i * {x}_p)."""
        x = Fraction(x)
        level = max(self.level, clearing_exponent([x], self.p))
        mod = self.p**level
        shift = residue(x, self.p, level, mod)
        counts: dict[int, int] = {}
        for k, c in self._lifted_counts(level).items():
            counts[(k + shift) % mod] = counts.get((k + shift) % mod, 0) + c
        return PhaseHistogram(self.p, level, counts, self.scale)

    def galois(self, u: int) -> "PhaseHistogram":
        """Image under the Galois automorphism zeta -> zeta**u, u coprime to p.

        Class k becomes class k*u mod p**level; u is invertible there, so no
        classes merge.  The result is not reduced.
        """
        mod = self.p**self.level
        return PhaseHistogram(
            self.p, self.level, {k * u % mod: c for k, c in self.counts.items()}, self.scale
        )

    def conjugate(self) -> "PhaseHistogram":
        return self.galois(-1)

    def __mul__(self, other: "PhaseHistogram") -> "PhaseHistogram":
        """Product of the represented values: the counts convolved at the
        common level, the scales multiplied.  Quadratic in the number of
        stored classes; the result is not reduced."""
        if self.p != other.p:
            raise ValueError("cannot multiply histograms over different primes")
        level = max(self.level, other.level)
        mod = self.p**level
        right = other._lifted_counts(level)
        counts: dict[int, int] = {}
        for k1, c1 in self._lifted_counts(level).items():
            for k2, c2 in right.items():
                k = (k1 + k2) % mod
                nc = counts.get(k, 0) + c1 * c2
                if nc:
                    counts[k] = nc
                else:
                    counts.pop(k, None)
        return PhaseHistogram(self.p, level, counts, self.scale * other.scale)

    def abs_square(self) -> "PhaseHistogram":
        """Histogram of |value|**2 = value * conj(value).

        Intended for reduced histograms, where it decides magnitude
        comparisons exactly.
        """
        return self * self.conjugate()

    # ------------------------------------------------------------- normal form

    def reduced(self) -> "PhaseHistogram":
        """Canonical form: same value, basis-supported counts, minimal level,
        content folded into a positive scale.  Idempotent."""
        p = self.p
        level = self.level
        scale = self.scale
        if scale == 0 or not any(self.counts.values()):  # before p**level is built
            return PhaseHistogram.zero(p)
        mod = p**level
        counts: dict[int, int] = {}
        for k, c in self.counts.items():
            if c:
                counts[k % mod] = counts.get(k % mod, 0) + c
        counts = {k: c for k, c in counts.items() if c}
        if scale == 0 or not counts:
            return PhaseHistogram.zero(p)
        while level > 0:
            period = p ** (level - 1)
            top = period * (p - 1)  # phi(p**level)
            for k in [k for k in counts if k >= top]:
                c = counts.pop(k)
                # zeta**k = -(zeta**(k-q) + ... + zeta**(k-(p-1)q)), q = p**(level-1)
                for t in range(1, p):
                    kk = k - t * period
                    nc = counts.get(kk, 0) - c
                    if nc:
                        counts[kk] = nc
                    else:
                        counts.pop(kk, None)
            if not counts:
                return PhaseHistogram.zero(p)
            if all(k % p == 0 for k in counts):
                counts = {k // p: c for k, c in counts.items()}
                level -= 1
            else:
                break
        if level == 0:
            return PhaseHistogram(p, 0, {0: 1}, scale * counts[0])
        if scale < 0:
            scale = -scale
            counts = {k: -c for k, c in counts.items()}
        content = math.gcd(*counts.values())
        if content > 1:
            counts = {k: c // content for k, c in counts.items()}
            scale = scale * content
        return PhaseHistogram(p, level, dict(sorted(counts.items())), scale)

    def is_zero(self) -> bool:
        """Exact zero test of the represented cyclotomic value."""
        if self.scale == 0:
            return True
        return not self.reduced().counts

    def exact_rational(self) -> Fraction | None:
        """The represented value as a Fraction if it is rational, else None."""
        r = self.reduced()
        if not r.counts:
            return Fraction(0)
        if r.level == 0:
            return r.scale
        return None

    # -------------------------------------------------------------- numerics

    def magnitude(self) -> tuple[float, float]:
        """(|value| as a float, absolute error bound).

        The bound is |scale| * sum|counts| * MAGNITUDE_ERROR_CONSTANT * eps.
        """
        if self.scale == 0 or not self.counts:
            return 0.0, 0.0
        n = self.p**self.level
        tau = 2.0 * math.pi
        re = math.fsum(c * math.cos(tau * k / n) for k, c in self.counts.items())
        im = math.fsum(c * math.sin(tau * k / n) for k, c in self.counts.items())
        s = abs(float(self.scale))
        mag = s * math.hypot(re, im)
        err = (
            s
            * sum(abs(c) for c in self.counts.values())
            * MAGNITUDE_ERROR_CONSTANT
            * sys.float_info.epsilon
        )
        return mag, err

    # ---------------------------------------------------------- serialization

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "M": self.level,
            "scale": str(self.scale),
            "counts": {str(k): c for k, c in sorted(self.counts.items())},
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "PhaseHistogram":
        return cls(
            int(d["p"]),
            int(d["M"]),
            {int(k): int(c) for k, c in d["counts"].items()},
            Fraction(d["scale"]),
        )
