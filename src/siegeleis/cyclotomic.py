"""Exact cyclotomic arithmetic.

Two layers:

* `RootU` -- a single root of unity e^(2 pi i t), stored by its exponent
  t in Q/Z.  Character values are RootU instances (or 0), so all purely
  multiplicative manipulation (products, inverses, conjugates, powers) is
  exact rational arithmetic on exponents.

* `Cyclotomic` -- an element of the field Q(zeta_n), stored as an integer
  vector on 1, zeta, ..., zeta^(deg-1), canonically reduced modulo the n-th
  cyclotomic polynomial, over one positive integer denominator.  Every
  operation runs in ints: sums over the lcm of the denominators, products
  by one fold and one reduction, and the field inverse as the product of
  the other Galois conjugates over the rational norm.  Euler-type factors
  with character-valued coefficients are thus computed exactly.

Numeric values (`to_mpc` of both) read every root of unity from one memo,
`root_of_unity`, so each root is evaluated once per working precision.

The cyclotomic polynomials are integer vectors, found by exact division of
monic integer polynomials.  One index map zeta_n^i -> zeta_m^(a i) embeds
Q(zeta_n) in Q(zeta_m) (a = m/n) and gives the conjugates (m = n, a a unit
mod n; a = -1 is complex conjugation).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath

from .arith import moebius

__all__ = ["RootU", "Cyclotomic", "cyclotomic_polynomial", "root_of_unity"]


@lru_cache(maxsize=None)
def _root_of_unity(k: int, n: int, prec: int) -> mpmath.mpc:
    return mpmath.expjpi(2 * mpmath.mpf(k) / n)


def root_of_unity(k: int, n: int) -> mpmath.mpc:
    """e(k/n) = exp(2 pi i k/n), 0 <= k < n, at mpmath's working precision.

    The one numeric evaluation of a root of unity in the package: memoised
    on k/n in lowest terms and `mpmath.mp.prec`, so each root is computed
    once per precision and shared by every caller.  As the division 2k/n
    is correctly rounded, the value does not depend on the representation
    of k/n.
    """
    g = math.gcd(k, n)
    return _root_of_unity(k // g, n // g, mpmath.mp.prec)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients (constant first) of Phi_n, via x^n - 1 = prod Phi_d."""
    # Divide x^n - 1 successively by Phi_d for proper divisors d of n.
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divide_monic(poly, cyclotomic_polynomial(d))
    return tuple(poly)


@lru_cache(maxsize=None)
def _phi_terms(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """deg Phi_n and the pairs (j, c_j) with c_j != 0 for j < deg."""
    phi = cyclotomic_polynomial(n)
    return len(phi) - 1, tuple((j, c) for j, c in enumerate(phi[:-1]) if c)


@lru_cache(maxsize=None)
def _root_trace(d: int) -> Fraction:
    """mu(d) / phi(d): the trace to Q of a primitive d-th root of unity,
    divided by the degree of the field it is taken in.

    This normalised trace is the same in every Q(zeta_n) with d | n, so it
    serves as a hash that agrees on equal values across fields.
    """
    return Fraction(moebius(d), _phi_terms(d)[0])


@lru_cache(maxsize=None)
def _trace_weights(n: int) -> tuple[int, ...]:
    """Tr(zeta_n^i) = phi(n) mu(d) / phi(d), d = n / gcd(i, n), for i < deg Phi_n."""
    deg = _phi_terms(n)[0]
    return tuple(int(deg * _root_trace(n // math.gcd(i, n))) for i in range(deg))


def _poly_divide_monic(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Quotient of integer polynomials by a monic divisor (remainder must vanish)."""
    num = list(num)
    k = len(den) - 1
    terms = [(j, c) for j, c in enumerate(den[:-1]) if c]
    out = [0] * (len(num) - k)
    for i in range(len(out) - 1, -1, -1):
        c = out[i] = num[i + k]
        if c:
            for j, dj in terms:
                num[i + j] -= c * dj
    assert not any(num[:k])
    return out


class RootU:
    """The root of unity e^(2 pi i t) with t rational, stored mod 1."""

    __slots__ = ("t",)

    def __init__(self, t):
        if not (isinstance(t, Fraction) and 0 <= t.numerator < t.denominator):
            t = Fraction(t)
            t -= t.numerator // t.denominator  # reduce to [0, 1)
        self.t = t

    @classmethod
    def one(cls) -> "RootU":
        return cls(0)

    @property
    def order(self) -> int:
        return self.t.denominator if self.t else 1

    def __mul__(self, other):
        if isinstance(other, RootU):
            return RootU(self.t + other.t)
        return self.as_scalar() * other

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "RootU":
        return RootU(self.t * k)

    def inverse(self) -> "RootU":
        return RootU(-self.t)

    conjugate = inverse

    def __eq__(self, other):
        if isinstance(other, RootU):
            return self.t == other.t
        if self.order <= 2:
            return self.as_fraction() == other
        return NotImplemented

    def __hash__(self):
        # the normalised trace, as for Cyclotomic; 1 and -1 hash as the ints do
        return hash(_root_trace(self.order))

    def as_fraction(self) -> Fraction:
        if self.t == 0:
            return Fraction(1)
        if self.t == Fraction(1, 2):
            return Fraction(-1)
        raise ValueError(f"root of unity of order {self.order} is irrational")

    def as_scalar(self):
        """Fraction for order <= 2, Cyclotomic otherwise."""
        if self.order <= 2:
            return self.as_fraction()
        return Cyclotomic.zeta_power(self.order, self.t.numerator)

    def to_mpc(self) -> mpmath.mpc:
        """e(t) at mpmath's working precision, read from `root_of_unity`."""
        return root_of_unity(self.t.numerator, self.t.denominator)

    def __repr__(self):
        return f"RootU({self.t})"


class Cyclotomic:
    """The element num(zeta_n) / den of Q(zeta_n).

    `num` is an integer vector on 1, zeta, ..., zeta^(deg-1), reduced mod
    Phi_n, and den > 0 with gcd(num, den) = 1, so equal elements of one
    field have equal (num, den).
    """

    __slots__ = ("n", "num", "den")

    def __init__(self, n: int, num, den: int = 1):
        if den == 0:
            raise ZeroDivisionError("cyclotomic denominator 0")
        deg, terms = _phi_terms(n)
        c = list(num)
        for i in range(len(c) - 1, deg - 1, -1):
            lead = c[i]
            if lead:
                for j, phi_j in terms:
                    c[i - deg + j] -= lead * phi_j
        c = c[:deg] + [0] * (deg - len(c))
        g = math.gcd(den, *c)
        if den < 0:
            g = -g
        self.n = n
        self.num = tuple(x // g for x in c)
        self.den = den // g

    @classmethod
    def zeta_power(cls, n: int, k: int) -> "Cyclotomic":
        return cls(n, [0] * (k % n) + [1])

    @classmethod
    def from_rational(cls, q, n: int = 1) -> "Cyclotomic":
        q = Fraction(q)
        return cls(n, [q.numerator], q.denominator)

    def _map(self, m: int, a: int) -> "Cyclotomic":
        """The image in Q(zeta_m) under zeta_n^i -> zeta_m^(a i)."""
        c = [0] * m
        for i, x in enumerate(self.num):
            if x:
                c[a * i % m] += x
        return Cyclotomic(m, c, self.den)

    def _promote(self, other) -> tuple["Cyclotomic", "Cyclotomic"]:
        if isinstance(other, RootU):
            other = other.as_scalar()
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(other, self.n)
        if not isinstance(other, Cyclotomic):
            return NotImplemented, NotImplemented
        if self.n == other.n:
            return self, other
        m = math.lcm(self.n, other.n)
        return self._map(m, m // self.n), other._map(m, m // other.n)

    def __add__(self, other):
        a, b = self._promote(other)
        if a is NotImplemented:
            return NotImplemented
        den = math.lcm(a.den, b.den)
        sa, sb = den // a.den, den // b.den
        return Cyclotomic(a.n, [x * sa + y * sb for x, y in zip(a.num, b.num)], den)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.n, [-x for x in self.num], self.den)

    def __sub__(self, other):
        if isinstance(other, RootU):
            other = other.as_scalar()
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.n, [x * other.numerator for x in self.num], self.den * other.denominator)
        a, b = self._promote(other)
        if a is NotImplemented:
            return NotImplemented
        n = a.n
        ys = [(j, y) for j, y in enumerate(b.num) if y]
        folded = [0] * n
        for i, x in enumerate(a.num):
            if x:
                for j, y in ys:
                    folded[(i + j) % n] += x * y
        return Cyclotomic(n, folded, a.den * b.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        a, b = self._promote(other)
        if a is NotImplemented:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int) -> "Cyclotomic":
        """x^k for an integer k, by repeated squaring; k < 0 goes through `inverse`."""
        if k < 0:
            return self.inverse() ** -k
        result, base = Cyclotomic.from_rational(1, self.n), self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def inverse(self) -> "Cyclotomic":
        """x^(-1) = prod_(a != 1) sigma_a(x) / N(x), the norm N(x) rational."""
        if not any(self.num):
            raise ZeroDivisionError("cyclotomic division by zero")
        n = self.n
        others = Cyclotomic.from_rational(1, n)
        for a in range(2, n):
            if math.gcd(a, n) == 1:
                others = others * self._map(n, a)
        return others / (self * others).as_fraction()

    def conjugate(self) -> "Cyclotomic":
        return self._map(self.n, -1)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, RootU, Cyclotomic)):
            a, b = self._promote(other)
            return (a.num, a.den) == (b.num, b.den)
        return NotImplemented

    def __hash__(self):
        # the normalised trace Tr(x) / phi(n) to Q: equal in every field that
        # holds x, and equal to x itself when x is rational
        weighted = sum(x * w for x, w in zip(self.num, _trace_weights(self.n)))
        return hash(Fraction(weighted, self.den * _phi_terms(self.n)[0]))

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not rational")
        return Fraction(self.num[0], self.den)

    def to_mpc(self) -> mpmath.mpc:
        """sum_i (num_i / den) zeta_n^i at mpmath's working precision.

        Each coefficient is rounded as the Fraction num_i / den in lowest
        terms; each zeta_n^i is read from `root_of_unity`.
        """
        total = mpmath.mpc(0)
        for i, x in enumerate(self.num):
            if x:
                q = Fraction(x, self.den)
                total += root_of_unity(i, self.n) * mpmath.mpf(q.numerator) / q.denominator
        return total

    def __repr__(self):
        terms = [f"{Fraction(x, self.den)}*z{self.n}^{i}" for i, x in enumerate(self.num) if x]
        return " + ".join(terms) if terms else "0"

