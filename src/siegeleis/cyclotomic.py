"""Exact cyclotomic arithmetic.

Two layers:

* `RootU` -- a single root of unity e^(2 pi i t), stored by its exponent
  t in Q/Z.  Character values are RootU instances (or 0), so all purely
  multiplicative manipulation (products, inverses, conjugates, powers) is
  exact rational arithmetic on exponents.

* `Cyclotomic` -- an element of the field Q(zeta_n), stored as a coefficient
  vector on 1, zeta, ..., zeta^(n-1) and canonically reduced modulo the n-th
  cyclotomic polynomial.  Supports field inversion, so Euler-type factors
  with character-valued coefficients can be computed exactly.

Only small n appear (lcm of a character order with small prime powers), so
dense coefficient vectors and Gaussian elimination over Q are entirely
adequate.  The cyclotomic polynomials are integer vectors, found by exact
division of monic integer polynomials.  Products and reductions of integer
coefficient vectors, as for Gauss sums, run in ints; the Fraction vector is
built once per element.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath

__all__ = ["RootU", "Cyclotomic", "cyclotomic_polynomial"]


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
        t = Fraction(t)
        self.t = t - (t.numerator // t.denominator)  # reduce to [0, 1)

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
        return hash(("RootU", self.t))

    def is_real(self) -> bool:
        return self.order <= 2

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
        return mpmath.expjpi(2 * mpmath.mpf(self.t.numerator) / self.t.denominator)

    def __repr__(self):
        return f"RootU({self.t})"


class Cyclotomic:
    """Element of Q(zeta_n), reduced mod Phi_n on the basis 1..zeta^(n-1)."""

    __slots__ = ("n", "c")

    def __init__(self, n: int, coeffs):
        self.n = n
        # int coefficients are reduced as ints and made Fractions only once
        c = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in coeffs]
        c += [0] * (n - len(c))
        self.c = [Fraction(x) for x in self._reduce(n, c)]

    @staticmethod
    def _reduce(n: int, c: list) -> list:
        deg, terms = _phi_terms(n)
        for i in range(len(c) - 1, deg - 1, -1):
            lead = c[i]
            if lead:
                c[i] = 0
                for j, phi_j in terms:
                    c[i - deg + j] -= lead * phi_j
        return c[:deg] + [0] * max(0, deg - len(c))

    @classmethod
    def zeta_power(cls, n: int, k: int) -> "Cyclotomic":
        k %= n
        coeffs = [Fraction(0)] * (k + 1)
        coeffs[k] = Fraction(1)
        return cls(n, coeffs)

    @classmethod
    def from_rational(cls, q, n: int = 1) -> "Cyclotomic":
        return cls(n, [Fraction(q)])

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
        return self._embed(m), other._embed(m)

    def _embed(self, m: int) -> "Cyclotomic":
        k = m // self.n
        coeffs = [Fraction(0)] * m
        for i, ci in enumerate(self.c):
            if ci:
                coeffs[(i * k) % m] += ci
        return Cyclotomic(m, coeffs)

    def __add__(self, other):
        a, b = self._promote(other)
        if a is NotImplemented:
            return NotImplemented
        return Cyclotomic(a.n, [x + y for x, y in zip(a.c, b.c)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.n, [-x for x in self.c])

    def __sub__(self, other):
        if isinstance(other, RootU):
            other = other.as_scalar()
        if isinstance(other, (int, Fraction)):
            return self + (-Fraction(other))
        if isinstance(other, Cyclotomic):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return Cyclotomic(self.n, [x * q for x in self.c])
        a, b = self._promote(other)
        if a is NotImplemented:
            return NotImplemented
        n = a.n
        xs = [(i, x) for i, x in enumerate(a.c) if x]
        ys = [(j, y) for j, y in enumerate(b.c) if y]
        if all(x.denominator == 1 for _, x in xs + ys):
            # integer coefficients, as for Gauss sums: multiply in ints
            xs = [(i, x.numerator) for i, x in xs]
            ys = [(j, y.numerator) for j, y in ys]
        folded = [0] * n
        for i, x in xs:
            for j, y in ys:
                folded[(i + j) % n] += x * y
        return Cyclotomic(n, folded)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return Cyclotomic(self.n, [x / q for x in self.c])
        a, b = self._promote(other)
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def inverse(self) -> "Cyclotomic":
        """Field inverse, by solving (mult-by-self) x = 1 over Q."""
        deg = len(self.c)
        if not any(self.c):
            raise ZeroDivisionError("cyclotomic division by zero")
        # Columns: self * zeta^j expressed on the reduced basis.
        cols = []
        for j in range(deg):
            prod = self * Cyclotomic.zeta_power(self.n, j)
            cols.append(prod.c)
        mat = [[cols[j][i] for j in range(deg)] for i in range(deg)]
        rhs = [Fraction(1)] + [Fraction(0)] * (deg - 1)
        sol = _solve_fraction_system(mat, rhs)
        return Cyclotomic(self.n, sol)

    def conjugate(self) -> "Cyclotomic":
        coeffs = [Fraction(0)] * self.n
        for i, ci in enumerate(self.c):
            if ci:
                coeffs[(-i) % self.n] += ci
        return Cyclotomic(self.n, coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, RootU, Cyclotomic)):
            a, b = self._promote(other)
            return a.c == b.c
        return NotImplemented

    def __hash__(self):
        return hash(("Cyclotomic", self.n, tuple(self.c)))

    def is_rational(self) -> bool:
        return not any(self.c[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not rational")
        return self.c[0]

    def to_mpc(self) -> mpmath.mpc:
        total = mpmath.mpc(0)
        for ci, root in zip(self.c, _root_values(self.n, mpmath.mp.prec)):
            if ci:
                total += root * mpmath.mpf(ci.numerator) / ci.denominator
        return total

    def __repr__(self):
        terms = [f"{c}*z{self.n}^{i}" for i, c in enumerate(self.c) if c]
        return " + ".join(terms) if terms else "0"


@lru_cache(maxsize=None)
def _root_values(n: int, prec: int) -> tuple:
    """zeta_n^i for i < deg Phi_n at mpmath's current precision, `prec` bits."""
    return tuple(mpmath.expjpi(2 * mpmath.mpf(i) / n) for i in range(_phi_terms(n)[0]))


def _solve_fraction_system(mat: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gaussian elimination over Q with partial pivoting by nonzero entry."""
    n = len(mat)
    a = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]
