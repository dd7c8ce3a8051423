import math
import random
from fractions import Fraction
from functools import lru_cache

import mpmath
import pytest

from siegeleis.arith import divisors, moebius
from siegeleis.cyclotomic import Cyclotomic, RootU, cyclotomic_polynomial
from siegeleis.scalars import Exact, mp_workdps, to_mpc


def test_rootu_normalization_and_products():
    assert RootU(Fraction(5, 4)).t == Fraction(1, 4)
    assert RootU(Fraction(1, 3)) * RootU(Fraction(2, 3)) == RootU.one()
    assert (RootU(Fraction(1, 8)) ** 4).t == Fraction(1, 2)
    assert RootU(Fraction(1, 2)).as_fraction() == -1
    with pytest.raises(ValueError):
        RootU(Fraction(1, 3)).as_fraction()


def test_cyclotomic_polynomial():
    assert cyclotomic_polynomial(1) == (Fraction(-1), Fraction(1))
    assert cyclotomic_polynomial(4) == (Fraction(1), Fraction(0), Fraction(1))
    assert cyclotomic_polynomial(6) == (Fraction(1), Fraction(-1), Fraction(1))


def _poly_divide_reference(num: list, den: list) -> list:
    """Long division over Q, one Fraction quotient per step; remainder must vanish."""
    num = [Fraction(c) for c in num]
    terms = [(j, dj) for j, dj in enumerate(den) if dj]
    out = [Fraction(0)] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = out[i] = num[i + len(den) - 1] / den[-1]
        if c:
            for j, dj in terms:
                num[i + j] -= c * dj
    assert not any(num[: len(den) - 1])
    return out


def _cyclotomic_polynomial_reference(n: int) -> tuple:
    """Phi_n = prod_{d | n} (x^d - 1)^mu(n/d), multiplied and divided over Q."""
    poly = [Fraction(1)]
    below = []
    for d in divisors(n):
        mu = moebius(n // d)
        if mu == 1:
            # times x^d - 1: shift by d, less the polynomial itself
            poly = [-c for c in poly] + [Fraction(0)] * d
            for i, c in enumerate(poly[: len(poly) - d]):
                poly[i + d] -= c
        elif mu == -1:
            below.append([Fraction(-1)] + [Fraction(0)] * (d - 1) + [Fraction(1)])
    for den in below:
        poly = _poly_divide_reference(poly, den)
    return tuple(poly)


def test_integer_cyclotomic_polynomials_match_fraction_reference():
    for n in range(1, 301):
        phi = cyclotomic_polynomial(n)
        assert all(type(c) is int for c in phi)
        assert phi[-1] == 1
        assert phi == _cyclotomic_polynomial_reference(n)


def test_cyclotomic_polynomials_multiply_to_x_n_minus_1():
    for n in range(1, 301):
        prod = [1]
        for d in divisors(n):
            out = [0] * (len(prod) + len(cyclotomic_polynomial(d)) - 1)
            for j, c in enumerate(cyclotomic_polynomial(d)):
                if c:
                    for i, a in enumerate(prod):
                        out[i + j] += a * c
            prod = out
        assert prod == [-1] + [0] * (n - 1) + [1]


def test_relations_collapse():
    # 1 + zeta_3 + zeta_3^2 = 0 canonically
    z = Cyclotomic.zeta_power(3, 1)
    total = 1 + z + z * z
    assert total.is_rational() and total.as_fraction() == 0


def test_field_inverse():
    rng = random.Random(9)
    for n in (3, 4, 5, 8, 12):
        for _ in range(10):
            coeffs = [rng.randint(-4, 4) for _ in range(n)]
            x = Cyclotomic(n, coeffs)
            if x == 0 or not any(x.num):
                continue
            prod = x * x.inverse()
            assert prod.is_rational() and prod.as_fraction() == 1


def test_mixed_order_arithmetic():
    a = Cyclotomic.zeta_power(3, 1)
    b = Cyclotomic.zeta_power(4, 1)
    with mp_workdps():
        lhs = to_mpc(a * b)
        rhs = to_mpc(a) * to_mpc(b)
        assert abs(lhs - rhs) < mpmath.mpf(10) ** -40


def test_conjugate():
    x = Cyclotomic.zeta_power(5, 2) + 3
    with mp_workdps():
        assert abs(to_mpc(x.conjugate()) - mpmath.conj(to_mpc(x))) < mpmath.mpf(10) ** -40


class _FractionCyclotomic:
    """The Fraction-list Cyclotomic that the integer representation replaced.

    Coefficients are Fractions on 1..zeta^(deg-1), reduced mod Phi_n with
    Fraction arithmetic; the inverse solves (mult-by-self) x = 1 by Gaussian
    elimination over Q.
    """

    def __init__(self, n: int, coeffs):
        self.n = n
        c = [Fraction(x) for x in coeffs] + [Fraction(0)] * (n - len(coeffs))
        phi = cyclotomic_polynomial(n)
        deg = len(phi) - 1
        terms = [(j, phi_j) for j, phi_j in enumerate(phi[:-1]) if phi_j]
        for i in range(len(c) - 1, deg - 1, -1):
            lead = c[i]
            if lead:
                c[i] = Fraction(0)
                for j, phi_j in terms:
                    c[i - deg + j] -= lead * phi_j
        self.c = c[:deg]

    def _embed(self, m: int) -> "_FractionCyclotomic":
        coeffs = [Fraction(0)] * m
        for i, ci in enumerate(self.c):
            coeffs[i * (m // self.n) % m] += ci
        return _FractionCyclotomic(m, coeffs)

    def _promote(self, other):
        if not isinstance(other, _FractionCyclotomic):
            other = _FractionCyclotomic(self.n, [Fraction(other)])
        if self.n == other.n:
            return self, other
        m = math.lcm(self.n, other.n)
        return self._embed(m), other._embed(m)

    def __add__(self, other):
        a, b = self._promote(other)
        return _FractionCyclotomic(a.n, [x + y for x, y in zip(a.c, b.c)])

    def __neg__(self):
        return _FractionCyclotomic(self.n, [-x for x in self.c])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, _FractionCyclotomic):
            return _FractionCyclotomic(self.n, [x * Fraction(other) for x in self.c])
        a, b = self._promote(other)
        folded = [Fraction(0)] * a.n
        ys = [(j, y) for j, y in enumerate(b.c) if y]
        for i, x in enumerate(a.c):
            if x:
                for j, y in ys:
                    folded[(i + j) % a.n] += x * y
        return _FractionCyclotomic(a.n, folded)

    def __truediv__(self, q):
        return self * (1 / Fraction(q))

    def inverse(self) -> "_FractionCyclotomic":
        deg = len(self.c)
        cols = [(self * _FractionCyclotomic(self.n, [0] * j + [1])).c for j in range(deg)]
        a = [[cols[j][i] for j in range(deg)] + [Fraction(int(i == 0))] for i in range(deg)]
        for col in range(deg):
            piv = next(r for r in range(col, deg) if a[r][col] != 0)
            a[col], a[piv] = a[piv], a[col]
            pivot = a[col] = [x / a[col][col] for x in a[col]]
            live = [c for c in range(col, deg + 1) if pivot[c]]
            for r in range(deg):
                if r != col and a[r][col]:
                    f = a[r][col]
                    for c in live:
                        a[r][c] -= f * pivot[c]
        return _FractionCyclotomic(self.n, [row[deg] for row in a])

    def conjugate(self) -> "_FractionCyclotomic":
        coeffs = [Fraction(0)] * self.n
        for i, ci in enumerate(self.c):
            coeffs[-i % self.n] += ci
        return _FractionCyclotomic(self.n, coeffs)

    def __eq__(self, other):
        a, b = self._promote(other)
        return a.c == b.c

    def is_rational(self) -> bool:
        return not any(self.c[1:])

    def as_fraction(self) -> Fraction:
        return self.c[0]

    def to_mpc(self) -> mpmath.mpc:
        total = mpmath.mpc(0)
        for root, ci in zip(_reference_roots(self.n, mpmath.mp.prec), self.c):
            if ci:
                total += root * mpmath.mpf(ci.numerator) / ci.denominator
        return total


@lru_cache(maxsize=None)
def _reference_roots(n: int, prec: int) -> tuple:
    return tuple(mpmath.expjpi(2 * mpmath.mpf(i) / n) for i in range(n))


def _random_pair(rng: random.Random, n: int, den: int):
    """A seeded random element as (Cyclotomic, reference); sparse half the time."""
    density = rng.choice((0.3, 1.0))
    num = [rng.randint(-3, 3) if rng.random() < density else 0 for _ in range(rng.randint(1, n))]
    return Cyclotomic(n, num, den), _FractionCyclotomic(n, [Fraction(x, den) for x in num])


def _assert_same(got: Cyclotomic, want: _FractionCyclotomic):
    """Equal canonical values: same field, same reduced coefficients, lowest terms."""
    assert got.n == want.n
    assert [Fraction(x, got.den) for x in got.num] == want.c
    assert got.den > 0 and math.gcd(got.den, *got.num) == 1
    assert all(type(x) is int for x in got.num) and type(got.den) is int
    assert got.is_rational() == want.is_rational()
    if got.is_rational():
        assert got.as_fraction() == want.as_fraction()
    with mp_workdps():
        assert got.to_mpc() == want.to_mpc()  # bit for bit


def test_integer_representation_matches_fraction_reference():
    rng = random.Random(20261018)
    for n in range(1, 41):
        for den in (1, 2, 3, 6):
            (a, ra), (b, rb) = _random_pair(rng, n, den), _random_pair(rng, n, rng.choice((1, 2, 3, 6)))
            q = Fraction(rng.randint(-9, 9) or 1, rng.choice((1, 2, 3, 6)))
            _assert_same(a, ra)
            _assert_same(a + b, ra + rb)
            _assert_same(a - b, ra - rb)
            _assert_same(a * b, ra * rb)
            _assert_same(a * q, ra * q)
            _assert_same(a / q, ra / q)
            _assert_same(a + q, ra + q)
            _assert_same(a.conjugate(), ra.conjugate())
            assert (a == b) == (ra == rb) and a == Cyclotomic(n, list(a.num), a.den)
            assert (a == a.as_fraction() if a.is_rational() else a != q)
            if den == (1, 2, 3, 6)[n % 4]:
                # one inverse and one quotient per n: the reference solve is slow
                if not any(b.num):
                    b, rb = b + 1, rb + 1
                rb_inverse = rb.inverse()
                _assert_same(b.inverse(), rb_inverse)
                _assert_same(a / b, ra * rb_inverse)


def test_mixed_fields_match_fraction_reference():
    rng = random.Random(7)
    pairs = [(n1, n2) for n1 in range(1, 41) for n2 in range(1, 41) if n1 != n2 and math.lcm(n1, n2) <= 84]
    for n1, n2 in rng.sample(pairs, 60):
        (a, ra), (b, rb) = _random_pair(rng, n1, rng.choice((1, 2, 3, 6))), _random_pair(rng, n2, 6)
        _assert_same(a + b, ra + rb)
        _assert_same(a - b, ra - rb)
        _assert_same(a * b, ra * rb)
        assert (a == b) == (ra == rb)
        if any(b.num):
            _assert_same(a / b, ra * rb.inverse())
    # the same number written in two fields compares equal
    z = Cyclotomic.zeta_power(3, 1)
    assert z == Cyclotomic.zeta_power(12, 4) and z + 1 == -Cyclotomic.zeta_power(6, 4)


def test_inverse_by_norm_matches_fraction_reference():
    rng = random.Random(60)
    for n in (60, 84):
        for den in (1, 6):
            x, ref = _random_pair(rng, n, den)
            if any(x.num):
                _assert_same(x.inverse(), ref.inverse())
                assert x * x.inverse() == 1
    with pytest.raises(ZeroDivisionError):
        Cyclotomic(12, [0, 0, 0]).inverse()


def test_exact_scalar_algebra():
    assert Exact.sqrt(12) == Exact(Fraction(2), 0, 3)
    y = Exact.sqrt(3) * Exact.sqrt(3)
    assert y.is_rational() and y.as_fraction() == 3
    z = Exact.pi(2) * Exact.of(Fraction(1, 6))  # zeta(2)
    q = Exact.pi(4) / z / z * Exact.of(Fraction(1, 36))
    assert q.is_rational() and q.as_fraction() == 1
    with pytest.raises(ValueError):
        (Exact.pi(1) + Exact.of(1))
    with mp_workdps():
        val = to_mpc(Exact(Fraction(1, 2), 1, 2))  # pi sqrt(2) / 2
        assert abs(val - mpmath.pi * mpmath.sqrt(2) / 2) < mpmath.mpf(10) ** -40
