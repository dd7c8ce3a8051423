"""Special values of the Riemann zeta function and Dirichlet L-functions.

Exact values where the classical formulas give them:

* zeta(k) for even k >= 2, as a rational times pi^k via Bernoulli numbers
  (convention B_1 = -1/2, generating function t/(e^t - 1));
* L(n, chi_D) for quadratic chi_D with chi_D(-1) = (-1)^n, as a rational
  times pi^n times sqrt(|D|), via the functional equation and generalized
  Bernoulli numbers;
* Cohen's H(r, N) function, fully rational, used by the independent
  level-one comparator.

Everything else is numeric at the configured working precision, through the
Hurwitz-zeta decomposition L(k, psi) = c^(-k) sum_a psi(a) zeta(k, a/c) for
the primitive core psi mod c, times the finite Euler product restoring the
imprimitive modulus.

`dirichlet_l` keeps each value per (k, psi, working precision) and
`l_quadratic_exact` per (n, D), so a value repeated across coefficients is
computed once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath

from .arith import divisors, moebius
from .characters import kronecker_character
from .scalars import Exact, get_precision, mp_workdps, to_mpc

__all__ = [
    "bernoulli",
    "bernoulli_polynomial",
    "generalized_bernoulli",
    "zeta",
    "zeta_series_tail_bound",
    "dirichlet_l",
    "l_quadratic_exact",
    "cohen_h",
]


_HALF = Fraction(1, 2)


@lru_cache(maxsize=None)
def bernoulli(k: int) -> Fraction:
    """k-th Bernoulli number, B_1 = -1/2."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return Fraction(1)
    if k == 1:
        return Fraction(-1, 2)
    if k % 2:
        return Fraction(0)
    # sum_{j=0}^{k} C(k+1, j) B_j = 0
    total = Fraction(0)
    for j in range(k):
        total += math.comb(k + 1, j) * bernoulli(j)
    return -total / (k + 1)


@lru_cache(maxsize=None)
def _bernoulli_polynomial_coefficients(n: int) -> tuple[int, tuple[int, ...]]:
    """(d, (c_0, ..., c_n)) with C(n, j) B_j = c_j / d, all integers."""
    coeffs = [math.comb(n, j) * bernoulli(j) for j in range(n + 1)]
    d = math.lcm(*(c.denominator for c in coeffs))
    return d, tuple(int(c * d) for c in coeffs)


def bernoulli_polynomial(n: int, x: Fraction) -> Fraction:
    """B_n(x) = sum_j C(n, j) B_j x^(n-j), exact for rational x.

    With x = u/v this is sum_j c_j u^(n-j) v^j / (d v^n), evaluated by
    Horner's rule in integers.
    """
    x = Fraction(x)
    u, v = x.numerator, x.denominator
    d, coeffs = _bernoulli_polynomial_coefficients(n)
    num, v_power = 0, 1
    for c in coeffs:
        num = num * u + c * v_power
        v_power *= v
    return Fraction(num, d * v_power // v)


def generalized_bernoulli(n: int, chi) -> Fraction:
    """B_(n, chi) = f^(n-1) sum_a chi(a) B_n(a/f), for quadratic chi mod f.

    Expanding B_n(a/f) = sum_j C(n, j) B_j (a/f)^(n-j) turns this into
    sum_j C(n, j) B_j f^(j-1) S_(n-j) with the integer power sums
    S_i = sum_a chi(a) a^i, all gathered in one pass over a = 1..f.
    """
    f = max(chi.modulus, 1)
    sums = [0] * (n + 1)
    for a in range(1, f + 1):
        t = chi.exponent(a)
        if t is None:
            continue
        if t == 0:
            sign = 1
        elif t == _HALF:
            sign = -1
        else:
            raise ValueError("generalized Bernoulli numbers are exact only for quadratic characters here")
        power = sign
        for i in range(n + 1):
            sums[i] += power
            power *= a
    total = Fraction(0)
    for j in range(n + 1):
        total += math.comb(n, j) * bernoulli(j) * Fraction(f) ** (j - 1) * sums[n - j]
    return total


def zeta(k: int):
    """zeta(k) for integer k >= 2: an `Exact` for even k, an mpf for odd k."""
    if k <= 1:
        raise ValueError("zeta is evaluated only at integers >= 2 here")
    if k % 2 == 0:
        sign = -1 if (k // 2 + 1) % 2 else 1
        q = sign * bernoulli(k) * Fraction(2) ** k / (2 * math.factorial(k))
        return Exact(q, k)
    with mp_workdps():
        return mpmath.zeta(k)


def zeta_series_tail_bound(k: int, terms: int) -> tuple[mpmath.mpf, Fraction]:
    """Plain partial sum of zeta(k) with its integral tail bound.

    The truncation after n = terms contributes less than terms^(1-k)/(k-1);
    this is the documented bound, enforced as a property of the series path.
    """
    if k <= 1 or terms < 1:
        raise ValueError("need k >= 2 and at least one term")
    with mp_workdps():
        partial = mpmath.fsum(mpmath.mpf(1) / mpmath.mpf(n) ** k for n in range(1, terms + 1))
    bound = Fraction(1, (k - 1)) * Fraction(1, terms ** (k - 1))
    return partial, bound


_L_VALUES: dict[tuple, object] = {}


def dirichlet_l(k: int, psi):
    """L(k, psi) for k >= 2 and a possibly imprimitive character psi.

    Computed as L(k, core) times prod (1 - core(p) p^(-k)) over primes p of
    the modulus missing from the conductor.  The primitive value goes
    through Hurwitz zeta unless the core is trivial (then it is zeta).
    Each value is computed once per (k, psi, working precision).  It is an
    `Exact` for a trivial core and even k, an mpmath number otherwise.
    """
    if k <= 1:
        raise ValueError("L-values are evaluated only at integers >= 2 here")
    key = (k, psi, get_precision())
    if key not in _L_VALUES:
        _L_VALUES[key] = _dirichlet_l(k, psi)
    return _L_VALUES[key]


def _dirichlet_l(k: int, psi):
    core = psi.primitive_core()
    lost = psi.lost_euler_primes()
    if core.modulus == 1:
        val = zeta(k)
        if isinstance(val, Exact):
            euler = Fraction(1)
            for p in lost:
                euler *= 1 - Fraction(1, p**k)
            return val * euler
        with mp_workdps():
            for p in lost:
                val *= 1 - mpmath.mpf(1) / mpmath.mpf(p) ** k
            return val
    c = core.modulus
    with mp_workdps():
        total = mpmath.mpc(0)
        for a in range(1, c + 1):
            t = core.exponent(a)
            if t is None:
                continue
            total += to_mpc(core(a)) * mpmath.zeta(k, mpmath.mpf(a) / c)
        val = total / mpmath.mpf(c) ** k
        for p in lost:
            val *= 1 - to_mpc(core(p)) / mpmath.mpf(p) ** k
    return val


@lru_cache(maxsize=None)
def l_quadratic_exact(n: int, D: int) -> Exact:
    """L(n, chi_D) exactly, for fundamental D (or 1) with chi_D(-1) = (-1)^n.

    From the functional equation, with G(chi_D) = sqrt(D) resp. i sqrt(|D|):

        L(n, chi_D) = (-1)^(1 + (n - delta)/2) (sqrt|D| / 2)
                      (2 pi / |D|)^n  B_(n, chi_D) / n!

    where delta = 0, 1 for even, odd chi_D.  Returns q * pi^n * sqrt(|D|),
    computed once per (n, D).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    delta = 1 if D < 0 else 0
    if (-1) ** n != (1 if delta == 0 else -1):
        raise ValueError(f"parity mismatch: L({n}, chi_{D}) has no exact elementary form here")
    if D == 1:
        return zeta(n)
    chi = kronecker_character(D)
    bn = generalized_bernoulli(n, chi)
    sign = -1 if ((n - delta) // 2) % 2 == 0 else 1
    q = sign * Fraction(2) ** n / (2 * Fraction(abs(D)) ** n * math.factorial(n)) * bn
    return Exact(q, n) * Exact.sqrt(abs(D))


def cohen_h(r: int, n: int) -> Fraction:
    """Cohen's function H(r, n) for r >= 1, n >= 0, exact rational.

    H(r, 0) = zeta(1 - 2r); for n > 0 with (-1)^r n = D f^2 (D fundamental),

        H(r, n) = L(1-r, chi_D) sum_{d | f} mu(d) chi_D(d) d^(r-1)
                  sigma_(2r-1)(f/d),

    and L(1-r, chi_D) = -B_(r, chi_D)/r.  Vanishes for (-1)^r n = 2, 3 mod 4.
    """
    if r < 1 or n < 0:
        raise ValueError("need r >= 1 and n >= 0")
    if n == 0:
        return -bernoulli(2 * r) / (2 * r)
    signed = n if r % 2 == 0 else -n
    if signed % 4 not in (0, 1):
        return Fraction(0)
    from .arith import fundamental_discriminant, kronecker_symbol

    split = fundamental_discriminant(signed)
    D, f = split.D, split.f
    # For D = 1 this degenerates to zeta(1-r) = -B_r / r, since B_r(1) = B_r.
    lval = -generalized_bernoulli(r, kronecker_character(D)) / r
    total = Fraction(0)
    for d in divisors(f):
        md = moebius(d)
        if md == 0:
            continue
        sig = sum(Fraction(e) ** (2 * r - 1) for e in divisors(f // d))
        total += md * kronecker_symbol(D, d) * Fraction(d) ** (r - 1) * sig
    return lval * total
