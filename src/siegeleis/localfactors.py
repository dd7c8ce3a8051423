"""Closed-form local quantities for the Fourier coefficient formula.

* the good-place sum: the unramified local integral at p (exact in the ring
  generated by p^(-s) and the character value at p) is an Euler factor
  times this sum, and the triple divisor sum H~_(D,s,eta)(e, f) is its
  product over the p | f prime to the level;
* the table of K(s, T, chi) for odd p and quadratic chi, with its elliptic
  curve point counts a_p and a~_p;
* the ramified local integral assembled from an epsilon factor and K, and
  the one rule for the K it reads: the table where it has a row, the
  exact defining sum of `oracle.k_oracle` elsewhere;
* epsilon factors as normalized Gauss sums G(eta_p) of the CRT component.

Conventions.  The additive character of Q_p with conductor Z_p used
throughout is psi_p(x) = e^(-2 pi i {x}_p), the local component of the
standard global character; with this choice the product of the local
epsilon factors over p | N equals (-1)^k G(eta) / sqrt(N), which is how
G(eta) enters the a(T) that `fourier` assembles from the ramified factors.

The K table is keyed on the three shifted valuations a = v(n),
b = v(r) - n_p, c = v(m) - 2 n_p, and the exponent e in its entries is
min(a, b, c) (for the r = 0 rows this is v(n), matching the closed-form
proposition).  Scalars stay exact: Fraction for quadratic characters,
cyclotomic numbers otherwise, with integer s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .arith import (
    HalfIntegralForm,
    factorize,
    fundamental_discriminant,
    is_prime,
    kronecker_symbol,
    valuation,
)
from .characters import LocalCharacterData, gauss_sum
from .cyclotomic import RootU

__all__ = [
    "GoodPlaceInput",
    "RamifiedPlaceInput",
    "LocalFactorResult",
    "h_tilde",
    "unramified_local_factor",
    "curve_count_ap",
    "curve_count_ap_naive",
    "curve_count_ap_tilde",
    "K_closed_form",
    "ramified_K",
    "ramified_local_factor",
    "epsilon_exact_parts",
]

_INF = math.inf


def _val(x: int, p: int):
    return valuation(x, p) if x else _INF


def _zeta_pow(chi_val, k: int):
    """chi^k as a scalar, for chi given as RootU or a rational +-1."""
    if isinstance(chi_val, RootU):
        r = chi_val**k
        return r.as_scalar()
    q = Fraction(chi_val)
    if q not in (Fraction(1), Fraction(-1)):
        raise ValueError("character value at p must be a root of unity")
    return q**abs(k)


def _good_place_sum(p: int, chi_at_p, L: int, e_p: int, f_p: int, s: int):
    """sum_{i <= e_p} chi^-i p^(i(s-1)) [S(f_p - i) - L chi^-1 p^(s-2) S(f_p - i - 1)],
    with S(k) = sum_{j <= k} chi^-2j p^(j(2s-3)) and chi = chi_p(p).

    This is the p-part of H~ and, times an Euler factor, the unramified
    local integral; S(-1) = 0.
    """

    def zp(k: int):
        return _zeta_pow(chi_at_p, k)

    P = Fraction(p)
    partial = [Fraction(0)]  # partial[k] = S(k - 1)
    for j in range(f_p + 1):
        partial.append(partial[-1] + zp(-2 * j) * P ** (j * (2 * s - 3)))
    twist = L * zp(-1) * P ** (s - 2)
    total = Fraction(0)
    for i in range(e_p + 1):
        total = total + zp(-i) * P ** (i * (s - 1)) * (partial[f_p - i + 1] - twist * partial[f_p - i])
    return total


@lru_cache(maxsize=None)
def h_tilde(D: int, s: int, eta, e: int, f: int):
    """H~_(D,s,eta)(e, f): the triple divisor sum attached to -Delta = D f^2.

    sum_{d | e} eta^-1(d) d^(s-1) sum_{g | f/d} mu(g) chi_D(g) eta^-1(g)
    g^(s-2) sum_{h | f/(dg)} eta^-2(h) h^(2s-3), requiring e | f.  It is
    multiplicative: the product over p^a || f of the good-place sum at
    chi_p(p) = eta(p), L = chi_D(p), (e_p, f_p) = (v_p(e), a); a p | N
    contributes 1, as eta(p) = 0.  Memoised per argument tuple: the value
    (a Fraction or a Cyclotomic) is immutable and shared by every caller.
    """
    if e < 1 or f % e:
        raise ValueError("need e >= 1 and e | f")
    total = Fraction(1)
    for p, a in factorize(f):
        chi_at_p = eta(p)
        if chi_at_p:
            total = total * _good_place_sum(p, chi_at_p, kronecker_symbol(D, p), valuation(e, p), a, s)
    return total


@dataclass(frozen=True)
class GoodPlaceInput:
    """Data of the unramified local integral at p: I_p(e_p, f_p, L; chi_p(p), s)."""

    p: int
    chi_at_p: object  # RootU or Fraction +-1
    L: int  # chi_D(p)
    e_p: int
    f_p: int
    s: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, not {self.p}")
        if self.L not in (-1, 0, 1):
            raise ValueError("L must be -1, 0 or 1")
        if not 0 <= self.e_p <= self.f_p:
            raise ValueError("need 0 <= e_p <= f_p")
        if _euler_denominator(self) == 0:
            raise ValueError(f"pole of the local factor: 1 - L chi_p(p) p^(1-s) = 0 at s = {self.s}")


def _euler_denominator(inp: GoodPlaceInput):
    """1 - L chi_p(p) p^(1-s), the denominator of the Euler part."""
    return 1 - inp.L * _zeta_pow(inp.chi_at_p, 1) * Fraction(inp.p) ** (1 - inp.s)


def unramified_local_factor(inp: GoodPlaceInput):
    """The good-place local integral in closed form: Euler part, times
    chi_p(p)^(2 f_p) p^(f_p (3-2s)), times the good-place sum.

    Exact in the ring generated by p^(-s) and chi_p(p).
    """
    p, s, L, f = inp.p, inp.s, inp.L, inp.f_p

    def zp(k: int):
        return _zeta_pow(inp.chi_at_p, k)

    P = Fraction(p)
    num = (1 - zp(1) * P**-s) * (1 - zp(2) * P ** (2 - 2 * s))
    pref = num / _euler_denominator(inp)
    scale = zp(2 * f) * P ** (f * (3 - 2 * s))
    return pref * scale * _good_place_sum(p, inp.chi_at_p, L, inp.e_p, f, s)


@lru_cache(maxsize=None)
def curve_count_ap(D: int, p: int) -> int:
    """a_p = p - #{(x,y) in F_p^2 : y^2 = x^3 - D x}, by Legendre sums."""
    if p == 2 or not p % 2:
        raise ValueError("p must be odd")
    return -sum(kronecker_symbol(x * x * x - D * x, p) for x in range(p))


def curve_count_ap_naive(D: int, p: int) -> int:
    """Same count by raw enumeration over F_p x F_p (test oracle)."""
    squares = {}
    for y in range(p):
        squares.setdefault(y * y % p, 0)
        squares[y * y % p] += 1
    count = sum(squares.get((x * x * x - D * x) % p, 0) for x in range(p))
    return p - count


def curve_count_ap_tilde(r: int, f: int, D: int, p: int, chi: LocalCharacterData):
    """a~_p for the balanced row of the K table.

    If v(f) = v(r): p minus the point count of y^2 = x((x-b)^2 - D) with
    b = r/f mod p; if v(f) > v(r): chi(r/f).
    """
    vf, vr = _val(f, p), _val(r, p)
    if vf == vr:
        rf = Fraction(r, f)
        b = rf.numerator * pow(rf.denominator, -1, p) % p
        return Fraction(-sum(kronecker_symbol(x * ((x - b) ** 2 - D), p) for x in range(p)))
    if vf > vr:
        return chi.value(Fraction(r, f)).as_scalar()
    raise ValueError("a~_p needs v(f) >= v(r)")


@dataclass(frozen=True)
class RamifiedPlaceInput:
    """Data of the ramified local integral at p | N: the form T, chi_p, s."""

    p: int
    chi: LocalCharacterData
    T: HalfIntegralForm
    s: int

    def __post_init__(self):
        if self.chi.n_p < 1:
            raise ValueError("ramified place needs n_p >= 1")


@dataclass(frozen=True)
class LocalFactorResult:
    value: object
    provenance: str  # "closed-form" | "needs-oracle"

    @property
    def available(self) -> bool:
        return self.provenance != "needs-oracle"


def K_closed_form(inp: RamifiedPlaceInput) -> LocalFactorResult:
    """K(s, T, chi_p) from the odd-p quadratic table, else "needs-oracle".

    Rows are selected by comparing a = v(n), b = v(r) - n_p, c = v(m) - 2n_p;
    the exponent e is min(a, b, c).
    """
    p, chi, T, s = inp.p, inp.chi, inp.T, inp.s
    if T.delta == 0:
        raise ValueError("K is defined for nonsingular T")
    if p == 2 or not chi.is_quadratic():
        return LocalFactorResult(None, "needs-oracle")
    n_p = chi.n_p
    assert n_p == 1, "a quadratic character of Q_p (p odd) has conductor exponent 1"
    n, r, m = T.n, T.r, T.m
    a = _val(n, p)
    b = _val(r, p) - n_p
    c = _val(m, p) - 2 * n_p
    e = min(a, b, c)
    split = fundamental_discriminant(r * r - 4 * n * m)
    D, f = split.D, split.f
    P = Fraction(p)

    def chiq(x) -> Fraction:
        return chi.value(Fraction(x)).as_fraction()

    if r == 0:
        if chiq(-1) == -1:
            return LocalFactorResult(Fraction(0), "closed-form")
        if a == c:
            ap = curve_count_ap(D, p)
            return LocalFactorResult(-ap * P ** (int(e) * (2 - s) - 1) * chiq(2 * p * f), "closed-form")
        return LocalFactorResult(Fraction(0), "closed-form")

    if a < b and a < c:
        return LocalFactorResult(Fraction(0), "closed-form")
    if b < a and b < c:
        val = P ** (int(e) * (2 - s)) * (1 - Fraction(1, p)) * chiq(p * r)
        return LocalFactorResult(val, "closed-form")
    if c < a and c < b:
        return LocalFactorResult(Fraction(0), "closed-form")
    if a == b < c:
        return LocalFactorResult(-(P ** (int(e) * (2 - s) - 1)) * chiq(p * r), "closed-form")
    if a == c < b:
        ap = curve_count_ap(D, p)
        return LocalFactorResult(-ap * P ** (int(e) * (2 - s) - 1) * chiq(2 * p * f), "closed-form")
    if b == c < a:
        return LocalFactorResult(-(P ** (int(e) * (2 - s) - 1)) * chiq(p * r), "closed-form")

    # Balanced row: a = b = c.
    e = int(e)
    vD, vf = _val(D, p), _val(f, p)
    if vD == 1:
        # Two-center evaluation around the critical point of the quadratic
        # n + r mu p^(-1) + m mu^2 p^(-2) (conductor exponent is 1).  The
        # shells below depth v(f) - e contribute a geometric series, the cap
        # contributes a single chi(-D)-twisted term:
        #   K = chi(-2rp) p^(e(2-s)) [ (p^(3-2s) - 1/p
        #         - p^((vf-e)(3-2s)) (1 - 1/p)) / (1 - p^(3-2s))
        #         + chi(-D) p^((vf-e)(3-2s) + s - 2) ].
        chD = chiq(-D)
        phi = vf - e
        lead = (
            P ** (3 - 2 * s) - Fraction(1, p) - P ** (phi * (3 - 2 * s)) * (1 - Fraction(1, p))
        ) / (1 - P ** (3 - 2 * s))
        val = chiq(-2 * r * p) * P ** (e * (2 - s)) * (lead + chD * P ** (phi * (3 - 2 * s) + s - 2))
        return LocalFactorResult(val, "closed-form")
    at = curve_count_ap_tilde(r, f, D, p, chi)
    tail = -(P ** (e * (s - 1) + 2 * s - 4 + vf * (3 - 2 * s))) * chiq(-2 * p * f) * at
    if vf == e + 1:
        return LocalFactorResult(tail, "closed-form")
    lead = chiq(-2 * r * p) * P ** (e * (2 - s)) / (1 - P ** (3 - 2 * s))
    inner = P ** (3 - 2 * s) - Fraction(1, p) - P ** ((vf - e - 1) * (3 - 2 * s)) * (1 - Fraction(1, p))
    return LocalFactorResult(lead * inner + tail, "closed-form")


@lru_cache(maxsize=None)
def epsilon_exact_parts(chi: LocalCharacterData):
    """epsilon(1/2, chi_p, psi_p) = p^(-n_p/2) * (exact cyclotomic part).

    With psi_p(x) = e^(-2 pi i {x}_p) the exact part is
    chi_p(p)^(n_p) eta_p(-1) G(eta_p).  Returns (cyclotomic, n_p), computed
    once per chi_p.
    """
    if chi.n_p < 1:
        raise ValueError("epsilon factor requires a ramified character")
    part = _zeta_pow(chi.chi_at_p, chi.n_p) * (chi.eta_p(-1).as_scalar() * gauss_sum(chi.eta_p))
    return part, chi.n_p


def ramified_K(inp: RamifiedPlaceInput) -> tuple[object, str]:
    """The K that `ramified_local_factor` reads at this place, and its place note.

    The factor reads K only where p | r and v(m) >= 2 n_p; elsewhere K is
    None, noted "unit" at p not dividing r and "zero" where v(m) < 2 n_p
    makes the factor 0.  K comes from the table of `K_closed_form` where it
    has a row ("K-closed-form"), and from the exact defining sum
    `oracle.k_oracle` everywhere else ("K-oracle(exact)").  Both routes are
    exact and agree wherever the table has a row.
    """
    p, T = inp.p, inp.T
    if T.r % p:
        return None, f"p={p}:unit"
    if T.m and valuation(T.m, p) < 2 * inp.chi.n_p:
        return None, f"p={p}:zero"
    res = K_closed_form(inp)
    if res.available:
        return res.value, f"p={p}:K-closed-form"
    from .oracle import k_oracle  # imported here: expand at 1:1 or 3:2 never loads the oracles

    return k_oracle(T, inp.chi, inp.s)[0], f"p={p}:K-oracle(exact)"


def ramified_local_factor(inp: RamifiedPlaceInput, K_value):
    """The ramified local integral I_p, given K = K(s, T, chi_p).

    delta_(v(m) >= 2 n_p) p^(n_p(5/2-2s)) epsilon(1/2, chi_p, psi_p)
      ( delta_(v(r)=0) chi_p(-r) + delta_(v(r)>0) p^(n_p(2-s))
        chi_p(-p^(n_p)) K ).

    The half-integral power of p combines with the epsilon factor into
    p^(n_p(2-2s)) times an exact cyclotomic, so the result is exact whenever
    K is.  `fourier` assembles a(T) at level N > 1 from these factors, one
    per p | N, with K from `ramified_K`.
    """
    p, chi, T, s = inp.p, inp.chi, inp.T, inp.s
    n_p = chi.n_p
    if T.m != 0 and valuation(T.m, p) < 2 * n_p:
        return Fraction(0)
    eps_part, _ = epsilon_exact_parts(chi)
    pref = Fraction(p) ** (n_p * (2 - 2 * s))
    if T.r != 0 and valuation(T.r, p) == 0:
        return eps_part * (pref * chi.value(-T.r).as_scalar())
    if K_value is None:
        raise ValueError("K value required when v(r) > 0")
    branch = (chi.value(Fraction(-(p**n_p)))).as_scalar() * Fraction(p) ** (n_p * (2 - s))
    return eps_part * (pref * branch * K_value)
