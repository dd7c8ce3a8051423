"""Independent brute-force verifiers for the local computations.

Nothing in this module uses the closed-form local factors under test.  The
building blocks are:

* exact 4x4 matrix arithmetic over Q, with products taken in integers over
  a common denominator, and evaluation of the unramified (spherical) section
  through the minimum valuation of the Pluecker minors of the bottom 2x4
  block, read off the integer form -- an implementation shortcut that is
  itself validated by the `bootstrap_minor_valuation` battery against
  elements assembled from known parabolic times integral factors;

* evaluation of the ramified (paramodular) section: membership in the
  supported double coset is decided by a lattice invariant (the elementary
  divisors of the pair of row lattices the paramodular group preserves),
  and the value is read off an explicit reduction through the two
  decomposition cases of the support analysis;

* the local integrals themselves.  The integrand is constant on cosets of
  the integral symmetric matrices, so the triple integral is a sum over
  (Q_p/Z_p)^3.  For r = 0 the unit sums in two variables collapse to
  Ramanujan and quadratic Gauss sums and the remaining mu-sum is done with
  elementary two-center volume counts, giving an *exact rational* value
  with no truncation at all.  A plain truncated Riemann sum over a window
  p^(-A) Z_p with a crude certified tail is kept as a cross-check and for
  r != 0; its cells are counted by (integrand value, phase exponent).

* the defining j-sum of K(s, T, chi), exactly, over a tree of unit classes
  u + p^d Z_p refined until the valuation of the argument and its unit
  class mod p^(n_p) are fixed, or dropped as exact zeros around a simple
  root of G(u) = p^(2n_p) F(u) (Hensel's lemma).  The walk is integer
  arithmetic on G; leaves go into a histogram keyed by (j, depth, unit
  class), and the character and the powers of p are applied once per key.

* residue-counting volumes of the sets R(i,j), S(i,j), counted over the same
  kind of class tree on an integer quadratic (a class whose value has
  valuation below its depth is counted whole), and term-by-term checks of
  the two generating-series identities.

Measure conventions: vol(Z_p) = 1 for the additive measure, so
vol(Z_p^x) = 1 - 1/p.  The additive character is psi_p(x) = e^(-2 pi i
{x}_p), matching the global product of local characters that is trivial
on Q.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .arith import HalfIntegralForm, kronecker_symbol, valuation
from .characters import LocalCharacterData
from .cyclotomic import RootU
from .scalars import mp_workdps, to_mpc

__all__ = [
    "TruncationWindow",
    "UncertifiedOracleError",
    "spherical_section_value",
    "spherical_weight",
    "ramified_section_value",
    "paramodular_class_index",
    "brute_force_local_integral",
    "unramified_integral_exact",
    "ramified_integral_exact",
    "k_oracle",
    "volume_R",
    "volume_S",
    "volume_R_exact",
    "generating_series_check",
    "bootstrap_minor_valuation",
    "mat_mul",
    "upper_unipotent",
    "lower_unipotent",
    "c0_matrix",
    "J1",
    "S1",
    "S2",
]


class UncertifiedOracleError(RuntimeError):
    """Raised when a truncation window cannot certify the requested bound."""


# ---------------------------------------------------------------------------
# p-adic scalars


def _v(x: int, p: int):
    """v_p of an integer, inf for 0."""
    if not x:
        return math.inf
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def frac_part(x: Fraction, p: int) -> Fraction:
    """{x}_p: the p-power-denominator tail of x, in [0, 1)."""
    x = Fraction(x)
    t = _v(x.denominator, p)
    if t == 0:
        return Fraction(0)
    q = p**t
    num = x.numerator * pow(x.denominator // q, -1, q)
    return Fraction(num % q, q)


def psi_phase(x: Fraction, p: int) -> RootU:
    """psi_p(x) = e^(-2 pi i {x}_p) as an exact root of unity."""
    return RootU(-frac_part(x, p))


@dataclass(frozen=True)
class TruncationWindow:
    """Integration window p^(-A) Z_p at residue depth B with its tail bound."""

    A: int
    B: int
    tail: Fraction


# ---------------------------------------------------------------------------
# exact 4x4 matrices over Q, multiplied in integers
#
# A Mat holds Fractions.  Products are taken over a common denominator: each
# factor becomes an integer matrix and one denominator (`_scaled`), the
# integer matrices are multiplied, and one Fraction is made per entry of the
# result.  The similitude and the Pluecker minors are read off the integer
# form directly.

Mat = tuple  # 4-tuple of 4-tuples of Fractions
IntMat = tuple  # 4-tuple of 4-tuples of ints, kept with a separate denominator


def _mat(rows) -> Mat:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


IDENT = _mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
J1 = _mat([[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]])
S1 = _mat([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
S2 = _mat([[1, 0, 0, 0], [0, 0, 1, 0], [0, -1, 0, 0], [0, 0, 0, 1]])


def _scaled(a: Mat) -> tuple[IntMat, int]:
    """(A, d) with a = A / d, d the lcm of the entry denominators."""
    d = math.lcm(*(x.denominator for row in a for x in row))
    return tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in a), d


def _int_mul(a: IntMat, b: IntMat) -> IntMat:
    cols = tuple(zip(*b))
    return tuple(
        tuple(r0 * c0 + r1 * c1 + r2 * c2 + r3 * c3 for c0, c1, c2, c3 in cols)
        for r0, r1, r2, r3 in a
    )


def mat_mul(*ms: Mat) -> Mat:
    """The product over Q: integer products over the product of denominators."""
    out, den = _scaled(ms[0])
    for b in ms[1:]:
        b_int, b_den = _scaled(b)
        out, den = _int_mul(out, b_int), den * b_den
    return tuple(tuple(Fraction(x, den) for x in row) for row in out)


def mat_transpose(a: Mat) -> Mat:
    return tuple(tuple(a[j][i] for j in range(4)) for i in range(4))


def upper_unipotent(mu, kappa, lam) -> Mat:
    """The Siegel unipotent with X = [[mu, kappa], [lam, mu]] (w-symmetric)."""
    return _mat([[1, 0, mu, kappa], [0, 1, lam, mu], [0, 0, 1, 0], [0, 0, 0, 1]])


def lower_unipotent(mu, kappa, lam) -> Mat:
    return _mat([[1, 0, 0, 0], [0, 1, 0, 0], [mu, kappa, 1, 0], [lam, mu, 0, 1]])


def c0_matrix(x) -> Mat:
    return lower_unipotent(x, 0, 0)


_J1_INT = _scaled(J1)[0]


def _int_similitude(G: IntMat) -> int:
    """lambda(G) for an integer matrix, checking G^t J1 G = lambda J1."""
    m = _int_mul(_int_mul(tuple(zip(*G)), _J1_INT), G)
    lam = m[0][3]
    if lam == 0:
        raise ValueError("singular similitude")
    for row, j_row in zip(m, _J1_INT):
        for x, j in zip(row, j_row):
            if x != lam * j:
                raise ValueError("matrix is not in the similitude group")
    return lam


def similitude(g: Mat) -> Fraction:
    """lambda(g), checking the similitude relation g^t J1 g = lambda J1."""
    G, d = _scaled(g)
    return Fraction(_int_similitude(G), d * d)


def _bottom_minors(G: IntMat) -> list[int]:
    """The six 2x2 minors of rows 3, 4 (Pluecker coordinates of P G)."""
    r, s = G[2], G[3]
    return [r[i] * s[j] - r[j] * s[i] for i in range(4) for j in range(i + 1, 4)]


def spherical_weight(g: Mat, p: int) -> int:
    """w = v(lambda(g)) - min_p(minors): the exponent with f(g) = X(p)^w.

    For g = [[A, *], [0, u A-hat]] k with k integral this equals
    v(u^(-1) det A); see `bootstrap_minor_valuation`.  Read off g = G / d
    with G integral: lambda and the minors both scale by d^(-2), so d cancels.
    """
    G, _ = _scaled(g)
    lam = _int_similitude(G)
    mv = min(valuation(x, p) for x in _bottom_minors(G) if x != 0)
    return valuation(lam, p) - mv


def spherical_section_value(g: Mat, chi_at_p, s: int, p: int):
    """Unramified section value chi_p(p)^w p^(-w s) at g, exact."""
    w = spherical_weight(g, p)
    base = Fraction(p) ** (-w * s)
    if isinstance(chi_at_p, RootU):
        return (chi_at_p**w).as_scalar() * base
    return Fraction(chi_at_p) ** w * base if chi_at_p != 1 else base


# ---------------------------------------------------------------------------
# ramified section

# Row lattices preserved by K(p^(2n)) (right multiplication): diagonal
# lattices with valuation vectors (2n,0,0,0) and (2n,2n,2n,0).


def _lattice_of_rowspace(B: list[list[Fraction]], scales: list[int], p: int):
    """Basis of {x in Q^2 : x B in the diagonal row lattice p^scales Z_p^4}.

    Returns a 2x2 Fraction basis matrix (rows are basis vectors), p-locally
    correct (prime-to-p indices are ignored).
    """
    cols = 4
    # Solve x * C integral, where C = B scaled by p^(-scales).
    C = [[B[i][j] / Fraction(p) ** scales[j] for j in range(cols)] for i in range(2)]
    den = 1
    for row in C:
        for x in row:
            den = den * x.denominator // math.gcd(den, x.denominator)
    C0 = [[int(x * den) for x in row] for row in C]
    # Row-tracked Smith form V C0 = [diag(s1, s2) | 0] W; then x C integral
    # <=> (x V^(-1))_i in (den / s_i) Z_p, so a basis is (den/s_i) V_i.
    V, s1, s2 = _snf_2x4(C0)
    # p-local scaling factors
    d1 = Fraction(p) ** (valuation(Fraction(den, s1), p))
    d2 = Fraction(p) ** (valuation(Fraction(den, s2), p))
    return [[d1 * V[0][0], d1 * V[0][1]], [d2 * V[1][0], d2 * V[1][1]]]


def _snf_2x4(C: list[list[int]]):
    """Row-tracked Smith reduction of an integer 2x4 matrix of rank 2.

    Returns (V, s1, s2) with V in GL(2, Z) and s1 | s2 such that
    V C = S W for some W in GL(4, Z) and S = [diag(s1, s2) | 0].  Only the
    row transform V is needed by the caller.
    """
    a = [row[:] for row in C]
    V = [[1, 0], [0, 1]]

    def swap_rows():
        a[0], a[1] = a[1], a[0]
        V[0], V[1] = V[1], V[0]

    def row_op(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        V[i] = [x - q * y for x, y in zip(V[i], V[j])]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in a:
            row[i] -= q * row[j]

    # Standard pivot reduction at position (0, 0).
    for _ in range(256):
        nz = [(abs(a[i][j]), i, j) for i in range(2) for j in range(4) if a[i][j]]
        if not nz:
            raise ValueError("zero matrix")
        _, pi, pj = min(nz)
        if pi == 1:
            swap_rows()
        if pj != 0:
            swap_cols(0, pj)
        piv = a[0][0]
        done = True
        if a[1][0] % piv:
            row_op(1, 0, a[1][0] // piv)
            done = False
        else:
            row_op(1, 0, a[1][0] // piv)
        for j in range(1, 4):
            if a[0][j] % piv:
                col_op(j, 0, a[0][j] // piv)
                done = False
            else:
                col_op(j, 0, a[0][j] // piv)
        if done and all(a[1][j] % piv == 0 for j in range(4)):
            break
    s1 = abs(a[0][0])
    rest = [abs(x) for x in a[1][1:] if x]
    if not rest:
        raise ValueError("rank < 2")
    s2 = math.gcd(*rest) if len(rest) > 1 else rest[0]
    return V, s1, s2


def _inv2(M):
    det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
    if det == 0:
        raise ZeroDivisionError
    return [
        [Fraction(M[1][1], det), Fraction(-M[0][1], det)],
        [Fraction(-M[1][0], det), Fraction(M[0][0], det)],
    ]


def paramodular_class_index(g: Mat, p: int, n: int) -> int:
    """The i with g in P C_0(p^i) K(p^(2n)), read off a lattice invariant.

    The paramodular group K(p^(2n)) preserves the diagonal row lattices
    with valuation vectors (2n,0,0,0) and (2n,2n,2n,0); the elementary
    divisors of the intersection pair of the bottom row plane with them are
    {i, 2n - i} on the double coset of C_0(p^i).
    """
    similitude(g)
    B = [list(g[2]), list(g[3])]
    M1 = _lattice_of_rowspace(B, [2 * n, 0, 0, 0], p)
    M2 = _lattice_of_rowspace(B, [2 * n, 2 * n, 2 * n, 0], p)
    # Express M2 basis in terms of M1 basis: S = B2 * B1^(-1).
    B1inv = _inv2(M1)
    S = [
        [
            M2[i][0] * B1inv[0][j] + M2[i][1] * B1inv[1][j]
            for j in range(2)
        ]
        for i in range(2)
    ]
    entries = [x for row in S for x in row if x != 0]
    d1 = min(valuation(x, p) for x in entries)
    det = S[0][0] * S[1][1] - S[0][1] * S[1][0]
    d2 = valuation(det, p) - d1
    lo, hi = min(d1, d2), max(d1, d2)
    if lo + hi != 2 * n:
        raise AssertionError(f"unexpected divisor pair ({lo}, {hi}) for level p^{2*n}")
    return lo


def _f_integrand_value(mu: Fraction, kappa: Fraction, lam: Fraction, chi: LocalCharacterData, s: int):
    """Value of the ramified section at s2 s1 s2 times the Siegel unipotent.

    Case conditions and values follow the support lemma: with n = n_p,

      (a) v(lam) >= 0, v(mu) = -n, v(kappa) >= -2n   ->  chi(mu)^(-1) p^(-2ns)
      (b) v(lam) < 0, v(mu) = v(lam) - n,
          v(kappa - mu^2/lam) >= -2n                 ->  chi(mu)^(-1) p^(s(v(lam)-2n))

    and 0 otherwise.
    """
    p, n = chi.p, chi.n_p
    vl = valuation(lam, p) if lam else None  # None = +infinity
    vm = valuation(mu, p) if mu else None
    if vl is None or vl >= 0:
        if vm == -n and (kappa == 0 or valuation(kappa, p) >= -2 * n):
            return chi.value(mu).inverse().as_scalar() * Fraction(p) ** (-2 * n * s)
        return Fraction(0)
    if vm == vl - n:
        resid = kappa - mu * mu / lam
        if resid == 0 or valuation(resid, p) >= -2 * n:
            return chi.value(mu).inverse().as_scalar() * Fraction(p) ** (s * (vl - 2 * n))
    return Fraction(0)


def ramified_section_value(g: Mat, chi: LocalCharacterData, s: int):
    """Paramodular-invariant section at an arbitrary similitude g, exact.

    Decides the double coset by `paramodular_class_index`; on the supported
    coset it peels off a parabolic factor (after an integral translation
    making the D block invertible) and reads the value from the explicit
    decomposition of the lower-unipotent family.
    """
    p, n = chi.p, chi.n_p
    if n < 1:
        raise ValueError("ramified section needs n_p >= 1")
    if paramodular_class_index(g, p, n) != n:
        return Fraction(0)
    h = g
    shifts = [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 1), (1, 2, 3), (3, 1, 2), (5, 2, 1)]
    for a, b, c in shifts:
        h = mat_mul(g, upper_unipotent(a, b, c)) if (a, b, c) != (0, 0, 0) else g
        D = [[h[2][2], h[2][3]], [h[3][2], h[3][3]]]
        if D[0][0] * D[1][1] - D[0][1] * D[1][0] != 0:
            break
    else:
        raise AssertionError("could not make D block invertible")
    Dinv = _inv2(D)
    C = [[h[2][0], h[2][1]], [h[3][0], h[3][1]]]
    M = [
        [Dinv[0][0] * C[0][0] + Dinv[0][1] * C[1][0], Dinv[0][0] * C[0][1] + Dinv[0][1] * C[1][1]],
        [Dinv[1][0] * C[0][0] + Dinv[1][1] * C[1][0], Dinv[1][0] * C[0][1] + Dinv[1][1] * C[1][1]],
    ]
    if M[0][0] != M[1][1]:
        raise AssertionError("lower block is not w-symmetric")
    mu_t, kap_t, lam_t = M[0][0], M[0][1], M[1][0]
    detM = mu_t * mu_t - kap_t * lam_t
    if detM == 0:
        raise AssertionError("supported coset produced a singular lower block")
    q = mat_mul(h, lower_unipotent(-mu_t, -kap_t, -lam_t))
    fac_q = _parabolic_factor(q, chi, s)
    # lower(M) = q0 * s2 s1 s2 * U(M^(-1)) with q0 in P; fac(q0) contributes.
    X_mu, X_kap, X_lam = mu_t / detM, -kap_t / detM, -lam_t / detM
    s212 = mat_mul(S2, S1, S2)
    q0 = mat_mul(
        lower_unipotent(mu_t, kap_t, lam_t),
        _mat_inv4(mat_mul(s212, upper_unipotent(X_mu, X_kap, X_lam))),
    )
    fac_q0 = _parabolic_factor(q0, chi, s)
    val = _f_integrand_value(X_mu, X_kap, X_lam, chi, s)
    if val == 0:
        raise AssertionError("element classified inside the coset but value vanished")
    return fac_q * fac_q0 * val


def _mat_inv4(g: Mat) -> Mat:
    """Inverse of a similitude: J1^2 = -I, so g^(-1) = -lambda^(-1) J1 g^t J1."""
    lam = similitude(g)
    minus_j1 = tuple(tuple(-x for x in row) for row in J1)
    inv = mat_mul(minus_j1, mat_transpose(g), J1)
    return tuple(tuple(x / lam for x in row) for row in inv)


def _parabolic_factor(q: Mat, chi: LocalCharacterData, s: int):
    """chi(u^(-1) det A) |u^(-1) det A|^s for q = [[A, *], [0, u A-hat]]."""
    if any(q[i][j] != 0 for i in (2, 3) for j in (0, 1)):
        raise AssertionError("not in the Siegel parabolic")
    A_det = q[0][0] * q[1][1] - q[0][1] * q[1][0]
    u = similitude(q)
    arg = A_det / u
    v = valuation(arg, chi.p)
    return chi.value(arg).as_scalar() * Fraction(chi.p) ** (-v * s)


# ---------------------------------------------------------------------------
# exact unramified integral (r = 0)


def _leg_frac(x: Fraction, p: int) -> int:
    """Legendre symbol of the unit part of a nonzero rational."""
    v = valuation(x, p)
    u = x / Fraction(p) ** v
    return kronecker_symbol(u.numerator * pow(u.denominator, -1, p), p)


def vol_sq_shell_ge(p: int, c: Fraction, t0: int) -> Fraction:
    """vol{mu in Z_p^x : v(mu^2 - c) >= t0}, for p odd and c != 0.

    Elementary two-center computation: for v(c) < 0 the valuation is v(c)
    identically; for c a non-square unit it is 0; for a square unit c = a^2
    the set is two balls around +-a of radius p^(-t0).
    """
    full = 1 - Fraction(1, p)
    vc = valuation(c, p)
    if vc < 0:
        return full if t0 <= vc else Fraction(0)
    if t0 <= 0:
        return full
    if vc >= 1:
        return Fraction(0)
    if _leg_frac(c, p) == -1:
        return Fraction(0)
    return Fraction(2, p**t0)


def _ramanujan(p: int, i: int, n: int) -> int:
    """sum over units u mod p^i of e(n u / p^i) (real, either sign of phase)."""
    if i == 0:
        return 1
    vn = valuation(n, p) if n else i
    if vn >= i:
        return p**i - p ** (i - 1)
    if vn == i - 1:
        return -(p ** (i - 1))
    return 0


def _gauss_product(p: int, n: int, m: int, i: int, l: int) -> Fraction:
    """G_i(n) G_l(m): product of quadratically twisted sums, rational.

    G_i(n) = sum_u leg(u) e(-n u / p^i) vanishes unless i = v(n) + 1, and
    the product of the two surviving Gauss sums is
    p^(v(n)+v(m)+1) leg(-1) leg(n') leg(m').
    """
    vn = valuation(n, p) if n else None
    vm = valuation(m, p) if m else None
    if vn is None or vm is None or i != vn + 1 or l != vm + 1:
        return Fraction(0)
    legs = kronecker_symbol(-1, p) * _leg_frac(Fraction(n), p) * _leg_frac(Fraction(m), p)
    return Fraction(legs * p ** (vn + vm + 1))


def _geom_sum(t, j0: int):
    """sum_{j >= j0} t^j = t^j0 / (1 - t), exact for scalar t with |t| < 1."""
    num = t**j0 if j0 >= 0 else Fraction(1)
    return num / (1 - t)


def _m_mu(p: int, base: int, vsum, sq, zeta, X: Fraction):
    """Sum over mu0 in Q_p/Z_p of (zeta X)^w, w = max(base, j, -v(mu0^2 - a)).

    Each class counts once (the triple integral is a plain sum over coset
    representatives); level j has phi(p^j) classes.  vsum = -v(a), with
    None meaning a = 0; sq is the Legendre symbol of the unit of a.  The
    deep levels form a geometric series in p (zeta X)^2, so the result is
    exact.
    """

    def ts(w: int):
        if isinstance(zeta, RootU):
            return (zeta**w).as_scalar() * X**w
        return Fraction(zeta) ** w * X**w

    def phi(j: int) -> int:
        return p**j - p ** (j - 1) if j >= 1 else 1

    T2p = p * ts(2)  # p (zeta X)^2, the deep-level ratio; |T2p| < 1 for s >= 2
    total = Fraction(0)
    if vsum is None:
        # a = 0: det = mu0^2, so w = max(base, 2j), = base at j = 0.
        total = total + ts(base)
        j = 1
        while 2 * j < base:
            total = total + phi(j) * ts(base)
            j += 1
        # from here w = 2j: sum_{k >= j} phi(p^k) ts(2k)
        total = total + (1 - Fraction(1, p)) * _geom_sum(T2p, j)
        return total
    # a != 0 with v(a) = -vsum <= -2
    half = vsum // 2 if vsum % 2 == 0 else None
    total = total + ts(vsum)  # j = 0: det = -a
    j = 1
    while 2 * j < vsum:
        total = total + phi(j) * ts(vsum)
        j += 1
    if half is not None:
        j = half
        t_need = vsum - max(base, j)
        if sq == -1:
            total = total + phi(j) * ts(vsum)
        else:
            # two-center counts: N(v >= t) = 2 p^(j-t) classes for t >= 1
            total = total + (phi(j) - 2 * p ** (j - 1)) * ts(vsum)
            for t in range(1, t_need):
                total = total + 2 * (p ** (j - t) - p ** (j - t - 1)) * ts(vsum - t)
            total = total + 2 * p ** (j - t_need) * ts(max(base, j))
        j = half + 1
    else:
        j = (vsum + 1) // 2
    # 2j > vsum: v(det) = -2j exactly, w = 2j > vsum >= base
    total = total + (1 - Fraction(1, p)) * _geom_sum(T2p, j)
    return total


def unramified_integral_exact(T: HalfIntegralForm, p: int, chi_at_p, s: int):
    """The unramified local triple integral for r = 0, exactly.

    I = sum over classes (lambda0, kappa0, mu0) in (Q_p/Z_p)^3 of
    psi(n lambda0 + m kappa0) f(lower unipotent), using that the section is
    right-invariant under integral translations.  The unit sums in lambda
    and kappa reduce to Ramanujan sums and quadratically twisted Gauss sums
    (the mu-volumes depend on kappa0 lambda0 only through its valuation and
    leading square class), so the result is exact -- the certified
    truncation error is zero.  Requires p odd and r = 0, n m != 0.
    """
    if p == 2 or T.r != 0 or T.n == 0 or T.m == 0:
        raise ValueError("exact mode requires p odd, r = 0 and n, m nonzero")
    n, m = T.n, T.m
    X = Fraction(1, p**s)
    vn, vm = valuation(n, p), valuation(m, p)
    total = Fraction(0)
    for i in range(0, vn + 2):
        Ri = _ramanujan(p, i, n)
        for l in range(0, vm + 2):
            Rl = _ramanujan(p, l, m)
            base = max(i, l)
            if i == 0 or l == 0:
                if Ri == 0 or Rl == 0:
                    continue
                total = total + Ri * Rl * _m_mu(p, base, None, None, chi_at_p, X)
                continue
            GG = _gauss_product(p, n, m, i, l)
            RR = Fraction(Ri * Rl)
            if RR == 0 and GG == 0:
                continue
            vsum = i + l
            m_plus = _m_mu(p, base, vsum, +1, chi_at_p, X)
            m_minus = _m_mu(p, base, vsum, -1, chi_at_p, X)
            total = total + (RR + GG) / 2 * m_plus + (RR - GG) / 2 * m_minus
    return total


# ---------------------------------------------------------------------------
# plain truncated Riemann sum (any T), with a crude certified tail


def brute_force_local_integral(
    T: HalfIntegralForm,
    p: int,
    chi,
    s: int,
    window: TruncationWindow | None = None,
    certify: Fraction | None = None,
):
    """Truncated Riemann sum for the local triple integral.

    `chi` is None (or unramified data) for the spherical case, else ramified
    LocalCharacterData.  The integrand is constant on integral-coset cells,
    so the sum over representatives of p^(-A) Z_p / Z_p per variable is the
    exact integral over the window; the returned tail bounds the rest of
    Q_p^3 by |f| <= p^(-s max(shells)) summed in closed form.

    The phase of a cell is psi(n lam0 + r mu0 + m kap0) with every coordinate
    u / p^A, so its exponent is (n u_lam + r u_mu + m u_kap) mod p^A.  Cells
    are counted in a histogram keyed by (integrand value, phase exponent),
    and each key is converted to mpc once.

    Returns (value: mpc, window: TruncationWindow with its tail filled in).
    """
    if window is None:
        window = TruncationWindow(4, 0, Fraction(0))
    A = window.A
    ramified = chi is not None and chi.n_p > 0
    if ramified:
        tail = _riemann_tail_bound_ramified(p, s, A, chi.n_p)
    else:
        tail = _riemann_tail_bound(p, s, A)
    if certify is not None and tail > certify:
        raise UncertifiedOracleError(
            f"window A={A} certifies only {float(tail):.3g} > requested {float(certify):.3g}"
        )
    n, r, m = T.n, T.r, T.m
    q = p**A
    zeta = chi.chi_at_p if chi is not None else Fraction(1)
    reps = [Fraction(u, q) for u in range(q)]
    cells: dict[tuple, int] = {}
    for u_lam, lam0 in enumerate(reps):
        for u_mu, mu0 in enumerate(reps):
            e0 = n * u_lam + r * u_mu
            for u_kap, kap0 in enumerate(reps):
                if ramified:
                    val = _f_integrand_value(mu0, kap0, lam0, chi, s)
                else:
                    val = _f_lower_spherical(mu0, kap0, lam0, p, zeta, s)
                if val == 0:
                    continue
                key = (val, (e0 + m * u_kap) % q)
                cells[key] = cells.get(key, 0) + 1
    # psi_p(x) = e(-{x}_p); the ramified integrand carries the inverse phase
    sign = 1 if ramified else -1
    with mp_workdps(32):
        total = mpmath.mpc(0)
        for (val, e), count in cells.items():
            total += count * to_mpc(val) * to_mpc(RootU(Fraction(sign * e, q)))
        return total, TruncationWindow(A, window.B, tail)


def _f_lower_spherical(mu0, kap0, lam0, p, zeta, s):
    minors = [Fraction(1), mu0, kap0, lam0, mu0 * mu0 - kap0 * lam0]
    w = -min(valuation(x, p) if x != 0 else 0 for x in minors)
    if w < 0:
        w = 0
    if isinstance(zeta, RootU):
        return (zeta**w).as_scalar() * Fraction(p) ** (-w * s)
    return Fraction(zeta) ** w * Fraction(p) ** (-w * s)


def _riemann_tail_bound(p: int, s: int, A: int) -> Fraction:
    """Bound for the mass outside the window: shells with max depth > A.

    On the profile (i, j, l) the weight satisfies w >= max(i, j, l, 0), so
    the omitted mass is at most 3 * sum_{i > A} p^i (1-1/p) (sum_{j <= i}
    p^j)^2 p^(-s i), summed in closed form (crude but rigorous).
    """
    # sum_{i > A} p^{i(1-s)} * p^{2i} * 3  (absorbing unit densities <= 1)
    t = Fraction(p) ** (3 - s)
    assert t < 1
    return 3 * t ** (A + 1) / (1 - t)


def _riemann_tail_bound_ramified(p: int, s: int, A: int, n_p: int) -> Fraction:
    """Outside-window bound for the ramified integrand.

    On its support, |f| = p^(s(min(v(lambda),0) - 2 n_p)); shells with
    v(lambda) = -i carry mass at most p^(3 n_p + 2i), so shells beyond the
    window (i > A - n_p, so that the forced v(mu) = -n_p - i fits) give a
    geometric series.
    """
    t = Fraction(p) ** (2 - s)
    assert t < 1
    i0 = max(A - n_p, 0) + 1
    return Fraction(p) ** (n_p * (3 - 2 * s)) * t**i0 / (1 - t)


# ---------------------------------------------------------------------------
# ramified integrals: K(s, T, chi) and the full I

def k_oracle(T: HalfIntegralForm, chi: LocalCharacterData, s: int):
    """K(s, T, chi) by direct evaluation of the defining j-sum, exactly.

    K = sum_{j >= 1 - n_p} p^(j(2-s)) int_{S(j+1, n_p)} chi(n/mu + r p^(-n_p)
    + m mu p^(-2n_p)) dmu.  Unit classes mu = u + p^d Z_p are refined
    adaptively until the valuation of F(mu) = n + r mu p^(-n_p) + m mu^2
    p^(-2n_p) and the unit class of the argument F(mu)/mu mod p^(n_p)
    stabilize, or until the class is seen to contribute exactly 0.

    The class tree is walked on the integer G(u) = p^(2n_p) F(u) = n
    p^(2n_p) + r u p^(n_p) + m u^2.  G has integer coefficients, so G(u + h)
    = G(u) mod p^d for v(h) >= d, and a class of depth d decides v(F) = v(G)
    - 2n_p exactly when p^d does not divide G(u).  A decided class is a leaf
    once d >= v(G) + n_p and d >= n_p; the unit class of its argument is
    then G(u) p^(-v(G)) u^(-1) mod p^(n_p).  Leaves are counted in a
    histogram keyed by (j, depth, unit class); the character value and the
    powers of p are applied once per key, so the walk itself is integer
    arithmetic.

    An undecided class with w = v(G'(u)) < d <= v(G(u)) - w and
    d + v(m) - w >= n_p holds one root u0 of G (Hensel's lemma), and G(x) =
    (x - u0)(G'(u0) + m (x - u0)) with the second factor = G'(u0) mod
    p^(w + n_p).  On a shell x = u0 + p^e t, t a unit, j = e + w - 2n_p and
    the unit class is t c u^(-1) mod p^(n_p) with c fixed; t runs over the
    units and chi is ramified, so the class adds exactly 0 and is dropped.
    (The conditions force d >= n_p, and p | G(u) forces w >= 1, so every
    shell has j >= 1 - n_p.)  G has simple roots (discriminant
    -p^(2n_p) Delta), so the walk ends.

    Returns (value, 0), the value exact: rational or cyclotomic.
    """
    p, n_p = chi.p, chi.n_p
    n, r, m = T.n, T.r, T.m
    if T.delta == 0:
        raise ValueError("K needs nonsingular T")
    if n_p < 1:
        raise ValueError("the K oracle needs a ramified chi_p (n_p >= 1)")
    # Depth bound, with D = v(disc G) = 2n_p + v(Delta).  At depth d >= d0 =
    # D/2 + 1 + max(0, n_p - 1 - v(m)) the class of a unit root u0 is dropped
    # (w = D/2, v(G(u)) >= d + D/2).  On an undecided class holding no root,
    # v(G) = v(m) + v(x - u0) + v(x - u1) <= D/2 + d0 - 1: one distance is at
    # most v(u0 - u1) = D/2 - v(m), the other below d0 (v(G) <= D for roots
    # outside Q_p).  A decided class needs at most n_p more levels.
    vm = _v(m, p)
    depth_cap = 3 * n_p + _v(T.delta, p) + max(0, n_p - 1 - vm)
    c0, c1 = n * p ** (2 * n_p), r * p**n_p
    mod = p**n_p
    pw = [p**d for d in range(depth_cap + 1)]
    # (j, d, unit class of the argument mod p^(n_p)) -> leaf classes
    leaves: dict[tuple[int, int, int], int] = {}
    # stack of classes (u, d): mu = u + p^d Z_p, u a unit mod p^d
    stack = [(u, 1) for u in range(1, p)]
    while stack:
        u, d = stack.pop()
        g = c0 + c1 * u + m * u * u
        v = _v(g, p)
        # the unit class of F(u)/u mod p^(n_p) depends on G mod p^(v + n_p)
        # and on u mod p^(n_p); both are fixed on the class once d reaches them
        if d >= v + n_p and d >= n_p:
            j = v - 2 * n_p
            if j < 1 - n_p:
                raise AssertionError("support violates j >= 1 - n_p")
            key = (j, d, g // pw[v] * pow(u, -1, mod) % mod)
            leaves[key] = leaves.get(key, 0) + 1
            continue
        if v >= d and (w := _v(c1 + 2 * m * u, p)) < d <= v - w and d + vm - w >= n_p:
            continue  # one simple root of G in the class: it adds exactly 0
        if d >= depth_cap:
            raise AssertionError(f"class tree deeper than its bound {depth_cap}")
        stack.extend((u + pw[d] * t, d + 1) for t in range(p))

    X = Fraction(p) ** (2 - s)
    total = Fraction(0)
    for (j, d, unit), count in leaves.items():
        val = (chi.chi_at_p**j * chi.unit_value(unit)).as_scalar()
        total = total + val * (count * Fraction(p) ** (-d) * X**j)
    return total, Fraction(0)


def ramified_integral_exact(T: HalfIntegralForm, chi: LocalCharacterData, s: int, i_max: int | None = None):
    """The ramified local triple integral, by summation over the support.

    The section is supported on two explicit families (the support lemma),
    so I = I_1 + I_2 with

      I_1: lambda in Z_p, v(mu) = -n, kappa in p^(-2n) Z_p,
      I_2: v(lambda) = -i < 0, v(mu) = -n - i, kappa in mu^2/lambda +
           p^(-2n) Z_p,

    each an explicit unit sum; the kappa integral contributes
    delta_(v(m) >= 2n) p^(2n) times a phase.  I_2 shells with i > i_max are
    bounded into the returned certificate.  By default i_max is the largest
    i >= 1 whose shell, about p^(2i + n_p) unit pairs, stays within 2*10^6.

    Returns (value: mpc at working precision, tail: Fraction).
    """
    p, n_p = chi.p, chi.n_p
    n, r, m = T.n, T.r, T.m
    if i_max is None:
        i_max = 1
        while p ** (2 * i_max + 2 + n_p) <= 2 * 10**6:
            i_max += 1
    if m != 0 and valuation(m, p) < 2 * n_p:
        return mpmath.mpc(0), Fraction(0)
    # Unit values as exponents in Q/Z for exact slot accumulation.
    qn = p**n_p
    inv_unit = {u: chi.unit_values[u].inverse() for u in chi.unit_values}
    with mp_workdps(32):
        # I_1: classes mu0 = u p^(-n_p), u a unit mod p^(n_p); each integral
        # over mu0 + Z_p contributes once; the kappa integral gave p^(2 n_p).
        acc = mpmath.mpc(0)
        for u in range(1, qn):
            if u % p == 0:
                continue
            ph = psi_phase(Fraction(r * u, qn), p).inverse()
            acc += to_mpc(inv_unit[u] * ph)
        I1 = mpmath.mpf(p) ** (2 * n_p - 2 * n_p * s) * to_mpc(chi.chi_at_p**n_p) * acc
        # I_2: shells v(lambda) = -i; classes ell mod p^i, u mod p^(n_p + i),
        # both units; phase n lam + r mu + m mu^2 / lam with lam = ell p^-i,
        # mu = u p^-(n_p + i).  Slot-histogram the p-power phases exactly.
        I2 = mpmath.mpc(0)
        m_red = m // p ** (2 * n_p) if m else 0
        for i in range(1, i_max + 1):
            qi, qmu = p**i, p ** (n_p + i)
            # phase = [n ell qmu/qi + r u + (m/p^(2n_p)) u^2 ell^(-1) qmu/qi] / qmu
            slots = {}
            scale = qmu // qi
            for ell in range(1, qi):
                if ell % p == 0:
                    continue
                ell_inv = pow(ell, -1, qmu)
                base = n * ell * scale
                for u in range(1, qmu):
                    if u % p == 0:
                        continue
                    num = (base + r * u + m_red * u * u % qmu * ell_inv * scale) % qmu
                    key = (num, u % qn)
                    slots[key] = slots.get(key, 0) + 1
            shell = mpmath.mpc(0)
            for (num, ucls), cnt in slots.items():
                ph = psi_phase(Fraction(num, qmu), p).inverse()
                shell += cnt * to_mpc(inv_unit[ucls] * ph)
            # chi(mu)^(-1) = chi_p(p)^(n_p + i) chi_u(u)^(-1)
            chi_pow = chi.chi_at_p ** (n_p + i)
            I2 += (
                mpmath.mpf(p) ** (2 * n_p - s * (i + 2 * n_p))
                * to_mpc(chi_pow)
                * shell
            )
        t_ratio = Fraction(p) ** (2 - s)
        tail = (
            Fraction(p) ** (3 * n_p - 2 * n_p * s)
            * t_ratio ** (i_max + 1)
            / (1 - t_ratio)
        )
        return I1 + I2, tail


# ---------------------------------------------------------------------------
# volumes of R(i, j), S(i, j) and the generating series


def _residue_valuation_counts(nrm: tuple, j: int, p: int, B: int):
    """Counts of v(n + r u p^(-j) + m u^2 p^(-2j)) over units u mod p^B.

    Returns (counts: dict v -> count, undecided: count of residues whose
    valuation is only known to be >= the decidability horizon, horizon).
    The residues are counted by unit classes u + p^d Z_p of the integer
    polynomial c(u) = c0 + c1 u + c2 u^2: as c(u + h) = c(u) mod p^d for
    v(h) >= d, a class whose value has valuation v < d holds p^(B-d)
    residues mod p^B, all of valuation v.  Only classes divisible by p^d are
    refined, down to single residues at d = B.
    """
    n, r, m = nrm
    t = 2 * max(j, 0)
    # integerized: p^t (n + r u p^-j + m u^2 p^-2j); true valuation = v - t
    c0, c1, c2 = n * p**t, r * p ** (t - j), m * p ** (t - 2 * j)
    horizon = B - t - 1  # true valuations >= horizon are not class-determined
    pw = [p**d for d in range(B + 1)]
    counts: dict[int, int] = {}
    undecided = 0
    stack = [(u, 1) for u in range(1, p)] if B > 0 else []
    while stack:
        u, d = stack.pop()
        val = c0 + c1 * u + c2 * u * u
        if val % pw[d] == 0:
            if d == B:
                undecided += 1
            else:
                stack.extend((u + pw[d] * k, d + 1) for k in range(p))
            continue
        v = _v(val, p)
        if v - t >= horizon:
            undecided += pw[B - d]
        else:
            counts[v - t] = counts.get(v - t, 0) + pw[B - d]
    return counts, undecided, horizon


def volume_R(i: int, j: int, T: HalfIntegralForm, p: int, B: int) -> Fraction:
    """vol R(i,j) = vol{mu unit : v(n + r mu p^(-j) + m mu^2 p^(-2j)) >= i}.

    Exact rational volume by counting unit residues mod p^B.  Raises if the
    depth cannot decide membership; B > i + 2|j| + v_p(Delta) suffices.
    """
    counts, undecided, horizon = _residue_valuation_counts((T.n, T.r, T.m), j, p, B)
    if undecided and i > horizon:
        raise UncertifiedOracleError(f"depth B={B} cannot decide v >= {i} at j={j}")
    count = undecided + sum(c for v, c in counts.items() if v >= i)
    return Fraction(count, p**B)


def volume_S(i: int, j: int, T: HalfIntegralForm, p: int, B: int) -> Fraction:
    return volume_R(i - 1, j, T, p, B) - volume_R(i, j, T, p, B)


def volume_R_exact(i: int, j: int, n: int, m: int, p: int) -> Fraction:
    """vol R(i,j) for r = 0 via the two-center volume, exact at any depth."""
    if n == 0 or m == 0:
        raise ValueError("needs n m != 0")
    c = Fraction(-n, m) * Fraction(p) ** (2 * j)
    beta = valuation(m, p) - 2 * j
    return vol_sq_shell_ge(p, c, i - beta)


class _Series:
    """Sparse bivariate polynomial in X, Y with Fraction coefficients."""

    def __init__(self, data=None):
        self.c = dict(data or {})

    @classmethod
    def term(cls, q, i=0, j=0):
        q = Fraction(q)
        return cls({(i, j): q} if q else {})

    def __add__(self, other):
        out = dict(self.c)
        for k, v in other.c.items():
            out[k] = out.get(k, Fraction(0)) + v
        return _Series({k: v for k, v in out.items() if v})

    def __sub__(self, other):
        return self + other * Fraction(-1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _Series({k: v * other for k, v in self.c.items()})
        out = {}
        for (i1, j1), v1 in self.c.items():
            for (i2, j2), v2 in other.c.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, Fraction(0)) + v1 * v2
        return _Series({k: v for k, v in out.items() if v})

    __rmul__ = __mul__

    def truncate(self, imax, jmax, jmin=0):
        return _Series(
            {k: v for k, v in self.c.items() if k[0] <= imax and jmin <= k[1] <= jmax and k[0] >= 0}
        )

    def coeff(self, i, j):
        return self.c.get((i, j), Fraction(0))


def _geom_series(var: str, order: int, power: int = 1) -> _Series:
    """1/(1 - X^power) resp. 1/(1 - Y^power) truncated at the given order."""
    out = {}
    k = 0
    while k * power <= order:
        key = (k * power, 0) if var == "X" else (0, k * power)
        out[key] = Fraction(1)
        k += 1
    return _Series(out)


def _geom_series_xy(a: int, b: int, order: int) -> _Series:
    """1/(1 - X^a Y^b) truncated (b may be negative)."""
    out = {}
    k = 0
    while k * a <= order and abs(k * b) <= 3 * order:
        out[(k * a, k * b)] = Fraction(1)
        k += 1
    return _Series(out)


def generating_series_check(
    n: int, m: int, p: int, x_order: int = 6, y_order: int = 6
) -> dict:
    """Term-by-term comparison of both generating-series identities.

    Expands the closed forms for sum vol(R(i, -j)) X^i Y^j (first identity)
    and sum vol(R(i, j)) X^i Y^j over 1 <= j <= v(m)/2 (second identity)
    against direct summation of exact volumes, to bidegree (x_order,
    y_order).  Assumes r = 0, n m != 0, p odd.  Returns a report dict.
    """
    vn, vm = valuation(n, p), valuation(m, p)
    # L-data for -nm
    sq = -n * m
    vsq = valuation(sq, p)
    L = 0 if vsq % 2 else _leg_frac(Fraction(sq), p)
    absL_Lp1 = abs(L) * (L + 1)
    one = Fraction(1)
    unit_vol = one - Fraction(1, p)

    report = {"params": (n, m, p), "mismatches": [], "checked": 0}

    # ---- first identity: A and B pieces (j runs over -j, phases none)
    invY = _geom_series("Y", y_order)
    # A1(i) + A2(i) for each i, against direct sums
    for i in range(0, x_order + 1):
        closed = _Series()
        if i <= vn:
            shift = max(0, (i - vm + 1) // 2)  # floor, clamped at 0
            closed = closed + _Series.term(unit_vol, 0, shift) * invY
        if vm <= vn and i > vn and absL_Lp1:
            # Y-exponent (vn - vm)/2 is integral whenever the term survives
            closed = closed + _Series.term(
                absL_Lp1 * Fraction(p) ** (vn - i), 0, (vn - vm) // 2
            )
        closed = closed.truncate(x_order, y_order)
        for jj in range(0, y_order + 1):
            direct = volume_R_exact(i, -jj, n, m, p)
            got = closed.coeff(0, jj)
            report["checked"] += 1
            if direct != got:
                report["mismatches"].append(("A", i, jj, got, direct))

    # B1 + B2 (sum over i >= 1)
    invX = _geom_series("X", x_order)
    invYX2 = _geom_series_xy(2, 1, x_order + y_order)  # 1/(1 - Y X^2): X^2 Y
    B = _Series()
    e_min = min(vn, vm)
    B = B + unit_vol * _Series.term(1, 1, 0) * (
        _Series.term(1) - _Series.term(1, e_min, 0)
    ) * invX * invY
    if vm <= vn:
        k1 = (vn - vm + 1) // 2
        k2 = (vn - vm) // 2
        inner = (
            _Series.term(1)
            - _Series.term(1, 2 * k1, k1)
            + _Series.term(1, 1, 0) * (_Series.term(1) - _Series.term(1, 2 * k2, k2))
        )
        B = B + unit_vol * _Series.term(1, vm + 1, 1) * inner * invY * invYX2
        if absL_Lp1:
            px = _Series({(k, 0): Fraction(1, p**k) for k in range(x_order + 1)})
            B = B + _Series.term(Fraction(absL_Lp1, p), vn + 1, (vn - vm) // 2) * px
    B = B.truncate(x_order, y_order)
    for i in range(1, x_order + 1):
        for jj in range(0, y_order + 1):
            direct = volume_R_exact(i, -jj, n, m, p)
            got = B.coeff(i, jj)
            report["checked"] += 1
            if direct != got:
                report["mismatches"].append(("B", i, jj, got, direct))

    # ---- second identity: C and D pieces, 1 <= j <= floor(vm/2)
    jcap = vm // 2
    for i in range(0, x_order + 1):
        closed = _Series()
        if i <= e_min:
            top = (vm - i + 2) // 2
            closed = closed + _Series.term(unit_vol, 0, 0) * _Series(
                {(0, jj): Fraction(1) for jj in range(1, max(top, 1))}
            )
        if vm > vn and i > vn and absL_Lp1:
            closed = closed + _Series.term(
                absL_Lp1 * Fraction(1, p ** (i - vn)), 0, (vm - vn) // 2
            )
        closed = closed.truncate(x_order, y_order)
        for jj in range(1, min(jcap, y_order) + 1):
            direct = volume_R_exact(i, jj, n, m, p)
            got = closed.coeff(0, jj)
            report["checked"] += 1
            if direct != got:
                report["mismatches"].append(("C", i, jj, got, direct))

    D = _Series()
    e = e_min
    D = D + unit_vol * _Series.term(1, 0, 1) * (
        _Series.term(1) - _Series.term(1, e + 1, 0)
    ) * invX * invY
    invX2Ym1 = _geom_series_xy(2, -1, x_order + y_order)  # 1/(1 - X^2 Y^-1)
    k1 = (e + 1) // 2
    k2 = (e + 2) // 2
    piece = _Series.term(1, 1, (vm + 1) // 2) * (
        _Series.term(1) - _Series.term(1, 2 * k1, -k1)
    ) + _Series.term(1, 0, (vm + 2) // 2) * (_Series.term(1) - _Series.term(1, 2 * k2, -k2))
    D = D - unit_vol * piece * invY * invX2Ym1
    if vm > vn and absL_Lp1:
        px = _Series({(k, 0): Fraction(1, p**k) for k in range(x_order + 1)})
        D = D + _Series.term(Fraction(absL_Lp1, p), vn + 1, (vm - vn) // 2) * px
    D = D.truncate(x_order, y_order, jmin=0)
    for i in range(0, x_order + 1):
        for jj in range(1, min(jcap, y_order) + 1):
            direct = volume_R_exact(i, jj, n, m, p)
            got = D.coeff(i, jj)
            report["checked"] += 1
            if direct != got:
                report["mismatches"].append(("D", i, jj, got, direct))
    report["ok"] = not report["mismatches"]
    return report


# ---------------------------------------------------------------------------
# bootstrap of the minor-valuation evaluation


def sl2_lower_identity(x: Fraction) -> bool:
    """The 2x2 identity used throughout the reductions, checked exactly:

    [[1,0],[x,1]] = [[1,1/x],[0,1]] [[-1/x,0],[0,-x]] [[0,1],[-1,0]] [[1,1/x],[0,1]].
    """
    if x == 0:
        raise ValueError("x must be nonzero")
    a = ((1, Fraction(1, x)), (0, 1))
    b = ((Fraction(-1, x), 0), (0, -x))
    w = ((0, 1), (-1, 0))

    def mul2(u, v):
        return tuple(
            tuple(sum(u[i][k] * v[k][j] for k in range(2)) for j in range(2)) for i in range(2)
        )

    rhs = mul2(mul2(mul2(a, b), w), a)
    return rhs == ((1, 0), (Fraction(x), 1))


def _random_p_element(rng: random.Random, p: int) -> tuple[Mat, int]:
    """Random element of the Siegel parabolic with rational entries.

    Returns (q, v) with v = v_p(u^(-1) det A) known by construction.
    """
    while True:
        A = [
            [
                Fraction(rng.randint(-9, 9)) * Fraction(p) ** rng.randint(-2, 2)
                for _ in range(2)
            ]
            for _ in range(2)
        ]
        det = A[0][0] * A[1][1] - A[0][1] * A[1][0]
        if det != 0:
            break
    u = Fraction(rng.choice([1, -1, 2, 3, 5, 7])) * Fraction(p) ** rng.randint(-2, 2)
    # A-hat = w A^(-t) w with w = antidiag(1, 1): entries (wMw)_ij = M_(1-i)(1-j)
    Ainv = _inv2(A)
    AinvT = [[Ainv[0][0], Ainv[1][0]], [Ainv[0][1], Ainv[1][1]]]
    Ahat = [[AinvT[1][1], AinvT[1][0]], [AinvT[0][1], AinvT[0][0]]]
    q = _mat(
        [
            [A[0][0], A[0][1], 0, 0],
            [A[1][0], A[1][1], 0, 0],
            [0, 0, u * Ahat[0][0], u * Ahat[0][1]],
            [0, 0, u * Ahat[1][0], u * Ahat[1][1]],
        ]
    )
    # multiply by an upper unipotent inside P
    x, y, z = (Fraction(rng.randint(-6, 6)) for _ in range(3))
    q = mat_mul(q, upper_unipotent(x, y, z))
    v = valuation(det / u, p)
    return q, v


def _random_integral_k(rng: random.Random, p: int) -> Mat:
    """Random element of GSp(4, Z_p)-integral type with unit similitude."""
    gens = []
    for _ in range(rng.randint(4, 10)):
        c = rng.randrange(6)
        if c == 0:
            gens.append(S1)
        elif c == 1:
            gens.append(S2)
        elif c == 2:
            gens.append(upper_unipotent(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3)))
        elif c == 3:
            gens.append(lower_unipotent(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3)))
        elif c == 4:
            a = rng.choice([1, -1, 1 + p, 1 - p])
            b = rng.choice([1, -1, 1 + p])
            u = rng.choice([1, -1])
            gens.append(_mat([[a, 0, 0, 0], [0, b, 0, 0], [0, 0, Fraction(u, b), 0], [0, 0, 0, Fraction(u, a)]]))
        else:
            x = rng.choice([1, 2, p - 1, p + 1])
            gens.append(c0_matrix(x))
    return mat_mul(*gens)


def bootstrap_minor_valuation(p: int, trials: int, seed: int) -> int:
    """Validate the minor-valuation rule on elements q k with known value.

    Also re-checks the 2x2 lower-triangular identity on random nonzero x.
    Returns the number of successful trials; raises on any failure.
    """
    rng = random.Random(seed)
    for t in range(trials):
        x = Fraction(rng.randint(1, 50), rng.randint(1, 50)) * Fraction(p) ** rng.randint(-3, 3)
        if not sl2_lower_identity(x):
            raise AssertionError(f"2x2 identity failed at x = {x}")
        q, v = _random_p_element(rng, p)
        k = _random_integral_k(rng, p)
        g = mat_mul(q, k)
        w = spherical_weight(g, p)
        if w != v:
            raise AssertionError(f"trial {t}: minor rule gave {w}, construction gave {v}")
    return trials
