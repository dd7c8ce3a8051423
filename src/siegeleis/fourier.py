"""Global Fourier coefficients a(T) of the weight-k level-N^2 series.

For a primitive character eta mod N with eta(-1) = (-1)^k and k >= 4 the
coefficients are supported on positive semidefinite T = [[n, r/2], [r/2, m]]
with N^2 | m.  The three branches:

rank 0:  1 exactly when N = 1;
rank 1:  nonzero for N = 1, or when m > 0 and r_N = (2m)_N / N, with a
         twisted divisor sum over the content;
rank 2:  archimedean prefactor (4 pi)^(2k-1) det(T)^(k-3/2) / (2 (2k-2)!)
         times N^(2-2k) f_Nhat^(3-2k) eta(f_Nhat^2) H~(e_Nhat, f_Nhat)
         times L(k-1, chi_D eta) / (L(k, eta) L(2k-2, eta^2)) times G(eta)
         times the product over p | N of chi_p(r) (p not dividing r) or
         p^(n_p(2-k)) chi_p(p^(n_p)) K(k, T, chi_p) (p | r).

For N = 1 every value is an exact rational: pi-powers and sqrt(|D|) are
carried symbolically and cancel between the prefactor, the zeta values and
the quadratic L-value.  For N > 1 values are high-precision complex.

`eichler_zagier_coefficient` is an independent level-one comparator built
from Cohen's H function via generalized Bernoulli numbers: a fully rational
second route that shares no code with the assembly above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath

from .arith import (
    HalfIntegralForm,
    content,
    divisor_sum,
    divisors,
    fundamental_discriminant,
    split_by_level,
    valuation,
)
from .characters import (
    DirichletCharacter,
    local_component,
    gauss_sum,
    parity,
    power_character,
    product_with_kronecker,
)
from .localfactors import K_closed_form, RamifiedPlaceInput
from .lvalues import bernoulli, cohen_h, dirichlet_l, l_quadratic_exact, zeta
from .scalars import Exact, mp_workdps, to_mpc

__all__ = [
    "EisensteinSpec",
    "CoefficientRecord",
    "UnsupportedPlaceError",
    "coefficient",
    "expand",
    "eichler_zagier_coefficient",
    "format_value",
]


class UnsupportedPlaceError(Exception):
    """No closed form for K at this prime and the oracle is disabled."""

    def __init__(self, p: int):
        self.p = p
        super().__init__(
            f"K(s, T, chi_{p}) has no implemented closed form (p = 2 or chi_{p} "
            f"not quadratic); rerun with the oracle enabled"
        )


@dataclass(frozen=True)
class EisensteinSpec:
    """Weight k >= 4 and a primitive character eta with eta(-1) = (-1)^k."""

    k: int
    eta: DirichletCharacter

    def __post_init__(self):
        if self.k < 4:
            raise ValueError("weight must be at least 4")
        if not self.eta.is_primitive():
            raise ValueError(
                f"character {self.eta.label} has conductor {self.eta.conductor()} "
                f"< modulus {self.eta.modulus}; the construction needs a primitive character"
            )
        if parity(self.eta) != self.k % 2:
            raise ValueError(
                f"parity mismatch: eta(-1) = {(-1) ** parity(self.eta)} but k = {self.k}"
            )

    @property
    def N(self) -> int:
        return self.eta.modulus


@dataclass
class CoefficientRecord:
    T: HalfIntegralForm
    value: object  # Fraction | mpmath.mpc
    mode: str  # "exact-rational" | "numeric" | "zero"
    notes: list = field(default_factory=list)

    def is_zero(self) -> bool:
        return self.mode == "zero"


def _local_data(spec: EisensteinSpec):
    from .arith import factorize

    return {p: local_component(spec.eta, p) for p, _ in factorize(spec.N)} if spec.N > 1 else {}


def coefficient(spec: EisensteinSpec, T: HalfIntegralForm, oracle_policy: str = "forbid") -> CoefficientRecord:
    """The Fourier coefficient a(T), exact for N = 1, numeric for N > 1.

    oracle_policy governs places p | N where K has no closed form:
    "forbid" raises UnsupportedPlaceError, "allow" falls back to the
    defining-sum oracle, "force" uses the oracle even where the closed form
    exists (for cross-checking).
    """
    k, eta, N = spec.k, spec.eta, spec.N
    zero = CoefficientRecord(T, Fraction(0), "zero")
    if not T.is_positive_semidefinite():
        return zero
    if T.m % (N * N):
        return zero
    if T.rank == 0:
        if N == 1:
            return CoefficientRecord(T, Fraction(1), "exact-rational")
        return zero
    if T.rank == 1:
        return _rank1(spec, T)
    return _rank2(spec, T, oracle_policy)


def _rank1(spec: EisensteinSpec, T: HalfIntegralForm) -> CoefficientRecord:
    k, eta, N = spec.k, spec.eta, spec.N
    e = content(T)
    if N == 1:
        # Both rank-1 branches collapse to sigma_(k-1)(content) at level 1;
        # k is even, so (-2 pi i)^k = (-1)^(k/2) (2 pi)^k.
        sign = -1 if (k // 2) % 2 else 1
        num = Exact(Fraction(sign * 2**k, math.factorial(k - 1)), k)
        sigma = divisor_sum(e, k - 1)
        val = num * sigma / zeta(k).value
        return CoefficientRecord(T, val.as_fraction(), "exact-rational")
    # N > 1: nonzero only for m > 0 with r_N = (2m)_N / N
    if T.m <= 0 or T.r == 0:
        return CoefficientRecord(T, Fraction(0), "zero")
    r_split = split_by_level(T.r, N)
    m2_split = split_by_level(2 * T.m, N)
    if r_split.r_N * N != m2_split.r_N:
        return CoefficientRecord(T, Fraction(0), "zero")
    e_split = split_by_level(e, N)
    two_split = split_by_level(2, N)
    with mp_workdps():
        val = (-2j * mpmath.pi) ** k / math.factorial(k - 1)
        val *= to_mpc(divisor_sum(e_split.r_Nhat, k - 1, eta))
        val /= dirichlet_l(k, eta).to_mpc()
        val *= to_mpc(eta(r_split.r_Nhat)) / to_mpc(eta(two_split.r_Nhat))
        val *= mpmath.mpf(e_split.r_N) ** (k - 1)
        return CoefficientRecord(T, mpmath.mpc(val), "numeric")


def _rank2(spec: EisensteinSpec, T: HalfIntegralForm, oracle_policy: str) -> CoefficientRecord:
    k, eta, N = spec.k, spec.eta, spec.N
    split = fundamental_discriminant(T.r * T.r - 4 * T.n * T.m)
    D, f = split.D, split.f
    e = content(T)
    notes = []
    if N == 1:
        from .localfactors import h_tilde

        # det(T)^(k-3/2) = (Delta/4)^(k-2) * (f/2) sqrt(-D)
        pref = Exact(Fraction(4 ** (2 * k - 1), 2 * math.factorial(2 * k - 2)), 2 * k - 1)
        pref *= Fraction(T.delta, 4) ** (k - 2) * Fraction(f, 2)
        pref *= Exact.sqrt(-D)
        val = pref * Fraction(f) ** (3 - 2 * k) * h_tilde(D, k, eta, e, f)
        val = val * l_quadratic_exact(k - 1, D)
        val = val / zeta(k).value / zeta(2 * k - 2).value
        return CoefficientRecord(T, val.as_fraction(), "exact-rational", notes)
    # N > 1: the place factors first, so an exactly vanishing K skips the L-values
    places = []  # (p, chi_p, K or None at a unit place)
    for p, chi_p in sorted(_local_data(spec).items()):
        if T.r != 0 and T.r % p:
            places.append((p, chi_p, None))
            notes.append(f"p={p}:unit")
            continue
        res = K_closed_form(RamifiedPlaceInput(p, chi_p, T, k))
        if res.provenance == "needs-oracle" or oracle_policy == "force":
            if oracle_policy == "forbid":
                raise UnsupportedPlaceError(p)
            from .oracle import k_oracle

            K_val, bound = k_oracle(T, chi_p, k)
            places.append((p, chi_p, K_val))
            notes.append(f"p={p}:K-oracle(tail<{float(bound):.2e})")
        elif res.value == 0:
            # exactly 0, but numeric like every other rank-2 value at N > 1: prints 0.0,0.0
            return CoefficientRecord(T, mpmath.mpc(0), "zero", [f"p={p}:K-closed-form"])
        else:
            places.append((p, chi_p, res.value))
            notes.append(f"p={p}:K-closed-form")
    e_hat = split_by_level(e, N).r_Nhat
    f_hat = split_by_level(f, N).r_Nhat
    from .localfactors import h_tilde

    with mp_workdps():
        val = (4 * mpmath.pi) ** (2 * k - 1) / (2 * mpmath.factorial(2 * k - 2))
        val *= (mpmath.mpf(T.delta) / 4) ** (mpmath.mpf(2 * k - 3) / 2)
        val *= mpmath.mpf(N) ** (2 - 2 * k) * mpmath.mpf(f_hat) ** (3 - 2 * k)
        val *= to_mpc(eta(f_hat * f_hat))
        val *= to_mpc(h_tilde(D, k, eta, e_hat, f_hat))
        val *= dirichlet_l(k - 1, product_with_kronecker(eta, D)).to_mpc()
        val /= dirichlet_l(k, eta).to_mpc() * dirichlet_l(2 * k - 2, power_character(eta, 2)).to_mpc()
        val *= to_mpc(gauss_sum(eta))
        for p, chi_p, K_val in places:
            if K_val is None:
                val *= to_mpc(chi_p.value(T.r))
                continue
            val *= mpmath.mpf(p) ** (chi_p.n_p * (2 - k))
            val *= to_mpc(chi_p.chi_at_p**chi_p.n_p)
            val *= to_mpc(K_val)
        return CoefficientRecord(T, mpmath.mpc(val), "numeric", notes)


def expand(
    spec: EisensteinSpec,
    trace_bound: int,
    suppress_zero: bool = True,
    oracle_policy: str = "forbid",
) -> list[CoefficientRecord]:
    """All coefficients with T positive semidefinite, N^2 | m, n + m <= bound.

    Deterministic order by (n + m, n, r).
    """
    if trace_bound < 0:
        raise ValueError("trace bound must be >= 0")
    N2 = spec.N * spec.N
    forms = [HalfIntegralForm(0, 0, 0)]
    for total in range(1, trace_bound + 1):
        for n in range(0, total + 1):
            m = total - n
            if m % N2:
                continue
            rbound = math.isqrt(4 * n * m)
            for r in range(-rbound, rbound + 1):
                forms.append(HalfIntegralForm(n, r, m))
    records = [coefficient(spec, T, oracle_policy) for T in forms]
    records.sort(key=lambda rec: (rec.T.n + rec.T.m, rec.T.n, rec.T.r))
    if suppress_zero:
        records = [rec for rec in records if not rec.is_zero()]
    return records


def eichler_zagier_coefficient(T: HalfIntegralForm, k: int) -> Fraction:
    """Level-one coefficient by the classical route, exact rational.

    Normalized so the constant term is 1:

        a(T) = (-2k / B_k) / zeta(3 - 2k) * sum_{d | e} d^(k-1)
               H(k-1, Delta / d^2)

    for nonzero psd T with content e and Delta = 4 n m - r^2, where H is
    Cohen's function (H(k-1, 0) = zeta(3-2k) recovers the rank-1 divisor
    sums).  Entirely generalized-Bernoulli arithmetic; no pi, no Hurwitz
    zeta, independent of the adelic assembly.
    """
    if k < 4 or k % 2:
        raise ValueError("the comparator needs even k >= 4 (level one)")
    if T.rank == 0:
        return Fraction(1)
    if not T.is_positive_semidefinite():
        return Fraction(0)
    e = content(T)
    zeta_neg = -bernoulli(2 * k - 2) / (2 * k - 2)  # zeta(3 - 2k)
    lead = Fraction(-2 * k) / bernoulli(k) / zeta_neg
    total = Fraction(0)
    for d in divisors(e):
        total += Fraction(d) ** (k - 1) * cohen_h(k - 1, T.delta // (d * d))
    return lead * total


def format_value(rec: CoefficientRecord, digits: int = 20) -> str:
    """Stable text form: exact rationals as num/den, numerics as re,im pair."""
    if isinstance(rec.value, Fraction):
        return str(rec.value)
    with mp_workdps():
        z = mpmath.mpc(rec.value)
        return f"{mpmath.nstr(z.real, digits)},{mpmath.nstr(z.imag, digits)}"
