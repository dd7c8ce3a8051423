"""Global Fourier coefficients a(T) of the weight-k level-N^2 series.

For a primitive character eta mod N with eta(-1) = (-1)^k and k >= 4 the
coefficients are supported on positive semidefinite T = [[n, r/2], [r/2, m]]
with N^2 | m.  The three branches, one formula each for every N:

rank 0:  1 exactly when N = 1;
rank 1:  (-2 pi i)^k / (k-1)! times the twisted divisor sum over the content
         over L(k, eta); for N > 1 nonzero only when m > 0 and
         r_N = (2m)_N / N, with the extra factor eta(r_Nhat) / eta(2_Nhat);
rank 2:  archimedean prefactor (4 pi)^(2k-1) det(T)^(k-3/2) / (2 (2k-2)!)
         times the ramified local factor I_p(T) of `ramified_local_factor`
         at each p | N (with K(k, T, chi_p) where p | r) times
         f_Nhat^(3-2k) eta(f_Nhat^2) H~(e_Nhat, f_Nhat) times
         L(k-1, chi_D eta) / (L(k, eta) L(2k-2, eta^2)).  The epsilon
         factors inside the I_p multiply to (-1)^k G(eta) / sqrt(N), so no
         global Gauss sum is inserted.

Everything but the L-values is exact: pi-powers, sqrt(|D|) and the
cyclotomic numbers of the local factors are carried in `Exact`.  Exact
L-values multiply in exactly, so for N = 1 every value is an exact
rational.  For N > 1, L(k, eta) at least is numeric; the numeric L-values
are multiplied in last, and the values are high-precision complex.

`eichler_zagier_coefficient` is an independent level-one comparator built
from Cohen's H function via generalized Bernoulli numbers: a fully rational
second route that shares no code with the assembly above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import mpmath

from .arith import (
    HalfIntegralForm,
    content,
    divisor_sum,
    divisors,
    factorize,
    fundamental_discriminant,
    split_by_level,
)
from .characters import (
    DirichletCharacter,
    local_component,
    parity,
    power_character,
    product_with_kronecker,
)
from .cyclotomic import RootU
from .localfactors import K_closed_form, RamifiedPlaceInput, h_tilde, ramified_local_factor
from .lvalues import bernoulli, cohen_h, dirichlet_l, l_quadratic_exact
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


@lru_cache(maxsize=None)
def _spec_invariants(spec: EisensteinSpec):
    """The pairs (p, chi_p) for p | N in ascending p, once per spec."""
    return tuple((p, local_component(spec.eta, p)) for p, _ in factorize(spec.N))


def coefficient(spec: EisensteinSpec, T: HalfIntegralForm, oracle_policy: str = "forbid") -> CoefficientRecord:
    """The Fourier coefficient a(T), exact for N = 1, numeric for N > 1.

    oracle_policy governs places p | N where K has no closed form:
    "forbid" raises UnsupportedPlaceError, "allow" falls back to the exact
    defining-sum oracle, "force" uses the oracle even where the closed form
    exists (for cross-checking).  An exact K = 0 from either gives a zero record.
    """
    N = spec.N
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


def _record(T: HalfIntegralForm, val: Exact, lvalues, notes: list) -> CoefficientRecord:
    """The record of val times L^e over the pairs (L, e), e = +-1, in lvalues.

    Exact L-values are multiplied into val.  The numeric ones are multiplied
    in last, at working precision, after one conversion of the exact part.
    The record is exact-rational when the product is a rational Exact.
    """
    numeric = []
    for L, e in lvalues:
        if isinstance(L, Exact):
            val = val * L if e > 0 else val / L
        else:
            numeric.append((L, e))
    if not numeric and val.is_rational():
        return CoefficientRecord(T, val.as_fraction(), "exact-rational", notes)
    with mp_workdps():
        z = to_mpc(val)
        for L, e in numeric:
            z = z * L if e > 0 else z / L
        return CoefficientRecord(T, z, "numeric", notes)


def _rank1(spec: EisensteinSpec, T: HalfIntegralForm) -> CoefficientRecord:
    k, eta, N = spec.k, spec.eta, spec.N
    # (-2 pi i)^k / (k-1)!
    val = Exact(Fraction((-2) ** k, math.factorial(k - 1)), k) * RootU(Fraction(k, 4))
    if N > 1:
        # nonzero only for m > 0 with r_N = (2m)_N / N
        if T.m <= 0 or T.r == 0 or split_by_level(T.r, N).r_N * N != split_by_level(2 * T.m, N).r_N:
            return CoefficientRecord(T, Fraction(0), "zero")
        val *= eta(split_by_level(T.r, N).r_Nhat) * eta(split_by_level(2, N).r_Nhat).inverse()
    e_split = split_by_level(content(T), N)
    val *= divisor_sum(e_split.r_Nhat, k - 1, eta) * Fraction(e_split.r_N) ** (k - 1)
    return _record(T, val, [(dirichlet_l(k, eta), -1)], [])


def _rank2(spec: EisensteinSpec, T: HalfIntegralForm, oracle_policy: str) -> CoefficientRecord:
    k, eta, N = spec.k, spec.eta, spec.N
    split = fundamental_discriminant(T.r * T.r - 4 * T.n * T.m)
    D, f = split.D, split.f
    # det(T)^(k-3/2) = (Delta/4)^(k-2) * (f/2) sqrt(-D)
    val = Exact(Fraction(4 ** (2 * k - 1), 2 * math.factorial(2 * k - 2)), 2 * k - 1)
    val *= Fraction(T.delta, 4) ** (k - 2) * Fraction(f, 2) * Exact.sqrt(-D)
    # the ramified places first, so an exactly vanishing K skips the L-values
    notes = []
    for p, chi_p in _spec_invariants(spec):
        place = RamifiedPlaceInput(p, chi_p, T, k)
        if T.r % p:
            K_val, note = None, f"p={p}:unit"
        else:
            res = K_closed_form(place)
            if res.provenance == "needs-oracle" or oracle_policy == "force":
                if oracle_policy == "forbid":
                    raise UnsupportedPlaceError(p)
                from .oracle import k_oracle

                K_val, note = k_oracle(T, chi_p, k)[0], f"p={p}:K-oracle(exact)"
            else:
                K_val, note = res.value, f"p={p}:K-closed-form"
            if K_val == 0:
                # exactly 0, but numeric like every other rank-2 value at N > 1: prints 0.0,0.0
                return CoefficientRecord(T, mpmath.mpc(0), "zero", [note])
        val *= ramified_local_factor(place, K_val)
        notes.append(note)
    e_hat = split_by_level(content(T), N).r_Nhat
    f_hat = split_by_level(f, N).r_Nhat
    val *= Fraction(f_hat) ** (3 - 2 * k) * eta(f_hat * f_hat) * h_tilde(D, k, eta, e_hat, f_hat)
    L_D = l_quadratic_exact(k - 1, D) if N == 1 else dirichlet_l(k - 1, product_with_kronecker(eta, D))
    L_eta = dirichlet_l(k, eta)
    L_eta2 = dirichlet_l(2 * k - 2, power_character(eta, 2))
    return _record(T, val, [(L_D, 1), (L_eta, -1), (L_eta2, -1)], notes)


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
