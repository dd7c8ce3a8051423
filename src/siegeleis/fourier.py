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
         at each p | N (with K(k, T, chi_p) where p | r, from
         `ramified_K`) times
         f_Nhat^(3-2k) eta(f_Nhat^2) H~(e_Nhat, f_Nhat) times
         L(k-1, chi_D eta) / (L(k, eta) L(2k-2, eta^2)).  The epsilon
         factors inside the I_p multiply to (-1)^k G(eta) / sqrt(N), so no
         global Gauss sum is inserted.

The factors that depend only on the spec -- the places p | N with their
chi_p, and the two constants (-2 pi i)^k / ((k-1)! L(k, eta)) and
(4 pi)^(2k-1) / (2 (2k-2)! L(k, eta) L(2k-2, eta^2)) -- live in one
context per (spec, working precision), built by `_spec_invariants`.  So
each T multiplies only its own factors, L(k-1, chi_D eta) and one constant.

Everything but the L-values is exact: pi-powers, sqrt(|D|) and the
cyclotomic numbers of the local factors are carried in `Exact`.  Exact
L-values multiply in exactly, so for N = 1 every value is an exact
rational (pi^(1-k) of the rank-2 constant cancels against
L(k-1, chi_D)).  For N > 1, L(k, eta) at least is numeric; the numeric
L-values are multiplied in last, and the values are high-precision complex.

`eichler_zagier_coefficient` is a level-one comparator built from Cohen's
H function: a fully rational second route through divisor sums and
Cohen's formula instead of local factors and the functional equation.  It
is not independent of the assembly in its L-values: `cohen_h` here and
`l_quadratic_exact` in `_rank2` both take B_(n, chi_D) from
`lvalues.generalized_bernoulli`, so a defect there would pass the
assembly-vs-comparator tests.  That kernel is guarded on its own by
`test_generalized_bernoulli_matches_definition`, against a full-range sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

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
from .localfactors import RamifiedPlaceInput, h_tilde, ramified_K, ramified_local_factor
from .lvalues import bernoulli, cohen_h, dirichlet_l, l_quadratic_exact
from .scalars import Exact, get_precision, mp_workdps, to_mpc

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
    """Under oracle_policy "forbid": K at this prime has no closed form."""

    def __init__(self, p: int):
        self.p = p
        super().__init__(
            f"K(s, T, chi_{p}) has no closed form (p = 2 or chi_{p} not quadratic) "
            f"and oracle_policy 'forbid' refuses its defining sum"
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


class _SpecContext:
    """What a(T) needs of the spec alone: the places p | N and two constants.

    `places` holds the pairs (p, chi_p) for p | N in ascending p.  `rank1`
    and `rank2` are the constants

        (-2 pi i)^k / ((k-1)! L(k, eta))
        4^(2k-1) pi^(2k-1) / (2 (2k-2)! L(k, eta) L(2k-2, eta^2)),

    each as the pair (exact part, product of its numeric L-values or None):
    the constant is the exact part divided by that product.  At N = 1 every
    L-value is exact, so the product is None.  The L-values are read on the
    first use of a constant, so a zero found at a ramified place reads none.
    """

    def __init__(self, spec: EisensteinSpec):
        self.spec = spec
        self.places = tuple((p, local_component(spec.eta, p)) for p, _ in factorize(spec.N))

    @cached_property
    def _l_k(self):
        return dirichlet_l(self.spec.k, self.spec.eta)

    @cached_property
    def rank1(self) -> tuple[Exact, object]:
        k = self.spec.k
        val = Exact(Fraction((-2) ** k, math.factorial(k - 1)), k) * RootU(Fraction(k, 4))
        return _constant(val, [self._l_k])

    @cached_property
    def rank2(self) -> tuple[Exact, object]:
        k = self.spec.k
        val = Exact(Fraction(4 ** (2 * k - 1), 2 * math.factorial(2 * k - 2)), 2 * k - 1)
        return _constant(val, [self._l_k, dirichlet_l(2 * k - 2, power_character(self.spec.eta, 2))])


def _constant(val: Exact, lvalues) -> tuple[Exact, object]:
    """val over the product of lvalues, as the pair of `_SpecContext`.

    That is val over the exact L-values, and the product of the numeric
    ones (None when there is none).
    """
    numeric = None
    for L in lvalues:
        if isinstance(L, Exact):
            val = val / L
        else:
            with mp_workdps():
                numeric = L if numeric is None else numeric * L
    return val, numeric


@lru_cache(maxsize=None)
def _spec_invariants(spec: EisensteinSpec, bits: int) -> _SpecContext:
    """The `_SpecContext` of spec, once per (spec, working precision in bits).

    The precision is part of the key because the numeric L-values in the
    constants are computed at it.
    """
    return _SpecContext(spec)


def coefficient(spec: EisensteinSpec, T: HalfIntegralForm, oracle_policy: str = "allow") -> CoefficientRecord:
    """The Fourier coefficient a(T), exact for N = 1, numeric for N > 1.

    At each place p | N with p | r, K is taken by `ramified_K`: from the
    closed-form table where it has a row, from the exact defining sum
    elsewhere; the record's notes name the route per place.  An exact K = 0
    from either gives a zero record.  oracle_policy "forbid" raises
    UnsupportedPlaceError at a place whose K only the defining sum gives;
    the default "allow" takes it.
    """
    if oracle_policy not in ("allow", "forbid"):
        raise ValueError(f"oracle_policy must be 'allow' or 'forbid', not {oracle_policy!r}")
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
    context = _spec_invariants(spec, get_precision())
    if T.rank == 1:
        return _rank1(spec, context, T)
    return _rank2(spec, context, T, oracle_policy)


def _record(T: HalfIntegralForm, val: Exact, constant: tuple[Exact, object], notes: list, L_D=None) -> CoefficientRecord:
    """The record of val times a spec constant of `_SpecContext`, times L_D if given.

    The exact part of the constant and an exact L_D multiply into val.  The
    rest is numeric: after one conversion of val, a numeric L_D multiplies
    in and the constant's product of numeric L-values divides out, at
    working precision.  The record is exact-rational when nothing numeric
    is left and val is rational.
    """
    exact, numeric = constant
    val = val * exact
    if isinstance(L_D, Exact):
        val, L_D = val * L_D, None
    if numeric is None and L_D is None and val.is_rational():
        return CoefficientRecord(T, val.as_fraction(), "exact-rational", notes)
    with mp_workdps():
        z = to_mpc(val)
        if L_D is not None:
            z = z * L_D
        if numeric is not None:
            z = z / numeric
        return CoefficientRecord(T, z, "numeric", notes)


def _rank1(spec: EisensteinSpec, context: _SpecContext, T: HalfIntegralForm) -> CoefficientRecord:
    k, eta, N = spec.k, spec.eta, spec.N
    val = Exact.of(1)
    if N > 1:
        # nonzero only for m > 0 with r_N = (2m)_N / N
        if T.m <= 0 or T.r == 0 or split_by_level(T.r, N).r_N * N != split_by_level(2 * T.m, N).r_N:
            return CoefficientRecord(T, Fraction(0), "zero")
        val *= eta(split_by_level(T.r, N).r_Nhat) * eta(split_by_level(2, N).r_Nhat).inverse()
    e_split = split_by_level(content(T), N)
    val *= divisor_sum(e_split.r_Nhat, k - 1, eta) * Fraction(e_split.r_N) ** (k - 1)
    return _record(T, val, context.rank1, [])


def _rank2(spec: EisensteinSpec, context: _SpecContext, T: HalfIntegralForm, oracle_policy: str) -> CoefficientRecord:
    k, eta, N = spec.k, spec.eta, spec.N
    split = fundamental_discriminant(T.r * T.r - 4 * T.n * T.m)
    D, f = split.D, split.f
    # det(T)^(k-3/2) = (Delta/4)^(k-2) * (f/2) sqrt(-D)
    val = Fraction(T.delta, 4) ** (k - 2) * Fraction(f, 2) * Exact.sqrt(-D)
    # the ramified places first, so an exactly vanishing K skips the L-values
    notes = []
    for p, chi_p in context.places:
        place = RamifiedPlaceInput(p, chi_p, T, k)
        K_val, note = ramified_K(place)
        if oracle_policy == "forbid" and note.endswith("K-oracle(exact)"):
            raise UnsupportedPlaceError(p)
        if K_val == 0:
            # exactly 0, but numeric like every other rank-2 value at N > 1: prints 0.0,0.0
            return CoefficientRecord(T, mpmath.mpc(0), "zero", [note])
        val *= ramified_local_factor(place, K_val)
        notes.append(note)
    e_hat = split_by_level(content(T), N).r_Nhat
    f_hat = split_by_level(f, N).r_Nhat
    val *= Fraction(f_hat) ** (3 - 2 * k) * eta(f_hat * f_hat) * h_tilde(D, k, eta, e_hat, f_hat)
    L_D = l_quadratic_exact(k - 1, D) if N == 1 else dirichlet_l(k - 1, product_with_kronecker(eta, D))
    return _record(T, val, context.rank2, notes, L_D)


def expand(spec: EisensteinSpec, trace_bound: int, suppress_zero: bool = True) -> list[CoefficientRecord]:
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
    records = [coefficient(spec, T) for T in forms]
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
    zeta, no local factors.  B_(k-1, chi_D) comes from the same
    `generalized_bernoulli` as the assembly's L(k-1, chi_D).
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
