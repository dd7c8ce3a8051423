"""Named verification suites: closed forms against independent oracles.

Each suite returns (ok, lines); the CLI prints the lines and exits nonzero
on failure, and the acceptance tests assert `ok` per suite.  All randomness
is seeded and the seed is reported.
"""

from __future__ import annotations

import functools
import math
import time
from fractions import Fraction

import mpmath

from .arith import (
    HalfIntegralForm,
    fundamental_discriminant,
    kronecker_symbol,
    valuation,
)
from .characters import (
    DirichletCharacter,
    LocalCharacterData,
    gauss_sum,
    kronecker_character,
    primitive_characters_mod,
)
from .cyclotomic import RootU, root_of_unity
from .fourier import EisensteinSpec, coefficient, eichler_zagier_coefficient
from .localfactors import (
    GoodPlaceInput,
    K_closed_form,
    RamifiedPlaceInput,
    curve_count_ap,
    curve_count_ap_naive,
    unramified_local_factor,
)
from .oracle import (
    bootstrap_minor_valuation,
    generating_series_check,
    k_oracle,
    unramified_integral_exact,
    volume_R,
)
from .scalars import mp_workdps

__all__ = ["SUITES", "run_suite"]


def _nonresidue(p: int) -> int:
    for q in range(2, p):
        if pow(q, (p - 1) // 2, p) == p - 1:
            return q
    raise ValueError


def _quadratic_local(p: int, chi_at_p: int = 1) -> LocalCharacterData:
    """The ramified quadratic local character at odd p, chi(p) = +-1.

    eta_p is the Legendre symbol mod p, the character chi_(p*) of the prime
    discriminant p* = +-p.
    """
    legendre = kronecker_character(p if p % 4 == 1 else -p)
    return LocalCharacterData(p, 1, RootU(0 if chi_at_p == 1 else Fraction(1, 2)), legendre)


def _within_budget(elapsed: float, budget: float, lines: list) -> bool:
    """Whether a suite ran in under `budget` seconds; a line says so when it did not."""
    if elapsed < budget:
        return True
    lines.append(f"  over the time budget: {elapsed:.2f}s, budget {budget:g}s")
    return False


def suite_n1_classical(seed: int = 0):
    """a(n,0,0) = 240 sigma_3(n) for k = 4, N = 1, 1 <= n <= 10, exactly."""
    t0 = time.perf_counter()
    spec = EisensteinSpec(4, DirichletCharacter(1, 1))
    lines = []
    ok = True
    for n in range(1, 11):
        got = coefficient(spec, HalfIntegralForm(n, 0, 0)).value
        want = 240 * sum(d**3 for d in range(1, n + 1) if n % d == 0)
        if got != want:
            ok = False
            lines.append(f"  n={n}: got {got}, want {want}")
    elapsed = time.perf_counter() - t0
    lines.append(f"classical rank-1 values, n = 1..10, exact ({elapsed:.3f}s)")
    return _within_budget(elapsed, 1.0, lines) and ok, lines


def suite_eichler_zagier(seed: int = 0):
    """coefficient() == generalized-Bernoulli comparator, k in {4, 6}.

    All psd T with 4nm - r^2 <= 100 inside the entry box n, m <= 25 (every
    class (Delta, content) with Delta <= 100 is realized there).
    """
    t0 = time.perf_counter()
    lines = []
    ok = True
    checked = 0
    for k in (4, 6):
        spec = EisensteinSpec(k, DirichletCharacter(1, 1))
        for n in range(0, 26):
            for m in range(0, 26):
                rb = math.isqrt(4 * n * m)
                for r in range(-rb, rb + 1):
                    T = HalfIntegralForm(n, r, m)
                    if T.delta > 100 or not T.is_positive_semidefinite():
                        continue
                    lhs = coefficient(spec, T).value
                    rhs = eichler_zagier_coefficient(T, k)
                    checked += 1
                    if lhs != rhs:
                        ok = False
                        lines.append(f"  k={k} T={T}: assembly {lhs} != comparator {rhs}")
    elapsed = time.perf_counter() - t0
    lines.append(f"Eichler-Zagier reduction: {checked} forms, exact equality ({elapsed:.1f}s)")
    return _within_budget(elapsed, 60.0, lines) and ok, lines


def _good_T(p: int, e: int, f: int, L: int) -> HalfIntegralForm:
    """Diagonal T = diag(n, m) realizing (e_p, f_p, chi_D(p)) = (e, f, L)."""
    q = _nonresidue(p)
    d = 0 if L else 1
    n_unit, m_unit = 1, 1
    if L:
        # L = leg(-4 n' m') = leg(-1) leg(n' m'); arrange leg(n' m') = L leg(-1)
        leg_m1 = 1 if p % 4 == 1 else -1
        if L * leg_m1 == -1:
            m_unit = q
    n = p**e * n_unit
    m = p ** (2 * f - e + d) * m_unit
    T = HalfIntegralForm(n, 0, m)
    split = fundamental_discriminant(-T.delta)
    assert min(valuation(n, p), valuation(m, p)) == e
    assert (valuation(T.delta, p) - (valuation(split.D, p) if split.D % p == 0 else 0)) // 2 == f
    assert kronecker_symbol(split.D, p) == L, (n, m, split.D, L)
    return T


def suite_unramified(seed: int = 0):
    """Closed-form good-place integral vs the exact triple-integral oracle.

    p in {3, 5}, chi_p(p) in {1, -1}, s in {4, 5}, (e_p, f_p) over
    e <= f <= 2, chi_D(p) in {-1, 0, 1}; the oracle value is exact (the
    shell summation has certified truncation error 0 < p^(-10)).
    """
    t0 = time.perf_counter()
    lines = []
    ok = True
    checked = 0
    for p in (3, 5):
        for e in range(0, 3):
            for f in range(e, 3):
                for L in (-1, 0, 1):
                    T = _good_T(p, e, f, L)
                    for zeta in (1, -1):
                        for s in (4, 5):
                            formula = unramified_local_factor(GoodPlaceInput(p, Fraction(zeta), L, e, f, s))
                            oracle = unramified_integral_exact(T, p, Fraction(zeta), s)
                            checked += 1
                            if formula != oracle:
                                ok = False
                                lines.append(
                                    f"  p={p} (e,f,L)=({e},{f},{L}) zeta={zeta} s={s}: "
                                    f"{formula} != {oracle}"
                                )
    elapsed = time.perf_counter() - t0
    lines.append(
        f"unramified local formula: {checked} parameter points, exact agreement "
        f"(oracle tail = 0 < p^-10) ({elapsed:.1f}s)"
    )
    return _within_budget(elapsed, 600.0, lines) and ok, lines


def suite_volumes(seed: int = 0):
    """Every row of the volume table at p in {3, 5}, i in 0..4, depth B = 8."""
    t0 = time.perf_counter()
    lines = []
    ok = True
    checked = 0
    one = Fraction(1)
    for p in (3, 5):
        q = _nonresidue(p)
        # (n, m, j, row label); square class of -nm arranged per row
        configs = [
            (1, p**4, 0, "2j < v(m)-v(n)"),
            (1, p**4, 1, "2j < v(m)-v(n)"),
            (p**2, 1, 0, "2j > v(m)-v(n)"),
            (1, p**2, 2, "2j > v(m)-v(n)"),
            (-1, 1, 0, "2j = v(m)-v(n), -nm square"),
            (-1, p**2, 1, "2j = v(m)-v(n), -nm square"),
            (-q, 1, 0, "2j = v(m)-v(n), -nm nonsquare"),
            (-q, p**2, 1, "2j = v(m)-v(n), -nm nonsquare"),
        ]
        for (n, m, j, label) in configs:
            vn, vm = valuation(n, p), valuation(m, p)
            sq = -n * m
            T = HalfIntegralForm(n, 0, m)
            for i in range(0, 5):
                got = volume_R(i, j, T, p, 8)
                # table value
                if 2 * j < vm - vn:
                    want = (1 - one / p) if i <= vn else Fraction(0)
                elif 2 * j > vm - vn:
                    want = (1 - one / p) if i + 2 * j <= vm else Fraction(0)
                else:
                    unit = sq // p ** valuation(sq, p)
                    square = pow(unit % p, (p - 1) // 2, p) == 1
                    if i <= vn:
                        want = 1 - one / p
                    elif square:
                        want = 2 * Fraction(p) ** (vn - i)
                    else:
                        want = Fraction(0)
                checked += 1
                if got != want:
                    ok = False
                    lines.append(f"  p={p} {label} (n,m,j,i)=({n},{m},{j},{i}): {got} != {want}")
    elapsed = time.perf_counter() - t0
    lines.append(f"volume table: {checked} row instances at depth B = 8, exact ({elapsed:.2f}s)")
    return ok, lines


def suite_series(seed: int = 0):
    """Both generating-series identities to bidegree (6, 6), 12 combos."""
    t0 = time.perf_counter()
    lines = []
    ok = True
    combos = [
        (1, 1, 3), (9, 1, 3), (1, 9, 3), (2, 9, 3), (1, 18, 3), (2, 45, 3),
        (25, 1, 5), (1, 25, 5), (2, 50, 5), (4, 75, 5), (27, 3, 3), (1, 81, 3),
    ]
    for (n, m, p) in combos:
        rep = generating_series_check(n, m, p, 6, 6)
        if not rep["ok"]:
            ok = False
            lines.append(f"  (n,m,p)=({n},{m},{p}): first mismatches {rep['mismatches'][:3]}")
    elapsed = time.perf_counter() - t0
    lines.append(
        f"generating series: {len(combos)} parameter combos, term-by-term to (6,6) ({elapsed:.2f}s)"
    )
    return ok, lines


def suite_k_table(seed: int = 0):
    """Every K-table row at p in {3, 5}, n_p = 1, quadratic chi, equal to the j-sum."""
    t0 = time.perf_counter()
    lines = []
    ok = True
    checked = 0
    for p in (3, 5):
        for chi_at_p in (1, -1):
            chi = _quadratic_local(p, chi_at_p)
            cases = [
                (1, 0, p**2), (1, 0, 2 * p**2), (2, 0, p**2), (1, 0, p**3), (1, 0, p**4),
                (p, 0, p**3), (1, p, p**2), (1, 2 * p**2, p**2), (p, p, p**3),
                (p**2, p, p**2), (1, p, p**3), (p**2, p**2, p**2), (2, p**2, p**4),
                (1, p, 2 * p**2), (2, p, p**2), (1, 3 * p, 2 * p**2), (4, 2 * p, p**2),
                (1, p, 5 * p**2), (3, p, p**2), (1, p, p**4), (p, p**2, p**3),
            ]
            for (n, r, m) in cases:
                T = HalfIntegralForm(n, r, m)
                if T.delta == 0:
                    continue
                for s in (4, 5):
                    res = K_closed_form(RamifiedPlaceInput(p, chi, T, s))
                    oracle = k_oracle(T, chi, s)[0]
                    checked += 1
                    if res.value != oracle:
                        ok = False
                        lines.append(f"  p={p} chi(p)={chi_at_p} T={T} s={s}: {res.value} != {oracle}")
    elapsed = time.perf_counter() - t0
    lines.append(
        f"K table: {checked} instances (both chi(p) signs), closed form == defining sum ({elapsed:.2f}s)"
    )
    return ok, lines


def _fundamental_discs(bound: int) -> list[int]:
    out = []
    for d in range(-bound, bound + 1):
        if d in (0,):
            continue
        if d % 4 in (0, 1):
            try:
                if fundamental_discriminant(d).f == 1:
                    out.append(d)
            except ValueError:
                pass
    return out


def suite_point_counts(seed: int = 0):
    """a_p by Legendre sum vs naive enumeration, p <= 50, |D| <= 20; Hasse."""
    t0 = time.perf_counter()
    lines = []
    ok = True
    checked = 0
    primes = [p for p in range(3, 51, 2) if all(p % q for q in range(2, p))]
    for D in _fundamental_discs(20):
        for p in primes:
            a1 = curve_count_ap(D, p)
            a2 = curve_count_ap_naive(D, p)
            checked += 1
            if a1 != a2:
                ok = False
                lines.append(f"  D={D} p={p}: {a1} != {a2}")
            if abs(a1) >= 2 * math.sqrt(p):
                ok = False
                lines.append(f"  D={D} p={p}: |a_p| = {abs(a1)} violates Hasse")
    elapsed = time.perf_counter() - t0
    lines.append(
        f"point counts: {checked} (D, p) pairs, Legendre vs enumeration + Hasse ({elapsed:.2f}s)"
    )
    return ok, lines


# Guard bits of the fixed-point roots: a nonzero part of e(k/n) has size at
# least 1/n, so a root read at `prec` bits is a multiple of
# 2^-(prec + _GUARD) for every n below 2^30.
_GUARD = 32


def _fixed(x: mpmath.mpf, scale: int) -> int:
    """x * 2^scale, which must be an integer."""
    sign, man, exp, _ = x._mpf_
    if not man:
        return 0
    assert exp + scale >= 0, "fixed-point root not exact"
    return (-man if sign else man) << (exp + scale)


@functools.lru_cache(maxsize=None)
def _fixed_root(k: int, n: int, prec: int) -> tuple[int, int]:
    """e(k/n) from `root_of_unity` at `prec` bits, as its exact integer
    parts times 2^(prec + _GUARD); e(k/n) for 2k > n is read as the
    conjugate of e((n - k)/n)."""
    if 2 * k > n:
        x, y = _fixed_root(n - k, n, prec)
        return x, -y
    z = root_of_unity(k, n)
    scale = prec + _GUARD
    return _fixed(z.real, scale), _fixed(z.imag, scale)


def gauss_sum_numeric(eta):
    """G(eta) as an mpc at working precision, from Gaussian periods.

    The units a mod N fall into classes by the phase j of eta(a) = e(j/ord);
    the period P_j sums e(a/N) over the class, and G(eta) = sum_j e(j/ord) P_j.
    Every root is read once per precision from `root_of_unity` as an exact
    fixed-point integer pair (`_fixed_root`), so the periods and their
    products with the e(j/ord) are exact integer sums, rounded once.
    """
    with mp_workdps():
        if eta.modulus == 1:
            return mpmath.mpc(1)
        N, order, prec = eta.modulus, eta.order(), mpmath.mp.prec
        periods: dict[int, list[int]] = {}
        for a in range(1, N):
            j = eta._phase(a)
            if j is not None:
                x, y = _fixed_root(a, N, prec)
                period = periods.setdefault(j, [0, 0])
                period[0] += x
                period[1] += y
        re = im = 0
        for j, (x, y) in periods.items():
            c, d = _fixed_root(j, order, prec)
            re += c * x - d * y
            im += c * y + d * x
        exp = -2 * (prec + _GUARD)
        return mpmath.mpc(mpmath.mpf((re, exp)), mpmath.mpf((im, exp)))


def suite_gauss_sums(seed: int = 0):
    """|G(eta)|^2 = N for primitive eta, N <= 50 (exact when quadratic)."""
    t0 = time.perf_counter()
    lines = []
    ok = True
    checked = exact_checked = 0
    with mp_workdps():
        tol = mpmath.mpf(10) ** -25
        for N in range(1, 51):
            for eta in primitive_characters_mod(N):
                if eta.order() <= 2:
                    g = gauss_sum(eta)
                    gg = g * g.conjugate()
                    exact_checked += 1
                    if not (gg.is_rational() and gg.as_fraction() == N):
                        ok = False
                        lines.append(f"  eta={eta.label}: exact |G|^2 = {gg} != {N}")
                val = gauss_sum_numeric(eta)
                checked += 1
                if abs(abs(val) ** 2 - N) > tol:
                    ok = False
                    lines.append(f"  eta={eta.label}: |G|^2 = {abs(val)**2} != {N}")
    elapsed = time.perf_counter() - t0
    lines.append(
        f"Gauss sums: {checked} primitive characters to 1e-25, {exact_checked} exact quadratic "
        f"({elapsed:.2f}s)"
    )
    return ok, lines


def suite_support(seed: int = 0):
    """a(T) = 0 off the support, exhaustively over |n|,|r|,|m| <= 12, N = 3."""
    t0 = time.perf_counter()
    lines = []
    ok = True
    spec = EisensteinSpec(5, DirichletCharacter(3, 2))
    checked = 0
    for n in range(-12, 13):
        for r in range(-12, 13):
            for m in range(-12, 13):
                T = HalfIntegralForm(n, r, m)
                if T.is_positive_semidefinite() and T.m % 9 == 0:
                    continue  # inside the support; nothing claimed
                rec = coefficient(spec, T)
                checked += 1
                if not rec.is_zero():
                    ok = False
                    lines.append(f"  T={T}: expected 0, got {rec.value}")
    elapsed = time.perf_counter() - t0
    lines.append(
        f"structural support: {checked} off-support forms, all zero (N = 3, k = 5) ({elapsed:.2f}s)"
    )
    return ok, lines


def suite_bootstrap(seed: int = 1234):
    """Minor-valuation evaluation of the section vs constructed decompositions."""
    lines = []
    ok = True
    for p in (3, 5):
        t0 = time.perf_counter()
        try:
            n = bootstrap_minor_valuation(p, 200, seed)
            elapsed = time.perf_counter() - t0
            lines.append(
                f"bootstrap p={p}: {n} random parabolic-times-integral elements, exact "
                f"(seed {seed}) ({elapsed:.2f}s)"
            )
        except (AssertionError, ValueError) as exc:
            # a failed check, or a draw that left the similitude group
            ok = False
            lines.append(f"  p={p}: {exc}")
    return ok, lines


SUITES = {
    "n1-classical": suite_n1_classical,
    "eichler-zagier": suite_eichler_zagier,
    "unramified": suite_unramified,
    "volumes": suite_volumes,
    "series": suite_series,
    "k-table": suite_k_table,
    "point-counts": suite_point_counts,
    "gauss-sums": suite_gauss_sums,
    "support": suite_support,
    "bootstrap-oracle": suite_bootstrap,
}


def run_suite(name: str, seed: int = 1234):
    if name == "all":
        ok_all, lines = True, []
        for key, fn in SUITES.items():
            ok, sub = fn(seed)
            ok_all = ok_all and ok
            lines.append(f"[{'PASS' if ok else 'FAIL'}] {key}")
            lines.extend("    " + ln for ln in sub)
        return ok_all, lines
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; available: {', '.join(SUITES)} or 'all'")
    ok, lines = SUITES[name](seed)
    return ok, [f"[{'PASS' if ok else 'FAIL'}] {name}"] + ["    " + ln for ln in lines]
