"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test runs the corresponding named verification suite and prints a
single pass/fail line; `pytest -s tests/test_acceptance.py` shows them all.
Tolerances are pinned here and inside the suites: exact equality where
stated (the K table included), 10^-25 for Gauss sums, certified oracle
tails below p^-10 for the unramified comparison (the exact shell summation
in fact certifies 0).
"""

import pytest

from siegeleis.verify import SUITES

SEED = 1234


def _run(name):
    ok, lines = SUITES[name](SEED)
    print(f"[{'PASS' if ok else 'FAIL'}] criterion: {name}")
    for line in lines:
        print("   ", line)
    assert ok, f"criterion {name} failed: {lines}"


def test_criterion_1_classical_rank1():
    # k = 4, N = 1: a(n,0,0) = 240 sigma_3(n), 1 <= n <= 10, exact, < 1 s
    _run("n1-classical")


def test_criterion_2_eichler_zagier():
    # k in {4, 6}, N = 1: assembly == generalized-Bernoulli comparator,
    # every psd T with 4nm - r^2 <= 100, exact rational equality, < 1 min
    _run("eichler-zagier")


def test_criterion_3_unramified_formula():
    # p in {3,5}, chi_p(p) in {1,-1}, s in {4,5}, e <= f <= 2, chi_D(p) in
    # {-1,0,1}: closed form vs brute-force triple integral within the
    # certified tail < p^-10 (the oracle is exact, tail 0), < 10 min
    _run("unramified")


def test_criterion_4_volume_table():
    # every volume-table row at p in {3,5}, i in 0..4, depth B = 8, exact
    _run("volumes")


def test_criterion_5_generating_series():
    # both series identities to bidegree (6,6), 12 parameter combinations
    _run("series")


def test_criterion_6_k_table():
    # every K-table row at p in {3,5}, n_p = 1, quadratic chi: closed form
    # equals the defining j-sum exactly
    _run("k-table")


def test_criterion_7_point_counts():
    # a_p Legendre sum == naive enumeration, odd p <= 50, |D| <= 20; Hasse
    _run("point-counts")


def test_criterion_8_gauss_sums():
    # |G(eta)|^2 = N for every primitive eta, N <= 50, to 10^-25; exact
    # in the cyclotomic ring where eta is quadratic
    _run("gauss-sums")


def test_criterion_9_structural_support():
    # a(T) = 0 when N^2 does not divide m or T not psd, exhaustively over
    # |n|, |r|, |m| <= 12, for N = 3 with the odd quadratic character, k = 5
    _run("support")


def test_criterion_10_oracle_bootstrap():
    # minor-valuation evaluation agrees with direct decompositions on 200
    # seeded random elements over Q_3 and Q_5, exactly
    _run("bootstrap-oracle")
