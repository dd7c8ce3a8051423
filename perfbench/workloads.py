"""The four workloads and the inputs they feed the program.

The inputs are made here, on the benchmark side, from the workload seed; the
program sees only the generated inputs.  Nothing in this module imports the
program.

* ``expand-n1`` and ``expand-n3`` run fixed ``siegeleis expand`` commands.
  They have no free input, so every seed runs the same command and every
  seed has a stored reference.
* ``coeff-scatter`` runs single coefficient queries.  Every query has its
  own fundamental discriminant D (the discriminant of T is D f^2), so no
  query can reuse another's L-value, character or class.  The D are
  stratified by cost (see `scatter_queries`), so every seed has the same
  cost profile; the seed picks the level-one D and the query order.
* ``verify-oracles`` runs six verification suites; the seed goes to the
  suites (``bootstrap-oracle`` draws its random elements from it).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

CLI_WORKLOADS = {
    "expand-n1": ["expand", "-k", "4", "-c", "1:1", "--bound", "14"],
    "expand-n3": ["expand", "-k", "5", "-c", "3:2", "--bound", "12"],
}

VERIFY_SUITES = ["k-table", "unramified", "volumes", "bootstrap-oracle", "gauss-sums", "series"]

# The operations of verify-oracles: the oracle evaluations the suites call
# (their latencies give the percentiles there; six suite times would not).
VERIFY_OPERATIONS = [
    "k_oracle",
    "unramified_integral_exact",
    "volume_R",
    "generating_series_check",
    "bootstrap_minor_valuation",
]

WORKLOADS = [*CLI_WORKLOADS, "coeff-scatter", "verify-oracles"]

# Working precision handed to every child, so an inherited environment
# variable cannot change the work.
PRECISION_BITS = 192


@dataclass(frozen=True)
class ScatterSpec:
    character: str
    k: int
    queries: int
    d_max: int
    oracle_policy: str = "forbid"

    @property
    def N(self) -> int:
        return int(self.character.split(":")[0])


# Level one is cheap (its cost grows with |D|), so it takes the wide |D|
# range; the N > 1 specs cost about |D| * N each and share the narrow range.
# N > 1 is a fifth of the queries, so the p90 lands mid-way through the N > 1
# costs rather than on their steep tail.  The N > 1 specs come first: they
# take their D before level one does.
SCATTER_SPECS = [
    ScatterSpec("3:2", 5, 5, 80),
    ScatterSpec("5:4", 4, 5, 80),
    ScatterSpec("7:6", 5, 5, 80),
    ScatterSpec("5:2", 5, 5, 80, "allow"),
    ScatterSpec("1:1", 4, 40, 400),
    ScatterSpec("1:1", 6, 40, 400),
]
CHOICES = 3


@dataclass(frozen=True)
class Query:
    character: str
    k: int
    n: int
    r: int
    m: int
    D: int
    oracle_policy: str

    @property
    def key(self) -> tuple:
        return (self.character, self.k, self.n, self.r, self.m)


def _squarefree(n: int) -> bool:
    return all(n % (q * q) for q in range(2, math.isqrt(n) + 1))


def is_fundamental(D: int) -> bool:
    """D is a fundamental discriminant (D != 1)."""
    if D % 4 == 1:
        return _squarefree(abs(D))
    if D % 4 == 0:
        q = D // 4
        return q % 4 in (2, 3) and _squarefree(abs(q))
    return False


def form_for(spec: ScatterSpec, kind: str, D: int) -> tuple[int, int, int] | None:
    """A positive definite T = (n, r, m) with N^2 | m and fundamental part D.

    kind "unit": f = 1, so every p | N is prime to r (the chi_p(r) branch);
    needs D to be a square mod 4 N^2.  kind "ramified": r = N r0, m = N^2,
    so f = N and every p | N divides r (the K branch, the oracle for 5:2);
    needs D prime to N, so that chi_D eta keeps conductor |D| N and the
    L-value cost follows |D| N.
    """
    N = spec.N
    N2 = N * N
    if kind == "unit":
        for r in range(2 * N2):
            if (r * r - D) % (4 * N2) == 0:
                return ((r * r - D) // (4 * N2), r, N2)
        return None
    if math.gcd(D, N) != 1:
        return None
    r0 = D % 2
    return ((r0 * r0 - D) // 4, N * r0, N2)


def _kind(spec: ScatterSpec, bucket: int) -> str:
    if spec.N == 1:
        return "unit"
    return "unit" if bucket % 2 == 0 else "ramified"


def _admissible(spec: ScatterSpec, kind: str, D: int) -> bool:
    return is_fundamental(D) and form_for(spec, kind, D) is not None


def scatter_candidates() -> list[Query]:
    """Every query any seed can draw; the stored references cover all of them."""
    out = []
    for spec in SCATTER_SPECS:
        for kind in sorted({_kind(spec, b) for b in range(spec.queries)}):
            for absd in range(3, spec.d_max + 1):
                if _admissible(spec, kind, -absd):
                    out.append(_query(spec, kind, -absd))
    return out


def _query(spec: ScatterSpec, kind: str, D: int) -> Query:
    n, r, m = form_for(spec, kind, D)
    return Query(spec.character, spec.k, n, r, m, D, spec.oracle_policy)


def totient(n: int) -> int:
    out, rest, p = n, n, 2
    while p * p <= rest:
        if rest % p == 0:
            out -= out // p
            while rest % p == 0:
                rest //= p
        p += 1
    return out - out // rest if rest > 1 else out


def scatter_queries(seed: int) -> list[Query]:
    """The seeded query list: one D per bucket, all D distinct, shuffled.

    A query's cost follows phi(|D|): L-values and generalized Bernoulli
    numbers sum over the units mod the conductor |D| N.  So the buckets cut
    the range of phi(|D|).  At level one the seed picks among the CHOICES
    free admissible D whose phi(|D|) is nearest the bucket centre, so the
    inputs vary with the seed while the cost profile stays.  For N > 1 the
    admissible D are too sparse for that: a seeded pick moved the p90 by 15%
    between seeds.  There the nearest D is taken, the same for every seed.
    """
    rng = random.Random(seed)
    used: set[int] = set()
    queries = []
    for spec in SCATTER_SPECS:
        width = spec.d_max / spec.queries
        for b in range(spec.queries):
            kind = _kind(spec, b)
            centre = (b + 0.5) * width
            free = sorted(
                (d for d in range(3, spec.d_max + 1) if -d not in used and _admissible(spec, kind, -d)),
                key=lambda d: (abs(totient(d) - centre), d),
            )
            absd = rng.choice(free[: CHOICES if spec.N == 1 else 1])
            used.add(-absd)
            queries.append(_query(spec, kind, -absd))
    rng.shuffle(queries)
    return queries
