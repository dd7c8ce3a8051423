"""Regenerate the reference values in perfbench/refs/ (run from the repo root).

    PYTHONPATH=src python3 perfbench/make_refs.py

Level-one values are exact and each one is cross-checked against the
independent comparator `fourier.eichler_zagier_coefficient`; generation
stops on the first disagreement.  N > 1 values are computed at
REF_PRECISION_BITS, above the default 192 bits, and printed with REF_DIGITS
digits, more than the 20 the program prints.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checker import write_reference  # noqa: E402
from workloads import CLI_WORKLOADS, scatter_candidates  # noqa: E402

from siegeleis import scalars  # noqa: E402
from siegeleis.arith import HalfIntegralForm  # noqa: E402
from siegeleis.characters import DirichletCharacter  # noqa: E402
from siegeleis.cli import build_parser  # noqa: E402
from siegeleis.fourier import (  # noqa: E402
    EisensteinSpec,
    coefficient,
    eichler_zagier_coefficient,
    expand,
    format_value,
)

REF_PRECISION_BITS = 320
REF_DIGITS = 40


def _value(spec: EisensteinSpec, rec) -> str:
    if spec.N == 1:
        want = eichler_zagier_coefficient(rec.T, spec.k)
        if not isinstance(rec.value, Fraction) or rec.value != want:
            raise SystemExit(f"k={spec.k} T={rec.T}: {rec.value} != comparator {want}")
        return str(rec.value)
    return format_value(rec, REF_DIGITS)


def expand_reference(argv: list[str]) -> dict:
    args = build_parser().parse_args(argv)
    spec = EisensteinSpec(args.weight, DirichletCharacter.from_label(args.character))
    return {(rec.T.n, rec.T.r, rec.T.m): _value(spec, rec) for rec in expand(spec, args.bound)}


def scatter_reference() -> dict:
    out = {}
    specs = {}
    for q in scatter_candidates():
        spec = specs.setdefault(
            (q.character, q.k), EisensteinSpec(q.k, DirichletCharacter.from_label(q.character))
        )
        rec = coefficient(spec, HalfIntegralForm(q.n, q.r, q.m), oracle_policy=q.oracle_policy)
        out[q.key] = _value(spec, rec)
    return out


def main() -> None:
    scalars.set_precision(REF_PRECISION_BITS)
    header = (
        f"reference values; N > 1 at {REF_PRECISION_BITS} bits, {REF_DIGITS} digits;"
        " level one exact and checked against eichler_zagier_coefficient"
    )
    refs = HERE / "refs"
    refs.mkdir(exist_ok=True)
    for name, argv in CLI_WORKLOADS.items():
        write_reference(refs / f"{name}.txt", expand_reference(argv), f"siegeleis {' '.join(argv)}\nkey: n r m\n{header}")
        print(f"{name}: done", flush=True)
    write_reference(refs / "coeff-scatter.txt", scatter_reference(), f"every query any seed can draw\nkey: character k n r m\n{header}")
    print("coeff-scatter: done", flush=True)


if __name__ == "__main__":
    main()
