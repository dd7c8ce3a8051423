"""Command-line surface.

Subcommands: `coeff` (one Fourier coefficient), `expand` (all coefficients
up to a trace bound), `local` (closed-form local quantities, optionally next
to their oracle values), `verify` (the named acceptance suites).

Output is one record per line, JSONL by default or CSV, with stable field
names {n, r, m, value, mode, notes}.  Exact rationals are printed as
"num/den" strings, never as floats; numeric values as a "re,im" decimal
pair at the stated precision.

Exit codes: 0 success, 2 domain error, 3 unsupported place (no closed form
for K and the oracle disabled), 4 uncertified oracle window.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from . import __version__
from .arith import HalfIntegralForm
from .characters import DirichletCharacter
from .fourier import (
    CoefficientRecord,
    EisensteinSpec,
    UnsupportedPlaceError,
    coefficient,
    expand,
    format_value,
)
from .scalars import get_precision, set_precision

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_UNSUPPORTED_PLACE = 3
EXIT_UNCERTIFIED = 4


def _spec_from(args) -> EisensteinSpec:
    eta = DirichletCharacter.from_label(args.character)
    return EisensteinSpec(args.weight, eta)


def _record_fields(rec: CoefficientRecord) -> dict:
    return {
        "n": rec.T.n,
        "r": rec.T.r,
        "m": rec.T.m,
        "value": format_value(rec),
        "mode": rec.mode,
        "notes": ";".join(rec.notes),
    }


def _emit(rows: list[dict], fmt: str, header: dict | None = None) -> None:
    if fmt == "jsonl":
        if header is not None:
            print(json.dumps({"header": header}, sort_keys=True))
        for row in rows:
            print(json.dumps(row, sort_keys=True))
        return
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=["n", "r", "m", "value", "mode", "notes"])
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    sys.stdout.write(out.getvalue())


def _header(spec: EisensteinSpec) -> dict:
    return {
        "weight": spec.k,
        "character": spec.eta.label,
        "precision_bits": get_precision(),
        "version": __version__,
        # exact rationals at level one; for N > 1 values are floating
        # high-precision complex -- algebraicity over Q(eta-values) is not
        # claimed for N > 1
        "value_semantics": "exact-rational" if spec.N == 1 else "numeric-unproven-algebraicity",
    }


def cmd_coeff(args) -> int:
    spec = _spec_from(args)
    T = HalfIntegralForm(args.n, args.r, args.m)
    rec = coefficient(spec, T, oracle_policy=args.oracle)
    _emit([_record_fields(rec)], args.format)
    return EXIT_OK


def cmd_expand(args) -> int:
    spec = _spec_from(args)
    recs = expand(
        spec,
        args.bound,
        suppress_zero=not args.include_zero,
        oracle_policy=args.oracle,
    )
    _emit([_record_fields(r) for r in recs], args.format, header=_header(spec))
    return EXIT_OK


def _parse_T(text: str) -> HalfIntegralForm:
    try:
        n, r, m = (int(x) for x in text.split(","))
    except Exception as exc:
        raise ValueError(f"bad form {text!r}; expected 'n,r,m'") from exc
    return HalfIntegralForm(n, r, m)


def cmd_local(args) -> int:
    from .characters import LocalCharacterData
    from .cyclotomic import RootU
    from .localfactors import (
        GoodPlaceInput,
        K_closed_form,
        RamifiedPlaceInput,
        ramified_local_factor,
        unramified_local_factor,
    )
    from .oracle import k_oracle, ramified_integral_exact, volume_R
    from .scalars import to_mpc
    from .verify import _quadratic_local

    import mpmath

    if args.which == "unramified":
        inp = GoodPlaceInput(args.p, Fraction(args.chip), args.L, args.e, args.f, args.s)
        val = unramified_local_factor(inp)
        print(json.dumps({"which": "unramified", "value": str(val)}))
        return EXIT_OK
    if args.which == "volume":
        T = _parse_T(args.T)
        val = volume_R(args.i, args.j, T, args.p, args.B)
        print(json.dumps({"which": "volume", "value": str(val)}))
        return EXIT_OK
    chi = _quadratic_local(args.p, args.chip) if args.chi == "quad" else None
    if chi is None:
        eta = DirichletCharacter.from_label(args.character)
        from .characters import local_component

        chi = local_component(eta, args.p)
    T = _parse_T(args.T)
    if args.which == "K":
        res = K_closed_form(RamifiedPlaceInput(args.p, chi, T, args.s))
        oracle_val, bound = k_oracle(T, chi, args.s)
        row = {
            "which": "K",
            "closed_form": str(res.value) if res.provenance == "closed-form" else None,
            "provenance": res.provenance,
            "oracle": str(oracle_val),
            "oracle_tail": str(bound),
        }
        print(json.dumps(row))
        return EXIT_OK
    # ramified: closed form and oracle
    res = K_closed_form(RamifiedPlaceInput(args.p, chi, T, args.s))
    if res.provenance == "needs-oracle":
        K_val = k_oracle(T, chi, args.s)[0]
    else:
        K_val = res.value
    closed = ramified_local_factor(RamifiedPlaceInput(args.p, chi, T, args.s), K_val)
    oracle_val, tail = ramified_integral_exact(T, chi, args.s)
    diff = abs(to_mpc(closed) - oracle_val)
    print(
        json.dumps(
            {
                "which": "ramified",
                "closed_form": mpmath.nstr(to_mpc(closed), 25),
                "oracle": mpmath.nstr(oracle_val, 25),
                "difference": mpmath.nstr(diff, 5),
                "oracle_tail": str(tail),
            }
        )
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_suite

    print(f"seed: {args.seed}")
    ok, lines = run_suite(args.suite, args.seed)
    for line in lines:
        print(line)
    return EXIT_OK if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="siegeleis",
        description="Fourier coefficients of paramodular Siegel Eisenstein series",
    )
    ap.add_argument("--precision", type=int, default=None, help="working precision in bits")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, with_oracle=True):
        sp.add_argument("-k", "--weight", type=int, required=True)
        sp.add_argument("-c", "--character", required=True, help="character label N:index")
        sp.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
        if with_oracle:
            sp.add_argument("--oracle", choices=("forbid", "allow", "force"), default="forbid")

    sp = sub.add_parser("coeff", help="one Fourier coefficient a(T)")
    common(sp)
    sp.add_argument("n", type=int)
    sp.add_argument("r", type=int)
    sp.add_argument("m", type=int)
    sp.set_defaults(fn=cmd_coeff)

    sp = sub.add_parser("expand", help="all coefficients with n + m <= bound")
    common(sp)
    sp.add_argument("--bound", type=int, required=True)
    sp.add_argument("--include-zero", action="store_true")
    sp.set_defaults(fn=cmd_expand)

    sp = sub.add_parser("local", help="local factors, closed form vs oracle")
    sp.add_argument("which", choices=("unramified", "ramified", "K", "volume"))
    sp.add_argument("-p", type=int, required=True)
    sp.add_argument("-s", type=int, default=4)
    sp.add_argument("-T", help="form as n,r,m")
    sp.add_argument("-e", type=int, default=0)
    sp.add_argument("-f", type=int, default=0)
    sp.add_argument("-L", type=int, default=1, choices=(-1, 0, 1))
    sp.add_argument("--chip", type=int, default=1, choices=(1, -1), help="chi_p(p)")
    sp.add_argument("--np", type=int, default=1, dest="n_p")
    sp.add_argument("--chi", default="quad", help="'quad' or use -c label")
    sp.add_argument("-c", "--character", default=None)
    sp.add_argument("-i", type=int, default=0)
    sp.add_argument("-j", type=int, default=0)
    sp.add_argument("-B", type=int, default=8)
    sp.set_defaults(fn=cmd_local)

    sp = sub.add_parser("verify", help="run a named verification suite")
    sp.add_argument("suite")
    sp.add_argument("--seed", type=int, default=1234)
    sp.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.precision:
        set_precision(args.precision)
    try:
        return args.fn(args)
    except UnsupportedPlaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED_PLACE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except Exception as exc:  # UncertifiedOracleError and kin
        from .oracle import UncertifiedOracleError

        if isinstance(exc, UncertifiedOracleError):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_UNCERTIFIED
        raise


if __name__ == "__main__":
    sys.exit(main())
