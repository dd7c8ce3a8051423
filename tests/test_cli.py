import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from siegeleis import scalars
from siegeleis.cli import EXIT_DOMAIN, EXIT_UNCERTIFIED, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_coeff_exact(capsys):
    code, out, _ = run(capsys, "coeff", "-k", "4", "-c", "1:1", "1", "0", "0")
    assert code == 0
    rec = json.loads(out)
    assert rec["value"] == "240" and rec["mode"] == "exact-rational"


def test_coeff_constant_and_zero(capsys):
    code, out, _ = run(capsys, "coeff", "-k", "4", "-c", "1:1", "0", "0", "0")
    assert code == 0 and json.loads(out)["value"] == "1"
    code, out, _ = run(capsys, "coeff", "-k", "4", "-c", "1:1", "1", "3", "1")
    assert code == 0 and json.loads(out)["value"] == "0"


def test_coeff_rational_never_float(capsys):
    code, out, _ = run(capsys, "coeff", "-k", "4", "-c", "1:1", "2", "1", "3")
    rec = json.loads(out)
    assert "." not in rec["value"] and "/" in rec["value"] or rec["value"].isdigit()


def test_domain_error_exit(capsys):
    code, _, err = run(capsys, "coeff", "-k", "3", "-c", "1:1", "1", "0", "0")
    assert code == EXIT_DOMAIN and "weight" in err
    code, _, err = run(capsys, "expand", "-k", "4", "-c", "2:1", "--bound", "1")
    assert code == EXIT_DOMAIN and "primitive" in err


def test_coeff_takes_the_oracle_where_the_table_has_no_row(capsys):
    # p = 5 at the order-4 character 5:2 has no K table row: K is the exact defining sum
    code, out, err = run(capsys, "coeff", "-k", "5", "-c", "5:2", "1", "5", "25")
    assert code == 0 and err == ""
    rec = json.loads(out)
    assert rec["value"] == "-34.081516300709365777,11.334033112854482284"
    assert (rec["mode"], rec["notes"]) == ("numeric", "p=5:K-oracle(exact)")
    # there is no --oracle option
    for argv in (["coeff", "1", "5", "25"], ["expand", "--bound", "1"]):
        with pytest.raises(SystemExit) as info:
            main([*argv, "-k", "5", "-c", "5:2", "--oracle", "allow"])
        assert info.value.code == EXIT_DOMAIN and "unrecognized arguments: --oracle" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main([argv[0], "--help"])
        assert "--oracle" not in capsys.readouterr().out


def test_expand_stream(capsys):
    code, out, _ = run(capsys, "expand", "-k", "4", "-c", "1:1", "--bound", "2")
    lines = out.strip().splitlines()
    header = json.loads(lines[0])["header"]
    assert header["weight"] == 4 and header["character"] == "1:1"
    assert "precision_bits" in header and "version" in header
    records = [json.loads(ln) for ln in lines[1:]]
    by_T = {(r["n"], r["r"], r["m"]): r["value"] for r in records}
    assert by_T[(1, 0, 0)] == "240" and by_T[(0, 0, 1)] == "240"


def test_expand_closed_form_zero_is_zero_record(capsys):
    # At eta = 3:2 the closed-form K at p = 3 is exactly 0 for five T of
    # trace <= 12; they are zero records, not numeric values 0.
    vanishing = {(1, 0, 9), (2, 0, 9), (3, -9, 9), (3, 0, 9), (3, 9, 9)}
    args = ("expand", "-k", "5", "-c", "3:2", "--bound", "12")
    code, out, _ = run(capsys, *args)
    assert code == 0
    records = [json.loads(ln) for ln in out.strip().splitlines()[1:]]
    assert len(records) == 46
    assert all(r["mode"] == "numeric" for r in records)
    assert all(any(float(x) != 0 for x in r["value"].split(",")) for r in records)
    assert not vanishing & {(r["n"], r["r"], r["m"]) for r in records}
    code, out, _ = run(capsys, *args, "--include-zero")
    assert code == 0
    every = {(r["n"], r["r"], r["m"]): r for r in map(json.loads, out.strip().splitlines()[1:])}
    for T in vanishing:
        assert every[T]["mode"] == "zero" and every[T]["value"] == "0.0,0.0"
        assert every[T]["notes"] == "p=3:K-closed-form"


def test_expand_stats_leave_stdout_unchanged(capsys):
    args = ("expand", "-k", "5", "-c", "3:2", "--bound", "12", "--include-zero")
    code, plain, plain_err = run(capsys, *args)
    assert code == 0 and plain_err == ""
    code, out, err = run(capsys, *args, "--stats")
    assert code == 0 and out == plain
    (line,) = err.splitlines()
    stats = json.loads(line)["stats"]
    records = [json.loads(ln) for ln in out.strip().splitlines()[1:]]
    assert stats["records"] == len(records)
    assert stats["modes"] == Counter(r["mode"] for r in records) and stats["modes"]["numeric"] == 46
    assert stats["notes"] == Counter(note for r in records for note in r["notes"].split(";") if note)
    assert stats["notes"]["p=3:K-closed-form"] == 15
    memos = stats["memos"]
    # the second run finds every H~ and chi_D eta of the first in the memos;
    # eta^2 is built only with the spec context, which the second run reuses
    for name in ("localfactors.h_tilde", "characters.product_with_kronecker"):
        assert memos[name]["misses"] == 0 and memos[name]["hits"] > 0
    for name in ("characters.power_character", "lvalues.l_quadratic_exact"):
        assert memos[name] == {"hits": 0, "misses": 0}
    assert memos["fourier._spec_invariants"]["hits"] > 0 and memos["lvalues.dirichlet_l"]["size"] > 0


def test_expand_csv(capsys):
    code, out, _ = run(capsys, "expand", "-k", "4", "-c", "1:1", "--bound", "1", "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "n,r,m,value,mode,notes"
    assert any(ln.startswith("1,0,0,240,") for ln in lines)


def test_local_volume(capsys):
    code, out, _ = run(capsys, "local", "volume", "-p", "3", "-i", "0", "-j", "0", "-T", "1,0,1")
    assert code == 0 and json.loads(out)["value"] == "2/3"


def test_local_volume_undecided_exit(capsys):
    # residues mod 3^4 cannot decide v >= 5 for T = (729, 0, 729)
    code, out, err = run(capsys, "local", "volume", "-p", "3", "-i", "5", "-j", "0", "-T", "729,0,729", "-B", "4")
    assert code == EXIT_UNCERTIFIED and out == "" and "cannot decide" in err


def test_local_unramified(capsys):
    code, out, _ = run(capsys, "local", "unramified", "-p", "5", "-e", "0", "-f", "0",
                       "-L", "1", "-s", "4", "--chip", "1")
    assert code == 0
    assert json.loads(out)["value"] == "78624/78125"


def test_local_K_dual(capsys):
    code, out, _ = run(capsys, "local", "K", "-p", "3", "-T", "1,0,9", "-s", "4")
    rec = json.loads(out)
    assert code == 0 and rec["closed_form"] == rec["oracle"]
    # n_p comes from the character, so there is no --np option
    with pytest.raises(SystemExit) as info:
        main(["local", "K", "-p", "3", "-T", "1,0,9", "--np", "2"])
    assert info.value.code == EXIT_DOMAIN and "--np" in capsys.readouterr().err


def test_local_quad_needs_an_odd_prime(capsys):
    # there is no ramified quadratic character of conductor 2 (nor at a composite p)
    for which, p in (("K", "2"), ("ramified", "2"), ("K", "15")):
        code, out, err = run(capsys, "local", which, "-p", p, "-T", "1,2,4")
        assert code == EXIT_DOMAIN and out == ""
        assert err.startswith("error:") and "needs an odd prime" in err


def test_local_K_oracle_output_is_stable(capsys):
    # oracle-only K at order 4 (5:2) and order 12 (13:2), printed byte for byte
    cases = [
        (("-p", "5", "-c", "5:2", "-T", "1,0,25"),
         '{"which": "K", "closed_form": null, "provenance": "needs-oracle", "oracle": "0", '
         '"oracle_tail": "0"}\n'),
        (("-p", "13", "-c", "13:2", "-T", "1,13,169"),
         '{"which": "K", "closed_form": null, "provenance": "needs-oracle", '
         '"oracle": "1/13*z12^0 + 2/13*z12^1 + 1/13*z12^2", '
         '"oracle_tail": "0"}\n'),
    ]
    for args, want in cases:
        code, out, _ = run(capsys, "local", "K", "-s", "5", *args)
        assert code == 0 and out == want


def test_local_ramified_finishes_within_tail(capsys):
    # the default number of support shells keeps the last one near 2e6 unit pairs
    code, out, _ = run(capsys, "local", "ramified", "-p", "3", "-T", "1,1,9", "-s", "4")
    assert code == 0
    rec = json.loads(out)
    tail = Fraction(rec["oracle_tail"])
    assert 0 < tail < Fraction(1, 10**8) and float(rec["difference"]) <= tail


def test_local_K_needs_p_dividing_r(capsys):
    # at v(r) = 0 the j-sum of K has no support at j >= 1 - n_p: a domain error
    code, out, err = run(capsys, "local", "K", "-p", "3", "-T", "1,1,9", "-s", "5")
    assert code == EXIT_DOMAIN and out == "" and "K needs p | r" in err


def _complex(text):
    """A value of `local ramified`, printed by mpmath as '(re + imj)'."""
    return complex(text.replace(" ", ""))


def test_local_ramified_reads_no_K_at_unit_r(capsys):
    # as in the a(T) assembly, the factor at p not dividing r takes no K
    for label, p, form in (("5:2", "5", "1,1,25"), ("5:2", "5", "2,3,25"), ("3:2", "3", "1,1,9"),
                           ("7:3", "7", "1,1,49")):
        code, out, _ = run(capsys, "local", "ramified", "-c", label, "-p", p, "-T", form, "-s", "5")
        assert code == 0, (label, form)
        rec = json.loads(out)
        assert float(rec["difference"]) < 1e-60 and _complex(rec["closed_form"]) != 0, (label, form)
    # where v(m) < 2 n_p the factor is 0 whatever K is, and K is not asked for
    code, out, _ = run(capsys, "local", "ramified", "-c", "9:2", "-p", "3", "-T", "1,3,3", "-s", "5")
    assert code == 0 and json.loads(out)["closed_form"] == "(0.0 + 0.0j)"


def test_local_c_selects_the_character(capsys):
    args = ("local", "ramified", "-p", "5", "-T", "1,5,25", "-s", "5")
    code, out, _ = run(capsys, *args, "-c", "5:2")
    assert code == 0
    assert _complex(json.loads(out)["closed_form"]) == pytest.approx(-1.2606191768e-8 + 2.9759181947e-9j)
    # without -c the quadratic character mod 5 is used
    code, quad, _ = run(capsys, *args)
    assert code == 0 and _complex(json.loads(quad)["closed_form"]) == pytest.approx(1.8317868872e-8)
    # there is no --chi option (nor is it read as an abbreviation of --chip)
    for value in ("quad", "1"):
        with pytest.raises(SystemExit) as info:
            main([*args, "--chi", value])
        assert info.value.code == EXIT_DOMAIN
        assert f"unrecognized arguments: --chi {value}" in capsys.readouterr().err


def test_expand_never_imports_the_oracles():
    # `expand` must not load the oracle or verify modules (`main` imports
    # `UncertifiedOracleError` only on an error path for this reason)
    probe = (
        "import contextlib, io, json, sys\n"
        "from siegeleis.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv.split()) for argv in sys.argv[1:]]\n"
        "print(json.dumps({'codes': codes, 'modules': sorted(sys.modules)}))\n"
    )
    src = str(Path(scalars.__file__).parents[1])
    env = {k: v for k, v in os.environ.items() if k != "SIEGELEIS_PRECISION"}
    env["PYTHONPATH"] = src
    argvs = ["expand -k 4 -c 1:1 --bound 6", "expand -k 5 -c 3:2 --bound 10"]
    done = subprocess.run([sys.executable, "-c", probe, *argvs], env=env, capture_output=True, text=True,
                          check=True)
    report = json.loads(done.stdout)
    assert report["codes"] == [0, 0]
    assert "siegeleis.cli" in report["modules"] and "siegeleis.fourier" in report["modules"]
    assert not {"siegeleis.oracle", "siegeleis.verify"} & set(report["modules"])


@pytest.fixture
def keep_precision(monkeypatch):
    monkeypatch.delenv("SIEGELEIS_PRECISION", raising=False)
    bits = scalars.get_precision()
    yield monkeypatch
    scalars.set_precision(bits)


def test_precision_flag_rejects_bad_values(capsys, keep_precision):
    for bits in ("40", "0", "-5"):
        code, _, err = run(capsys, "--precision", bits, "coeff", "-k", "4", "-c", "1:1", "1", "0", "0")
        assert code == EXIT_DOMAIN and err.startswith("error:"), bits
    with pytest.raises(SystemExit) as info:
        main(["--precision", "abc", "coeff", "-k", "4", "-c", "1:1", "1", "0", "0"])
    assert info.value.code == EXIT_DOMAIN and "error:" in capsys.readouterr().err
    code, out, _ = run(capsys, "--precision", "53", "expand", "-k", "4", "-c", "1:1", "--bound", "0")
    assert code == 0 and json.loads(out.splitlines()[0])["header"]["precision_bits"] == 53


def test_main_restores_the_working_precision(capsys, keep_precision):
    # on success, on the oracle route and on a domain error alike
    bits = scalars.get_precision()
    for argv, want in (
        (["--precision", "128", "coeff", "-k", "4", "-c", "1:1", "1", "0", "0"], 0),
        (["--precision", "128", "coeff", "-k", "5", "-c", "5:2", "1", "5", "25"], 0),
        (["--precision", "128", "coeff", "-k", "3", "-c", "1:1", "1", "0", "0"], EXIT_DOMAIN),
    ):
        assert main(argv) == want
        assert scalars.get_precision() == bits, argv
    keep_precision.setenv("SIEGELEIS_PRECISION", "96")
    assert main(["coeff", "-k", "4", "-c", "1:1", "1", "0", "0"]) == 0
    assert scalars.get_precision() == bits
    capsys.readouterr()


def test_precision_env_rejects_bad_values(capsys, keep_precision):
    for text in ("10", "52", "abc", ""):
        keep_precision.setenv("SIEGELEIS_PRECISION", text)
        code, out, err = run(capsys, "expand", "-k", "5", "-c", "3:2", "--bound", "1")
        assert code == EXIT_DOMAIN and out == "" and err.startswith("error:"), text
    keep_precision.setenv("SIEGELEIS_PRECISION", "200")
    code, out, _ = run(capsys, "expand", "-k", "5", "-c", "3:2", "--bound", "1")
    assert code == 0 and json.loads(out.splitlines()[0])["header"]["precision_bits"] == 200
    # the flag takes precedence over the environment
    code, out, _ = run(capsys, "--precision", "64", "expand", "-k", "5", "-c", "3:2", "--bound", "1")
    assert code == 0 and json.loads(out.splitlines()[0])["header"]["precision_bits"] == 64
    # imported with a bad value, the library keeps its default
    src = str(Path(scalars.__file__).parents[1])
    for text in ("10", "abc"):
        env = {**os.environ, "PYTHONPATH": src, "SIEGELEIS_PRECISION": text}
        probe = "from siegeleis import scalars; print(scalars.get_precision())"
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
        assert done.stdout == "192\n", text


def test_verify_fast_suites(capsys):
    code, out, _ = run(capsys, "verify", "n1-classical")
    assert code == 0 and "PASS" in out and "seed" in out
    code, out, _ = run(capsys, "verify", "bootstrap-oracle", "--seed", "99")
    assert code == 0 and "seed: 99" in out


def test_verify_bootstrap_draw_outside_the_group_fails(capsys, monkeypatch):
    # a draw that is not a similitude is a failed check (exit 1), not a domain error
    from siegeleis import oracle

    outside = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 2))
    monkeypatch.setattr(oracle, "_random_integral_k", lambda rng, p: outside)
    code, out, err = run(capsys, "verify", "bootstrap-oracle", "--seed", "99")
    assert code == 1 and err == ""
    assert "[FAIL] bootstrap-oracle" in out and "not in the similitude group" in out


def test_local_checks_its_domain(capsys):
    # a pole of the factor, a p that is not prime, a residue depth below 1:
    # each an error line and exit 2, not a traceback or a value
    for argv in (
        "unramified -p 5 -e 0 -f 0 -L 1 -s 1 --chip 1",
        "unramified -p 1 -e 0 -f 0 -L 1 -s 4 --chip 1",
        "unramified -p 4 -e 0 -f 0 -L 1 -s 4 --chip 1",
        "volume -p 0 -i 1 -j 0 -T 1,0,1",
        "volume -p 4 -i 0 -j 0 -T 1,0,1",
        "volume -p 3 -i 1 -j 0 -T 1,0,1 -B -1",
        "volume -p 3 -i 0 -j 0 -T 1,0,1 -B 0",
    ):
        code, out, err = run(capsys, "local", *argv.split())
        assert code == EXIT_DOMAIN and out == "" and err.startswith("error:"), argv
    code, out, _ = run(capsys, "local", "volume", "-p", "3", "-i", "0", "-j", "0", "-T", "1,0,1", "-B", "1")
    assert code == 0 and json.loads(out)["value"] == "2/3"


def test_verify_names_a_missed_time_budget(capsys, monkeypatch):
    # n1-classical passes its checks but reads 2 s on a clock that says so
    from siegeleis import verify

    clock = iter([0.0, 2.0])
    monkeypatch.setattr(verify, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    code, out, _ = run(capsys, "verify", "n1-classical")
    assert code == 1 and "[FAIL] n1-classical" in out
    assert "over the time budget: 2.00s, budget 1s" in out


def test_local_K_below_the_support_is_a_domain_error(capsys):
    # at p | r with v(m) < 2 n_p the j-sum of K has terms below j = 1 - n_p
    code, out, err = run(capsys, "local", "K", "-c", "9:2", "-p", "3", "-T", "1,3,3", "-s", "4")
    assert code == EXIT_DOMAIN and out == "" and "j >= 1 - n_p" in err


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "no-such-suite")
    assert code == EXIT_DOMAIN
