import json

import pytest

from siegeleis.cli import EXIT_DOMAIN, EXIT_UNSUPPORTED_PLACE, main


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


def test_unsupported_place_exit(capsys):
    code, _, err = run(capsys, "coeff", "-k", "5", "-c", "5:2", "1", "5", "25")
    assert code == EXIT_UNSUPPORTED_PLACE and "closed form" in err
    code, out, _ = run(capsys, "--precision", "128", "coeff", "-k", "5", "-c", "5:2",
                       "--oracle", "allow", "1", "5", "25")
    assert code == 0


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


def test_expand_csv(capsys):
    code, out, _ = run(capsys, "expand", "-k", "4", "-c", "1:1", "--bound", "1", "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "n,r,m,value,mode,notes"
    assert any(ln.startswith("1,0,0,240,") for ln in lines)


def test_local_volume(capsys):
    code, out, _ = run(capsys, "local", "volume", "-p", "3", "-i", "0", "-j", "0", "-T", "1,0,1")
    assert code == 0 and json.loads(out)["value"] == "2/3"


def test_local_unramified(capsys):
    code, out, _ = run(capsys, "local", "unramified", "-p", "5", "-e", "0", "-f", "0",
                       "-L", "1", "-s", "4", "--chip", "1")
    assert code == 0
    assert json.loads(out)["value"] == "78624/78125"


def test_local_K_dual(capsys):
    code, out, _ = run(capsys, "local", "K", "-p", "3", "--np", "1", "--chi", "quad",
                       "-T", "1,0,9", "-s", "4")
    rec = json.loads(out)
    assert code == 0 and rec["closed_form"] == rec["oracle"]


def test_local_K_oracle_output_is_stable(capsys):
    # oracle-only K at order 4 (5:2) and order 12 (13:2), printed byte for byte
    cases = [
        (("-p", "5", "-c", "5:2", "-T", "1,0,25"),
         '{"which": "K", "closed_form": null, "provenance": "needs-oracle", "oracle": "0", '
         '"oracle_tail": "1/11548399925231933593750"}\n'),
        (("-p", "13", "-c", "13:2", "-T", "1,13,169"),
         '{"which": "K", "closed_form": null, "provenance": "needs-oracle", '
         '"oracle": "1/13*z12^0 + 2/13*z12^1 + 1/13*z12^2", '
         '"oracle_tail": "1/221288862825203043576757344096206754"}\n'),
    ]
    for args, want in cases:
        code, out, _ = run(capsys, "local", "K", "--chi", "x", "-s", "5", *args)
        assert code == 0 and out == want


def test_verify_fast_suites(capsys):
    code, out, _ = run(capsys, "verify", "n1-classical")
    assert code == 0 and "PASS" in out and "seed" in out
    code, out, _ = run(capsys, "verify", "bootstrap-oracle", "--seed", "99")
    assert code == 0 and "seed: 99" in out


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "no-such-suite")
    assert code == EXIT_DOMAIN
