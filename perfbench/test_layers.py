"""The traced child wraps the program where its callers look functions up."""

import json
import subprocess
import sys
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _child(out: Path, trace: bool) -> tuple[str, dict]:
    report = out / f"test-layers-{trace}.report.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--report", str(report)]
    if trace:
        cmd += ["--trace", str(out / "test-layers.spans.json")]
    cmd += ["cli", "coeff", "-k", "5", "-c", "3:2", "1", "1", "9"]
    env = {"PYTHONPATH": str(ROOT / "src"), "SIEGELEIS_PRECISION": "192", "PATH": ""}
    res = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
    assert res.returncode == 0, res.stderr
    with open(report) as fh:
        return res.stdout, json.load(fh)


def test_traced_cli_reports_every_layer_metric_and_same_output():
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    plain_stdout, plain = _child(out, trace=False)
    traced_stdout, traced = _child(out, trace=True)
    assert traced_stdout == plain_stdout
    assert len(plain["latencies_s"]) == 1 and plain["prec_leaks"] == 0
    m = traced["per_layer"]
    assert set(layers.metric_units()) - set(m) == {"cli.overhead_s", "trace.overhead_frac", "fail_frac"}
    # a(1, 1, 9) at eta = 3:2 takes three L-values: L(k-1, chi_D eta),
    # L(k, eta) and L(2k-2, eta^2); the last is imprimitive with trivial core.
    assert m["fourier.coefficient.calls"] == 1
    assert m["lvalues.dirichlet_l.calls"] == 3
    assert m["lvalues.hurwitz_terms"] > 0
    assert m["characters.product_with_kronecker.calls"] == 1
    assert m["localfactors.h_tilde.calls"] == 1
    assert m["fourier.coefficient.total_s"] >= m["lvalues.dirichlet_l.total_s"] > 0
