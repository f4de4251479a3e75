"""CLI surface: records, schemas, exit codes and determinism."""
import json
import math
import subprocess
import sys

import pytest


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "su11", *args],
        capture_output=True, text=True, timeout=300,
    )


def records_of(proc):
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_elem_identity_record():
    proc = run_cli("elem", "--eta", "1", "--n", "0", "--np", "0",
                   "--tau", "0", "--phi", "0", "--psi", "0")
    assert proc.returncode == 0
    (rec,) = records_of(proc)
    assert rec["command"] == "elem"
    assert rec["value_re"] == 1.0 and rec["value_im"] == 0.0
    assert rec["inputs"]["eta"] == "1"


def test_elem_range_cardinality():
    proc = run_cli("elem", "--eta", "3/2", "--n", "0..4", "--np", "0..4",
                   "--tau", "0.7", "--phi", "1", "--psi", "-0.5", "--format", "json")
    assert proc.returncode == 0
    recs = records_of(proc)
    assert len(recs) == 25
    keys = {(r["inputs"]["n"], r["inputs"]["np"]) for r in recs}
    assert len(keys) == 25


def test_elem_rejects_bad_label():
    proc = run_cli("elem", "--eta", "0.4")
    assert proc.returncode == 2
    proc = run_cli("elem", "--eta", "1/2")
    assert proc.returncode == 2


def test_character_theta_and_alpha_paths():
    proc = run_cli("character", "--eta", "1", "--theta", "3.14159265")
    assert proc.returncode == 0
    (rec,) = records_of(proc)
    assert rec["value_re"] == pytest.approx(-0.5, abs=1e-8)
    assert rec["inputs"]["regime"] == "elliptic_abel"

    proc = run_cli("character", "--eta", "1", "--alpha-re", "1.5430806348")
    (rec,) = records_of(proc)
    expected = 0.5 * math.exp(-1.0) / math.sinh(1.0)
    assert rec["value_re"] == pytest.approx(expected, rel=1e-9)
    assert rec["inputs"]["regime"] == "hyperbolic_conditional"


def test_character_boundary_exits_3():
    assert run_cli("character", "--eta", "1", "--theta", "0").returncode == 3
    assert run_cli("character", "--eta", "1", "--alpha-re", "1.0").returncode == 3


def test_ortho_diagonal_and_vanishing():
    proc = run_cli("ortho", "--eta1", "1", "--eta2", "1",
                   "--m", "0", "--mp", "0", "--n", "0", "--np", "0")
    (rec,) = records_of(proc)
    assert rec["expected_re"] == 2.0
    assert rec["abs_error"] <= 1e-10

    proc = run_cli("ortho", "--eta1", "2", "--eta2", "1",
                   "--m", "0", "--mp", "0", "--n", "1", "--np", "1")
    (rec,) = records_of(proc)
    assert rec["expected_re"] == 0.0
    assert abs(rec["value_re"]) <= 1e-12


def test_ortho_monte_carlo_deterministic():
    args = ("ortho", "--eta1", "1", "--eta2", "1", "--m", "0", "--mp", "0",
            "--n", "0", "--np", "0", "--mc", "--samples", "50000", "--seed", "42")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    mc = records_of(first)[1]
    assert mc["inputs"]["method"] == "monte_carlo"
    assert abs(mc["value_re"] - 2.0) <= 3.0 * mc["inputs"]["stderr"]


def test_ortho_rejects_nonpositive_samples_as_usage_error():
    for samples in ("0", "-5"):
        proc = run_cli("ortho", "--eta1", "1", "--eta2", "1", "--m", "0", "--mp", "0",
                       "--n", "0", "--np", "0", "--mc", "--samples", samples)
        assert proc.returncode == 2
        assert proc.stdout == ""


def test_tensor_spectrum_and_multiplicity():
    proc = run_cli("tensor", "--eta1", "1", "--eta2", "1", "--nmax", "3")
    recs = records_of(proc)
    assert [r["inputs"]["eta3"] for r in recs] == ["2", "3", "4", "5"]
    assert all(r["value_re"] == 1.0 for r in recs)

    proc = run_cli("tensor", "--eta1", "1", "--eta2", "1", "--eta3", "1.5")
    (rec,) = records_of(proc)
    assert rec["value_re"] == 0.0


def test_tensor_certify_record():
    proc = run_cli("tensor", "--eta1", "1", "--eta2", "1", "--certify",
                   "--theta", "1.0", "--r", "0.99")
    (rec,) = records_of(proc)
    assert rec["inputs"]["check"] == "abel_residual"
    assert rec["abs_error"] <= 0.1


def test_csv_schema():
    proc = run_cli("ortho", "--eta1", "1", "--eta2", "1", "--m", "0", "--mp", "0",
                   "--n", "0", "--np", "0", "--format", "csv")
    lines = proc.stdout.splitlines()
    assert lines[0] == "command,inputs,value_re,value_im,expected_re,abs_error"
    assert len(lines) == 2


def test_json_schema_stability():
    proc = run_cli("elem", "--eta", "2", "--n", "0..1", "--np", "0..1", "--tau", "0.5")
    for rec in records_of(proc):
        assert set(rec) == {"command", "inputs", "value_re", "value_im"}


def test_verify_unknown_suite_exits_2():
    assert run_cli("verify", "--suite", "bogus").returncode == 2


def test_verify_single_suite_passes():
    proc = run_cli("verify", "--suite", "tensor")
    assert proc.returncode == 0
    recs = records_of(proc)
    assert recs and all(r["inputs"]["passed"] for r in recs)


def test_verify_zero_samples_skips_monte_carlo():
    proc = run_cli("verify", "--suite", "all", "--samples", "0")
    assert proc.returncode == 0
    recs = records_of(proc)
    assert len(recs) == 22
    assert all(r["inputs"]["passed"] for r in recs)
    assert "monte_carlo_spot" not in {r["inputs"]["check"] for r in recs}


def test_verify_tol_override_can_fail():
    proc = run_cli("verify", "--suite", "tensor", "--tol", "0")
    assert proc.returncode == 1
