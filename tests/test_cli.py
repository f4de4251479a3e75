"""CLI surface: records, schemas, exit codes and determinism."""
import csv
import json
import math
import subprocess
import sys
import time

import pytest

from su11 import from_cartan, matrix_element
from su11.cli import build_parser


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
    args = ("elem", "--eta", "3/2", "--n", "0..4", "--np", "0..4",
            "--tau", "0.7", "--phi", "1", "--psi", "-0.5")
    proc = run_cli(*args, "--format", "json")
    assert proc.returncode == 0
    recs = records_of(proc)
    # one record per pair, in row-major order, each the scalar matrix element
    pairs = [(n, np_) for n in range(5) for np_ in range(5)]
    assert [(r["inputs"]["n"], r["inputs"]["np"]) for r in recs] == pairs
    g = from_cartan(0.7, 1.0, -0.5)
    assert [complex(r["value_re"], r["value_im"]) for r in recs] == [
        matrix_element("3/2", n, np_, g) for n, np_ in pairs]
    rows = list(csv.reader(run_cli(*args, "--format", "csv").stdout.splitlines()))
    assert [(json.loads(row[1]), float(row[2]), float(row[3])) for row in rows[1:]] == [
        (rec["inputs"], rec["value_re"], rec["value_im"]) for rec in recs]


def test_elem_index_range_is_lazy():
    start = time.perf_counter()
    args = build_parser().parse_args(["elem", "--eta", "1", "--n", "0..1000000000"])
    assert time.perf_counter() - start < 0.1
    assert len(args.n) == 10**9 + 1
    assert list(args.np) == [0]


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

    # Re(alpha) < -1 is the class of -g for a hyperbolic g.
    proc = run_cli("character", "--eta", "1", "--alpha-re", "-1.5")
    assert proc.returncode == 0
    (rec,) = records_of(proc)
    assert rec["value_re"] == pytest.approx(0.1708203932, rel=1e-9)
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


VERIFY_RECORDS = [
    ("ortho", "quadrature_zeroth_moment", 1e-13), ("ortho", "diagonal_norm_closed_form", 1e-12),
    ("ortho", "diagonal_sweep", 1e-10), ("ortho", "cross_label_vanishing", 1e-12),
    ("ortho", "unselected_exact_zero", 0.0), ("ortho", "monte_carlo_spot", 1.0),
    *[("unitary", f"{kind}_eta_{eta}", 1e-8)
      for eta in ("1", "3/2", "2") for kind in ("unitarity", "homomorphism")],
    ("unitary", "cross_form_consistency", 1e-11),
    ("character", "chart_form_consistency", 1e-11), ("character", "hyperbolic_abel_limit", 1e-3),
    ("character", "elliptic_abel_residual", 1e-2), ("character", "abel_limit_closed_form", 1e-13),
    ("character", "class_function", 1e-10),
    ("tensor", "spectrum_exact", 0.0), ("tensor", "product_closed_form", 1e-13),
    ("tensor", "abel_certification", 1e-2), ("tensor", "abel_limit_equals_product", 1e-13),
    ("tensor", "expansion_identity", 1e-13),
]


def test_verify_all_emits_the_pinned_records():
    proc = run_cli("verify", "--suite", "all")
    assert proc.returncode == 0
    recs = records_of(proc)
    assert [(r["inputs"]["suite"], r["inputs"]["check"], r["inputs"]["tol"])
            for r in recs] == VERIFY_RECORDS
    assert all(r["inputs"]["passed"] for r in recs)


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
