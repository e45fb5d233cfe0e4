"""Command-line tests: exit codes, JSON/CSV payload shapes, determinism.

Most tests drive ``main(argv)`` in process; one round-trips the installed
console script to make sure the entry point is wired up.
"""

import contextlib
import copy
import csv
import io
import json
import math
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quandlekit as qk
from quandlekit import cli, verify
from quandlekit.cli import main

CYCLIC3 = {"order": 3, "table": [[0, 2, 1], [2, 1, 0], [1, 0, 2]]}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture()
def table_file(tmp_path):
    return write_json(tmp_path / "table.json", CYCLIC3)


@pytest.fixture()
def pauli_files(tmp_path):
    x = write_json(tmp_path / "sz.json", qk.matrix_to_json(qk.PAULI_Z))
    y = write_json(tmp_path / "sx.json", qk.matrix_to_json(qk.PAULI_X))
    return x, y


# ---------------------------------------------------------------------------
# classify / enumerate


def test_classify_quandle_exits_zero(capsys, table_file):
    code, out, err = run_cli(capsys, "classify", table_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["is_quandle"] and payload["violations"] == []
    assert "quandle" in err


def test_classify_non_quandle_exits_one(capsys, tmp_path):
    path = write_json(tmp_path / "t.json", {"order": 2, "table": [[0, 0], [1, 1]]})
    code, out, _ = run_cli(capsys, "classify", path)
    assert code == 1
    payload = json.loads(out)
    assert payload["is_spindle"] and not payload["is_quandle"]
    assert payload["violations"] == [["bijectivity", [0, 1]]]


def test_classify_malformed_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"order": 3, "table": [[0')
    code, out, err = run_cli(capsys, "classify", str(bad))
    assert code == 2 and out == "" and "error:" in err
    code, _, _ = run_cli(capsys, "classify", str(tmp_path / "missing.json"))
    assert code == 2
    # Non-integer entries are refused, not truncated into a valid table.
    coerced = write_json(tmp_path / "coerced.json",
                         {"order": 2, "table": [[0, 1.9], [True, "1"]]})
    code, out, err = run_cli(capsys, "classify", coerced)
    assert code == 2 and out == "" and "'table'" in err


def test_enumerate_json_lines(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--order", "3", "--kind", "quandle")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 6            # 5 tables + trailing count record
    assert lines[-1] == {"count": 5, "order": 3, "kind": "quandle", "up_to_iso": False}
    tables = [tuple(map(tuple, rec["table"])) for rec in lines[:-1]]
    assert tuple(map(tuple, CYCLIC3["table"])) in tables


def test_enumerate_up_to_iso(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--order", "4", "--kind", "quandle",
                           "--up-to-iso")
    assert code == 0
    assert json.loads(out.strip().splitlines()[-1])["count"] == 7


@pytest.mark.parametrize("flags, count", [([], 6658), (["--up-to-iso"], 73)])
def test_enumerate_quandles_of_order_six(capsys, flags, count):
    code, out, _ = run_cli(capsys, "enumerate", "--order", "6", "--kind", "quandle", *flags)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == count + 1
    assert json.loads(lines[-1]) == {"count": count, "order": 6, "kind": "quandle",
                                     "up_to_iso": bool(flags)}


@pytest.mark.parametrize("kind, order", [("quandle", 7), ("shelf", 4), ("spindle", 4)])
def test_enumerate_guard_exits_two(capsys, kind, order):
    # The cap is checked before any search; a shelf level at order 4 holds millions of rows.
    code, _, err = run_cli(capsys, "enumerate", "--order", str(order), "--kind", kind)
    assert code == 2 and "error:" in err


# ---------------------------------------------------------------------------
# verify / noether


def test_verify_passes_and_emits_reports(capsys):
    code, out, err = run_cli(capsys, "verify", "--realization", "matrix-hermitian",
                             "--samples", "50")
    assert code == 0
    reports = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["axiom"] for r in reports] == [
        "self-action", "self-distributivity", "idempotency", "inverse-law",
    ]
    assert all(r["pass"] for r in reports)
    assert err.count("PASS") == 4


def test_verify_impossible_tolerance_exits_one(capsys):
    code, out, _ = run_cli(capsys, "verify", "--realization", "matrix-hermitian",
                           "--samples", "10", "--tol", "1e-20")
    assert code == 1
    assert not any(json.loads(line)["pass"] for line in out.strip().splitlines())


def test_verify_convex_spindle_two_reports(capsys):
    code, out, _ = run_cli(capsys, "verify", "--realization", "convex-spindle",
                           "--samples", "25", "--bias", "0.25", "--body", "simplex")
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_verify_unknown_realization_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--realization", "corrupted"])
    assert exc.value.code == 2


def test_noether_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "noether", "--realization", "matrix-hermitian",
                           "--pairs", "10")
    assert code == 0
    assert json.loads(out)["all_consistent"] is True

    code, out, _ = run_cli(capsys, "noether", "--realization", "union",
                           "--pairs", "20")
    assert code == 1
    payload = json.loads(out)
    assert payload["inconsistent_count"] >= 1
    assert payload["first_inconsistent"]["consistent"] is False


# Every residual, the x = x control's too, is over tol or inf, so each pair
# is "consistent" only because both of its directions fail.
FAILED_CONTROL = [
    ["--realization", "matrix-hermitian", "--pairs", "2", "--tol", "0"],
    ["--realization", "matrix-general", "--dim", "3", "--pairs", "1", "--t-max", "1e6"],
    ["--realization", "convex-flow", "--pairs", "3", "--t-max", "800"],
    # t·X itself overflows, before any eigenvalue is read.
    ["--realization", "fixed-spectrum", "--dim", "3", "--pairs", "1", "--t-max", "8.9e307"],
    # t·X fits, but t·(λ_j − λ_k) does not.
    ["--realization", "matrix-hermitian", "--dim", "3", "--pairs", "1", "--t-max", "8.9e307"],
    # e^{±tX} fit, but their product with Y does not.
    ["--realization", "matrix-general", "--pairs", "5", "--t-max", "1000"],
]


@pytest.mark.parametrize("argv", FAILED_CONTROL)
def test_noether_failed_control_exits_one(capsys, argv):
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = run_cli(capsys, "noether", *argv)
    payload = json.loads(out)
    assert payload["control_consistent"] is False and payload["all_consistent"] is True
    assert code == 1
    name, tol = argv[1], argv[argv.index("--tol") + 1] if "--tol" in argv else "1e-7"
    assert err.splitlines() == [f"{name}: the x = x control failed: a sample does not"
                                f" fix itself within tol {float(tol):.1e}"]


def test_noether_overflow_leaks_no_numpy_warning():
    # Separate processes, as below: in process, pytest would capture the
    # numpy RuntimeWarnings before they reach stderr.
    for argv in FAILED_CONTROL:
        proc = subprocess.run(
            [sys.executable, "-m", "quandlekit.cli", "noether", *argv],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
        assert "Warning" not in proc.stderr
        [line] = proc.stderr.splitlines()
        assert line.startswith(f"{argv[1]}: the x = x control failed: ")


def test_noether_modes_disagreeing_exits_one(capsys):
    # A grid of full turns only: every pair seems to fix the other, while
    # the bracket criterion says no pair does.
    code, out, err = run_cli(capsys, "noether", "--realization", "bloch", "--t-samples", "2",
                             "--t-max", repr(2 * math.pi), "--pairs", "5")
    payload = json.loads(out)
    assert payload["modes_agree"] is False and payload["all_consistent"] is True
    assert code == 1
    assert err.splitlines() == ["bloch: the sampled and bracket criteria disagree on some pair"]


@pytest.mark.parametrize("argv, error", [
    (["verify", "--realization", "bloch", "--tol", "nan"], "tol must be >= 0"),
    (["verify", "--realization", "bloch", "--tol", "inf"], "tol must be finite, got inf"),
    (["verify", "--realization", "bloch", "--tol=-1"], "tol must be >= 0"),
    (["noether", "--realization", "matrix-hermitian", "--tol", "nan"], "tol must be >= 0"),
    (["noether", "--realization", "matrix-hermitian", "--tol=-1"], "tol must be >= 0"),
    (["noether", "--realization", "bloch", "--t-max", "0"], "t_max must be positive"),
    (["noether", "--realization", "bloch", "--t-max", "nan"], "t_max must be positive"),
    (["noether", "--realization", "bloch", "--t-max", "inf"], "t_max must be finite, got inf"),
    (["noether", "--realization", "bloch", "--t-max=-3"], "t_max must be positive"),
    (["noether", "--realization", "bloch", "--t-max", "1e308"],
     "t_max must be at most 8.988465674311579e+307, got 1e+308"),
    (["verify", "--realization", "fixed-spectrum", "--dim", "0"], "dim must be in [1, 16], got 0"),
    (["verify", "--realization", "fixed-spectrum", "--dim=-2"], "dim must be in [1, 16], got -2"),
    (["verify", "--realization", "fixed-spectrum", "--dim", "1000000000000000"],
     "dim must be in [1, 16], got 1000000000000000"),
    # An empty --spectrum lists no eigenvalue, as "," does.
    (["verify", "--realization", "fixed-spectrum", "--spectrum", ""],
     "spectrum must list at least one eigenvalue"),
    (["verify", "--realization", "bloch", "--spectrum", ""],
     "spectrum must list at least one eigenvalue"),
    (["verify", "--realization", "bloch", "--seed=-1"], "seed must be >= 0"),
    (["noether", "--realization", "bloch", "--seed=-1"], "seed must be >= 0"),
])
def test_out_of_range_real_flags_exit_two(capsys, argv, error):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: {error}"]


def test_unallocatable_size_exits_two(capsys):
    # numpy refuses an array this large at once, without allocating it.
    code, out, err = run_cli(capsys, "noether", "--realization", "bloch", "--pairs", "1",
                             "--t-samples", "1000000000000000")
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    assert line.startswith("error: Unable to allocate")


def test_noether_default_seed_is_deterministic(capsys):
    _, out_a, _ = run_cli(capsys, "noether", "--realization", "bloch", "--pairs", "5")
    _, out_b, _ = run_cli(capsys, "noether", "--realization", "bloch", "--pairs", "5")
    assert out_a == out_b  # same seed, same payload


# ---------------------------------------------------------------------------
# flow / bracket


def test_flow_bloch_equatorial_circle(capsys, tmp_path):
    x = write_json(tmp_path / "ez.json", [0.0, 0.0, 1.0])
    y = write_json(tmp_path / "ex.json", [1.0, 0.0, 0.0])
    code, out, _ = run_cli(capsys, "flow", "--realization", "bloch",
                           "--x", x, "--y", y,
                           "--t-end", str(2 * math.pi), "--steps", "8")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["t", "x", "y", "z"]
    assert len(rows) == 10
    pts = np.array([[float(v) for v in row] for row in rows[1:]])
    # stays on the equator and returns to the start
    assert np.max(np.abs(pts[:, 3])) < 1e-12
    assert np.allclose(pts[-1, 1:], [1.0, 0.0, 0.0], atol=1e-9)


def test_flow_rk4_matches_closed(capsys, pauli_files):
    x, y = pauli_files
    args = ["--realization", "matrix-hermitian", "--x", x, "--y", y,
            "--t-end", "1.0", "--steps", "200"]
    code_a, closed, _ = run_cli(capsys, "flow", *args, "--method", "closed")
    code_b, rk4, _ = run_cli(capsys, "flow", *args, "--method", "rk4")
    assert code_a == code_b == 0
    rows_a = list(csv.reader(io.StringIO(closed)))
    rows_b = list(csv.reader(io.StringIO(rk4)))
    assert rows_a[0] == rows_b[0]
    assert rows_a[0][:3] == ["t", "re_00", "im_00"]
    end_a = np.array([float(v) for v in rows_a[-1]])
    end_b = np.array([float(v) for v in rows_b[-1]])
    assert np.max(np.abs(end_a - end_b)) < 1e-9


def test_flow_rejects_unsupported_combinations(capsys, tmp_path):
    ez = write_json(tmp_path / "ez.json", [0.0, 0.0, 1.0])
    ex = write_json(tmp_path / "ex.json", [1.0, 0.0, 0.0])
    code, _, err = run_cli(capsys, "flow", "--realization", "bloch",
                           "--x", ez, "--y", ex, "--method", "rk4")
    assert code == 2 and "error:" in err
    a = write_json(tmp_path / "a.json", {"part": "algebra", "value": 1.0})
    p = write_json(tmp_path / "p.json", {"part": "space", "value": [1.0, 0.0]})
    code, _, err = run_cli(capsys, "flow", "--realization", "union",
                           "--x", a, "--y", p)
    assert code == 2


def test_flow_rejects_non_unit_bloch_point(capsys, tmp_path):
    bad = write_json(tmp_path / "bad.json", [0.0, 0.0, 2.0])
    good = write_json(tmp_path / "good.json", [1.0, 0.0, 0.0])
    code, _, err = run_cli(capsys, "flow", "--realization", "bloch",
                           "--x", bad, "--y", good)
    assert code == 2 and "unit" in err


def test_bracket_reports_discrepancy(capsys, pauli_files):
    x, y = pauli_files
    code, out, _ = run_cli(capsys, "bracket", "--realization", "matrix-general",
                           "--x", x, "--y", y, "--h", "1e-4")
    assert code == 0
    payload = json.loads(out)
    analytic = qk.matrix_from_json(payload["analytic"])
    assert qk.max_abs(analytic - qk.commutator(qk.PAULI_Z, qk.PAULI_X)) == 0.0
    assert payload["discrepancy"] < 1e-6


def test_bracket_fixed_spectrum_infers_spectrum_from_file(capsys, tmp_path):
    x = write_json(tmp_path / "x.json",
                   qk.matrix_to_json(np.diag([0.0, 1.0]).astype(complex)))
    y = write_json(tmp_path / "y.json",
                   qk.matrix_to_json(np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)))
    code, out, _ = run_cli(capsys, "bracket", "--realization", "fixed-spectrum",
                           "--x", x, "--y", y)
    assert code == 0
    assert json.loads(out)["realization"] == "fixed-spectrum"


@pytest.mark.parametrize("command", ["flow", "bracket"])
def test_fixed_spectrum_of_another_size_names_both_sizes(capsys, tmp_path, command):
    d3 = write_json(tmp_path / "d3.json", qk.matrix_to_json(np.diag([1.0, 2.0, 3.0]).astype(complex)))
    p3 = write_json(tmp_path / "p3.json", qk.matrix_to_json(np.full((3, 3), 1.0 / 3.0, dtype=complex)))
    code, out, err = run_cli(capsys, command, "--realization", "fixed-spectrum", "--spectrum", "1,2",
                             "--x", d3, "--y", p3)
    assert (code, out, err) == (2, "", "error: a 3x3 matrix cannot carry 2 eigenvalues\n")


@pytest.mark.parametrize("command", ["flow", "bracket"])
def test_inferred_spectrum_reads_each_file_once(capsys, monkeypatch, tmp_path, command):
    x = write_json(tmp_path / "x.json", qk.matrix_to_json(np.diag([0.0, 1.0]).astype(complex)))
    y = write_json(tmp_path / "y.json",
                   qk.matrix_to_json(np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)))
    reads, load = [], cli._load_json
    monkeypatch.setattr(cli, "_load_json", lambda path: reads.append(path) or load(path))
    code, _, _ = run_cli(capsys, command, "--realization", "fixed-spectrum", "--x", x, "--y", y)
    assert (code, reads) == (0, [x, y])


@pytest.mark.parametrize("flags, error", [
    (["--realization", "matrix-general", "--dim", "0"], "error: dim must be in [1, "),
    (["--realization", "fixed-spectrum", "--spectrum", "a"], "error: bad spectrum 'a': "),
    (["--realization", "fixed-spectrum", "--spectrum", "1,1"], "error: eigenvalue gaps must be"),
])
def test_a_bad_flag_is_named_before_a_missing_file(capsys, tmp_path, flags, error):
    missing = str(tmp_path / "missing.json")
    for command in ("flow", "bracket"):
        code, out, err = run_cli(capsys, command, *flags, "--x", missing, "--y", missing)
        assert (code, out) == (2, "") and err.startswith(error)


@pytest.mark.parametrize("command", ["flow", "bracket"])
def test_fixed_spectrum_input_off_the_spectrum_names_both_spectra(capsys, tmp_path, command):
    # y never moved, so it did not drift: it does not carry x's spectrum.
    x = write_json(tmp_path / "x.json", qk.matrix_to_json(np.diag([1.0, 2.0]).astype(complex)))
    y = write_json(tmp_path / "y.json", qk.matrix_to_json(qk.PAULI_X))
    code, out, err = run_cli(capsys, command, "--realization", "fixed-spectrum", "--x", x, "--y", y)
    assert (code, out) == (2, "")
    assert err == "error: matrix has spectrum [-1.0, 1.0], not the carrier's [1.0, 2.0]\n"


@pytest.mark.parametrize("command", ["flow", "bracket"])
def test_refused_inferred_spectrum_is_named_with_its_source(capsys, tmp_path, command):
    eye = write_json(tmp_path / "eye.json", qk.matrix_to_json(np.eye(2, dtype=complex)))
    code, out, err = run_cli(capsys, command, "--realization", "fixed-spectrum", "--x", eye, "--y", eye)
    assert (code, out) == (2, "")
    assert err == "error: spectrum [1.0, 1.0] inferred from --x: eigenvalue gaps must be >= 1e-06\n"
    # an explicit --spectrum is named by the user, so its line stays as it was
    code, out, err = run_cli(capsys, command, "--realization", "fixed-spectrum", "--spectrum", "1,1",
                             "--x", eye, "--y", eye)
    assert (code, out, err) == (2, "", "error: eigenvalue gaps must be >= 1e-06\n")


NOTE = "bloch: numeric bracket is 0 at h=1e-300: x acting on y for +/-h rounds to one point"


@pytest.mark.parametrize("argv, x, y, noted", [
    (["--realization", "bloch", "--h", "1e-300"], [0.0, 0.0, 1.0], [0.6, 0.8, 0.0], True),
    # x = y: both brackets are 0, an exact answer with nothing to flag
    (["--realization", "bloch", "--h", "1e-300"], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0], False),
    # a finite bracket too large to take the norm of is not all zero either
    (["--realization", "convex-flow", "--dim", "3"], [1e160, 0.0, 0.0], [0.0, 1e160, 0.0], False),
])
def test_bracket_flags_a_numeric_bracket_lost_to_cancellation(capsys, tmp_path, argv, x, y, noted):
    x, y = write_json(tmp_path / "x.json", x), write_json(tmp_path / "y.json", y)
    code, out, err = run_cli(capsys, "bracket", *argv, "--x", x, "--y", y)
    assert code == 0 and json.loads(out)["realization"] == argv[1]
    assert (NOTE in err.splitlines()) is noted and len(err.splitlines()) == 1 + noted


@pytest.mark.parametrize("h", ["9e307", "1e308"])
def test_bracket_refuses_a_step_whose_double_overflows(capsys, tmp_path, h):
    # 2h would round to inf, and the quotient to a numeric bracket of 0.
    x = write_json(tmp_path / "x.json", [0.0, 0.0, 1.0])
    y = write_json(tmp_path / "y.json", [0.6, 0.8, 0.0])
    code, out, err = run_cli(capsys, "bracket", "--realization", "bloch", "--x", x, "--y", y,
                             "--h", h)
    assert (code, out) == (2, "")
    assert err == f"error: step h must be at most 8.988465674311579e+307, got {float(h)!r}\n"


def test_bracket_union_unsupported(capsys, tmp_path):
    a = write_json(tmp_path / "a.json", {"part": "algebra", "value": 1.0})
    code, _, err = run_cli(capsys, "bracket", "--realization", "union",
                           "--x", a, "--y", a)
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("scale, argv, stage", [
    # e^{±400t} overflows in the product past t ~ 0.9, in expm past t ~ 1.8
    (400.0, ["flow", "--t-end", "1.5"], "sample_flow at t = 0.9"),
    (400.0, ["flow", "--t-end", "3"], "sample_flow"),
    (400.0, ["flow", "--t-end", "3", "--method", "rk4"], "integrate_flow"),
    (400.0, ["bracket", "--h", "1"], "numeric_bracket"),
    # e^{tX} overflows in its squarings
    (1e200, ["flow"], "sample_flow"),
    (1e200, ["bracket"], "numeric_bracket"),
])
def test_non_finite_output_exits_two(capsys, tmp_path, scale, argv, stage):
    x = write_json(tmp_path / "x.json", qk.matrix_to_json(scale * qk.PAULI_Z))
    y = write_json(tmp_path / "y.json", qk.matrix_to_json(qk.PAULI_X))
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = run_cli(capsys, *argv, "--realization", "matrix-general",
                                 "--x", x, "--y", y)
    assert code == 2
    assert out == ""
    assert f"error: {stage}" in err
    assert "non-finite entries" not in err


@pytest.mark.parametrize("argv, stage", [
    (["flow", "--t-end", "1.5"], "sample_flow at t = 0.9"),
    (["flow", "--t-end", "3"], "sample_flow at t = 0.9"),
    (["flow", "--t-end", "3", "--method", "rk4", "--steps", "100"],
     "integrate_flow at t = 2.22"),
    (["flow", "--t-end", "3", "--method", "rk4", "--steps", "1000"], "integrate_flow at t = 0.927"),
    (["bracket", "--h", "1"], "numeric_bracket at t = +/-1.0"),
])
def test_overflow_prints_only_the_error_line(tmp_path, argv, stage):
    # A separate process: in process, pytest would capture the numpy
    # RuntimeWarnings before they reach stderr.  The line names the cause.
    x = write_json(tmp_path / "x.json", qk.matrix_to_json(400.0 * qk.PAULI_Z))
    y = write_json(tmp_path / "y.json", qk.matrix_to_json(qk.PAULI_X))
    proc = subprocess.run(
        [sys.executable, "-m", "quandlekit.cli", *argv, "--realization", "matrix-general",
         "--x", x, "--y", y],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert line.startswith(f"error: {stage}: overflow encountered in ")


# Inputs whose numeric bracket is finite while a later number overflows: the
# discrepancy's dot product (convex) or the analytic commutator (Hermitian).
BRACKET_OVERFLOW = [
    (["--realization", "convex-flow", "--dim", "3"], [1e200, 0.0, 0.0], [0.0, 1e200, 0.0],
     "discrepancy"),
    (["--realization", "matrix-hermitian"],
     {"dim": 2, "re": [[1e200, 3e199], [3e199, -1e200]], "im": [[0.0, 2e199], [-2e199, 0.0]]},
     {"dim": 2, "re": [[0.0, 1e200], [1e200, 0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
     "analytic bracket"),
]


@pytest.mark.parametrize("argv, x, y, stage", BRACKET_OVERFLOW)
def test_bracket_overflow_exits_two(capsys, tmp_path, argv, x, y, stage):
    x, y = write_json(tmp_path / "x.json", x), write_json(tmp_path / "y.json", y)
    code, out, err = run_cli(capsys, "bracket", *argv, "--x", x, "--y", y)
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    assert line == f"error: {stage}: overflow encountered in matmul"
    assert "non-finite entries" not in err


def test_bracket_overflow_leaks_no_numpy_warning(tmp_path):
    for argv, x, y, stage in BRACKET_OVERFLOW:
        x, y = write_json(tmp_path / "x.json", x), write_json(tmp_path / "y.json", y)
        proc = subprocess.run(
            [sys.executable, "-m", "quandlekit.cli", "bracket", *argv, "--x", x, "--y", y],
            capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "Warning" not in proc.stderr
        [line] = proc.stderr.splitlines()
        assert line.startswith(f"error: {stage}: ")


def test_bracket_refuses_a_non_finite_result_without_fp_flags():
    # Where a numpy build's matmul sets no FP flag, the result itself is checked.
    with pytest.raises(ArithmeticError, match=r"^discrepancy: non-finite result$"):
        cli._finite("discrepancy", lambda: np.array([1.0, math.inf]))


def test_empty_error_message_names_the_exception(capsys, monkeypatch, tmp_path):
    # A bare MemoryError, as a list too large for the address space raises.
    def no_memory(t_end, steps):
        raise MemoryError()

    monkeypatch.setattr(verify, "_grid", no_memory)
    x = write_json(tmp_path / "x.json", [1.0, 0.0, 0.0])
    y = write_json(tmp_path / "y.json", [0.0, 1.0, 0.0])
    code, out, err = run_cli(capsys, "flow", "--realization", "bloch", "--x", x, "--y", y)
    assert (code, out, err) == (2, "", "error: MemoryError\n")


def test_flow_refuses_coerced_vector(capsys, tmp_path):
    x = write_json(tmp_path / "x.json", [0, 0, True])
    y = write_json(tmp_path / "y.json", [1.0, 0.0, 0.0])
    code, out, err = run_cli(capsys, "flow", "--realization", "bloch", "--x", x, "--y", y)
    assert code == 2
    assert out == ""
    assert "vector JSON entry must be a number, got True" in err


@pytest.mark.parametrize("realization, x, y, error", [
    ("bloch", {}, [1.0, 0.0, 0.0], "vector JSON must be a list of numbers, got {}"),
    ("union", {"part": "algebra", "value": 1.0}, {"part": "space", "value": {}},
     "union element JSON 'value' must be a list of numbers, got {}"),
    # The part is checked before the value check it would choose.
    ("union", {"part": "bogus", "value": 1.0}, {"part": "space", "value": [1.0, 0.0]},
     "part must be 'algebra' or 'space', got 'bogus'"),
    # json.load reads NaN and Infinity, so a vector file can hold them.
    ("convex-flow", [float("nan"), 1.0], [0.0, 1.0], "vector entries must be finite"),
    ("bloch", [1.0, 0.0, 0.0], [float("inf"), 0.0, 0.0], "vector entries must be finite"),
])
def test_flow_refuses_non_list_vector(capsys, tmp_path, realization, x, y, error):
    x, y = write_json(tmp_path / "x.json", x), write_json(tmp_path / "y.json", y)
    code, out, err = run_cli(capsys, "flow", "--realization", realization, "--x", x, "--y", y)
    assert (code, out, err) == (2, "", f"error: {error}\n")


# ---------------------------------------------------------------------------
# exit-code contract on malformed input

# Valid inputs of each kind and the command that reads them from --x (or as
# the file argument); the property breaks one part of the input at random.
VALID_INPUTS = {
    "table": (CYCLIC3, ["classify", "{x}"]),
    "matrix": (qk.matrix_to_json(qk.PAULI_Z), ["flow", "--realization", "matrix-hermitian",
                                                "--x", "{x}", "--y", "{y}", "--steps", "3"]),
    "spectrum": (qk.matrix_to_json(qk.PAULI_Z), ["bracket", "--realization", "fixed-spectrum",
                                                  "--x", "{x}", "--y", "{y}"]),
    "vector": ([0.0, 0.0, 1.0], ["flow", "--realization", "bloch",
                                 "--x", "{x}", "--y", "{y}", "--steps", "3"]),
}
JSON_LEAVES = (st.none() | st.booleans() | st.integers(min_value=-3, max_value=3)
               | st.floats() | st.text(max_size=3))
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(["order", "table", "dim", "re", "im"]), kids, max_size=3),
    max_leaves=8,
)


def json_paths(obj, path=()):
    """Every position in a JSON value, as a key path from the top."""
    yield path
    if isinstance(obj, (dict, list)):
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from json_paths(value, path + (key,))


@st.composite
def malformed_inputs(draw):
    kind = draw(st.sampled_from(sorted(VALID_INPUTS)))
    valid, argv = VALID_INPUTS[kind]
    obj = copy.deepcopy(valid)
    path = draw(st.sampled_from(list(json_paths(obj))))
    if not path:
        obj = draw(JSON_VALUES)
    else:
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(JSON_VALUES)
    text = json.dumps(obj)  # NaN and Infinity stay in, as Python writes them
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        text = text[: draw(st.integers(min_value=0, max_value=len(text)))]
    return kind, text, argv


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("contract")
    (d / "y.json").write_text(json.dumps(qk.matrix_to_json(qk.PAULI_X)))
    (d / "v.json").write_text(json.dumps([1.0, 0.0, 0.0]))
    return d


# A 3x3 --x (y.json is 2x2) for a spectrum of two and of three eigenvalues.
SPECTRUM_SIZE_CASES = [
    ("spectrum", json.dumps(qk.matrix_to_json(np.diag([1.0, 2.0, 3.0]))),
     [command, "--realization", "fixed-spectrum", "--spectrum", spectrum, "--x", "{x}", "--y", "{y}"])
    for command, spectrum in (("flow", "1,2"), ("bracket", "1,2,3"))
]


# A t_end whose grid overflows at its last point: it printed a row of inf under exit 0.
T_END_CASE = ("vector", json.dumps([1.0, 0.0, 0.0]),
              ["flow", "--realization", "convex-flow", "--dim", "3", "--x", "{x}", "--y", "{y}",
               "--t-end", "1e308", "--steps", "2"])


# A subnormal t_end whose grid times coincide: it was refused as "times must be strictly
# increasing", naming neither t_end nor steps.
TINY_T_END_CASES = [
    ("matrix", json.dumps(qk.matrix_to_json(qk.PAULI_Z)),
     ["flow", "--realization", "matrix-general", "--x", "{x}", "--y", "{y}",
      "--t-end", "5e-324", "--steps", "2", "--method", method])
    for method in ("closed", "rk4")
]


@settings(max_examples=120)
@given(case=malformed_inputs())
@example(case=SPECTRUM_SIZE_CASES[0])
@example(case=SPECTRUM_SIZE_CASES[1])
@example(case=T_END_CASE)
@example(case=TINY_T_END_CASES[0])
@example(case=TINY_T_END_CASES[1])
def test_malformed_input_keeps_the_exit_code_contract(contract_dir, case):
    kind, text, argv = case
    x = contract_dir / "x.json"
    x.write_text(text)
    y = contract_dir / ("v.json" if kind == "vector" else "y.json")
    argv = [a.format(x=x, y=y) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
    if code == 0:  # JSON writes NaN and Infinity, CSV nan and inf
        assert not re.search(r"NaN|Infinity|\bnan\b|\binf\b", out.getvalue())
    if case in SPECTRUM_SIZE_CASES:
        assert code == 2 and "matrix cannot carry" in err.getvalue()
    if case == T_END_CASE:
        assert err.getvalue() == "error: t_end * steps overflows: t_end 1e+308, steps 2\n"
    if case in TINY_T_END_CASES:
        assert err.getvalue() == "error: t_end 5e-324 is too small for 2 steps: grid times coincide\n"


# ---------------------------------------------------------------------------
# exit-code contract on verify/noether flag values

REALS = st.sampled_from(["0", "1e-300", "1e-7", "0.5", "3", "800", "1e6", "1e308",
                         "nan", "inf", "-1"]) | st.floats(allow_nan=False).map(repr)
SPECTRA = (st.lists(st.sampled_from(["1", "2", "-3", "2.5", "1.0000001", "nan", "x", ""]),
                    max_size=4).map(",".join))
FLAG_VALUES = {
    "--samples": st.integers(min_value=-1, max_value=20).map(str),
    "--pairs": st.integers(min_value=-1, max_value=4).map(str),
    "--dim": st.integers(min_value=0, max_value=17).map(str),
    "--tol": REALS,
    "--t-max": REALS,
    "--t-samples": st.integers(min_value=0, max_value=64).map(str),
    "--spectrum": SPECTRA,
}
# The first flag of each command is always given: the default counts (200
# samples, 100 pairs) would make the property slow.
COMMAND_FLAGS = {
    "verify": ("--samples", "--dim", "--tol", "--spectrum"),
    "noether": ("--pairs", "--dim", "--tol", "--t-max", "--t-samples", "--spectrum"),
}


@st.composite
def flag_commands(draw):
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    argv = [command, "--realization", draw(st.sampled_from(qk.REALIZATION_NAMES))]
    for i, flag in enumerate(COMMAND_FLAGS[command]):
        if i == 0 or draw(st.booleans()):
            argv.append(f"{flag}={draw(FLAG_VALUES[flag])}")
    return argv


@settings(max_examples=100)
@given(argv=flag_commands())
def test_flag_values_keep_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            np.errstate(over="ignore", invalid="ignore"):
        code = main(argv)
    out = out.getvalue()
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and err.getvalue().startswith("error: ")
    if code == 0:
        assert "NaN" not in out and "Infinity" not in out
        if argv[0] == "noether":
            payload = json.loads(out)
            assert payload["control_consistent"] is True and payload["modes_agree"] is not False


# ---------------------------------------------------------------------------
# entry point


def test_console_script_round_trip(tmp_path):
    exe = shutil.which("quandlekit")
    if exe is None:
        pytest.skip("console script not installed")
    path = tmp_path / "table.json"
    path.write_text(json.dumps(CYCLIC3))
    proc = subprocess.run([exe, "classify", str(path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["is_quandle"]


def test_module_invocation_matches(tmp_path):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(CYCLIC3))
    proc = subprocess.run([sys.executable, "-m", "quandlekit.cli", "classify", str(path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
