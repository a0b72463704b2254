import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import cmcgeo
import cmcgeo.catalog as cat
from cmcgeo.cli import _jfmt, main
from cmcgeo.errors import InvalidParameters

CSV_COLUMNS = ["family", "n", "c", "params", "abs_H", "phi_norm", "alpha_H",
               "scalar_curvature", "scalar_bound", "branch", "inf_K"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_model_hyperbolic_cylinder(capsys):
    code, out, _ = run(capsys, "model", "hyperbolic-cylinder:n=3,k=2,r=1.0")
    assert code == 0
    rec = json.loads(out)
    assert rec["abs_H"] == pytest.approx(1.17851130, abs=1e-7)
    assert rec["phi_norm"] == pytest.approx(0.57735027, abs=1e-7)
    assert rec["alpha_H"] == pytest.approx(0.57735027, abs=1e-7)
    assert rec["branch"] == "equality"
    assert rec["scalar_curvature"] == pytest.approx(2.0, abs=1e-9)
    assert rec["residual_max"] <= 1e-5


def test_model_clifford(capsys):
    code, out, _ = run(capsys, "model", "clifford:n=3,k=1")
    assert code == 0
    rec = json.loads(out)
    assert rec["phi_norm"] == pytest.approx(1.73205081, abs=1e-7)
    assert rec["alpha_H"] == pytest.approx(1.73205081, abs=1e-7)
    assert rec["abs_H"] == 0.0


def test_model_below_ellipticity_threshold(capsys):
    # k=1 hyperbolic cylinder with a sphere factor too large for H^2 > 1
    code, out, _ = run(capsys, "model", "hyperbolic-cylinder:n=3,k=1,r=0.7")
    assert code == 0
    rec = json.loads(out)
    assert rec["branch"] == "non-elliptic"
    assert rec["alpha_H"] is None and rec["scalar_bound"] is None
    assert rec["abs_H"] ** 2 < 1.0


def test_model_and_verify_pass_their_invariants_to_classify(capsys, monkeypatch):
    def unexpected(model):
        raise AssertionError("classify recomputed the invariants")

    monkeypatch.setattr("cmcgeo.bounds.closed_form_invariants", unexpected)
    assert run(capsys, "model", "unduloid:H=1,B=0.5", "--grid", "2")[0] == 0
    assert run(capsys, "verify", "clifford:n=3,k=1", "--grid", "4")[0] == 0


def test_model_invalid_parameters_exit_3(capsys):
    code, _, err = run(capsys, "model", "unduloid:H=1,B=2")
    assert code == 3
    assert "B must lie in (0,1)" in err


@pytest.mark.parametrize("argv, message", [
    (("model", "unduloid:H=inf,B=0.5", "--grid", "1"), "H must be finite"),
    (("model", "euclidean-product:n=3,k=1,r=inf"), "r must be finite"),
    (("model", "umbilical-sphere:n=3,c=0,r=nan"), "r must be finite"),
    (("unduloid", "--H", "inf", "--B", "0.5"), "H must be finite"),
    (("unduloid", "--H", "nan", "--solve-eps", "8"), "H must be finite"),
    (("unduloid", "--H", "1", "--solve-eps", "inf"), "eps must be positive and finite"),
    (("unduloid", "--H", "1", "--solve-eps", "nan"), "eps must be positive and finite"),
])
def test_non_finite_parameters_exit_3(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.strip().endswith(message) and "Traceback" not in err


def test_model_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "model", "wobbly:n=3")
    assert code == 2
    assert "wobbly" in err
    code, _, err = run(capsys, "model", "unduloid:H=1,Q=3")
    assert code == 2
    assert "'Q'" in err


def test_verify_unduloid_passes(capsys):
    code, out, _ = run(capsys, "verify", "unduloid:H=1,B=0.5",
                       "--grid", "8", "--tol", "1e-5")
    assert code == 0
    summary = json.loads(out)
    assert summary["pass"] is True
    assert summary["checks"]["simons_max"] <= 1e-5
    assert summary["checks"]["intrinsic_gauss_consistency"] <= 1e-6
    assert summary["branch"] == "strict"


def test_verify_sphere_product_strict_branch(capsys):
    code, out, _ = run(capsys, "verify", "sphere-product:n=3,r=0.9",
                       "--grid", "4", "--tol", "1e-5")
    assert code == 0
    summary = json.loads(out)
    assert summary["branch"] == "strict"


def test_verify_surface_models_in_curved_ambients(capsys):
    # n = 2 runs the intrinsic-curvature checks; c != 0 adds the on-surface
    # residual; both paths must serialize and pass
    for spec in ("umbilical-sphere:n=2,c=1,r=0.6",
                 "hyperbolic-cylinder:n=2,k=1,r=0.8"):
        code, out, _ = run(capsys, "verify", spec, "--grid", "4")
        assert code == 0
        summary = json.loads(out)
        assert summary["pass"] is True
        # umbilical points sit exactly on the K <= H^2 + c bound, so the
        # measured excess is pure FD noise
        assert summary["checks"]["gauss_upper_bound_violation"] <= 1e-6


def test_verify_computes_closed_forms_once_and_reads_positions_from_shape_data(
        capsys, monkeypatch):
    from cmcgeo import catalog, geometry
    calls = []
    real = catalog.closed_form_invariants
    monkeypatch.setattr(catalog, "closed_form_invariants",
                        lambda model: calls.append(model) or real(model))

    def no_position(chart, u):
        raise AssertionError("verify evaluated the chart again for a position")

    monkeypatch.setattr(geometry.ImmersionChart, "position", no_position)
    for spec in ("umbilical-sphere:n=2,c=1,r=0.6", "unduloid:H=1,B=0.5"):
        code, out, _ = run(capsys, "verify", spec, "--grid", "4")
        assert code == 0, out
    assert len(calls) == 2  # one per run, however many grid points


def test_verify_tight_tolerance_breaches(capsys):
    code, out, _ = run(capsys, "verify", "euclidean-product:n=3,k=2,r=1",
                       "--grid", "4", "--tol", "1e-12")
    assert code == 1
    summary = json.loads(out)
    assert summary["pass"] is False
    assert summary["max_residual"] > 1e-12


def test_verify_grid_minimum(capsys):
    code, _, err = run(capsys, "verify", "unduloid:H=1,B=0.5", "--grid", "3")
    assert code == 2
    assert "at least 4" in err


def test_okumura_command(capsys):
    code, out, _ = run(capsys, "okumura", "--n", "3", "--trials", "5000",
                       "--seed", "7")
    assert code == 0
    rec = json.loads(out)
    assert rec["pass"] is True
    assert rec["min_slack"] >= -1e-12
    assert rec["equality_sides_ok"] is True


def test_unduloid_solve_eps(capsys):
    code, out, _ = run(capsys, "unduloid", "--H", "1", "--solve-eps", "8",
                       "--samples", "8")
    assert code == 0
    rec = json.loads(out)
    assert rec["B"] == pytest.approx(0.5, abs=1e-12)
    assert rec["inf_K"] == pytest.approx(-8.0, abs=1e-12)
    assert rec["alpha_H"] == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert len(rec["samples"]) == 8


def test_unduloid_solve_tiny_eps(capsys):
    code, out, _ = run(capsys, "unduloid", "--H", "1", "--solve-eps", "1e-20",
                       "--samples", "4")
    assert code == 0
    rec = json.loads(out)
    assert 0.0 < rec["B"] < 1e-20
    assert rec["inf_K"] == pytest.approx(-1e-20, rel=1e-12, abs=0.0)


def test_unduloid_csv_table(capsys):
    code, out, _ = run(capsys, "unduloid", "--H", "1", "--B", "0.5",
                       "--samples", "4", "--csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["s", "x", "y", "y_prime", "y_second", "K", "phi_norm"]
    assert len(rows) == 5
    assert float(rows[1][2]) == pytest.approx(math.sqrt(1.25) / 2.0)


def _table_per_sample(h, b, samples):
    """The unduloid table built one sample at a time from the scalar
    library calls; raises where a sample has no double-precision value."""
    rows = []
    for s in np.linspace(0.0, math.pi / abs(h), samples, endpoint=False).tolist():
        p = cat.unduloid_profile(h, b, s)
        rows.append([s, p.x, p.y, p.y_prime, p.y_second, p.K, cat.unduloid_phi_norm(h, p.K)])
    return rows


_TABLE_CASES = [("--B", h, b) for h in ("1.3", "-0.8", "2")
                for b in ("1e-3", "0.5", "0.98", repr(1.0 - 2.0**-53))]
_TABLE_CASES += [("--solve-eps", h, "1e-20") for h in ("1.3", "-0.8")]


@pytest.mark.parametrize("samples", [64, 10])
@pytest.mark.parametrize("option, h, value", _TABLE_CASES)
def test_unduloid_table_rows_equal_rows_built_per_sample(capsys, option, h, value, samples):
    h_val = float(h)
    b = cat.solve_B_for_inf_gauss(h_val, float(value)) if option == "--solve-eps" else float(value)
    argv = ["unduloid", "--H", h, option, value, "--samples", str(samples)]
    try:
        rows = _table_per_sample(h_val, b, samples)
    except InvalidParameters:
        # B = 1 - 2^-53: at some sample 1 + B^2 + 2B sin(2Hs) rounds to 0 or K
        # rounds above H^2; the table must then exit 3 with a message, not crash.
        for extra in ([], ["--csv"]):
            code, out, err = run(capsys, *argv, *extra)
            assert (code, out) == (3, "") and "B is too close to 1" in err
        return
    text = [[format(v, ".17g") for v in row] for row in rows]
    code, out, _ = run(capsys, *argv, "--csv")
    assert code == 0
    assert out.splitlines()[1:] == [",".join(row) for row in text]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    names = ("s", "x", "y", "y_prime", "y_second", "K", "phi_norm")
    samples_json = ", ".join(
        "{" + ", ".join(f'"{k}": {v}' for k, v in zip(names, row)) + "}" for row in text)
    assert out.endswith(f'"samples": [{samples_json}]}}\n')


def test_unduloid_table_near_one_exits_3_at_the_neck(capsys):
    # 64 samples of one period put a sample where sin(2Hs) = -1 exactly.
    code, out, err = run(capsys, "unduloid", "--H", "1", "--B", repr(1.0 - 2.0**-53))
    assert (code, out) == (3, "")
    assert err == "error: B is too close to 1: 1 + B^2 + 2B sin(2Hs) rounds to 0\n"


def test_verify_near_one_exits_3(capsys):
    # At B = 1 - 2^-53 the closed-form K rounds above H^2 at a grid point, so
    # |Phi| = sqrt(2 (H^2 - K)) has no value there.
    code, out, err = run(capsys, "verify", "unduloid:H=1,B=0.9999999999999999", "--grid", "4")
    assert (code, out) == (3, "")
    assert err == "error: B is too close to 1: K rounds above H^2\n"


def test_unduloid_table_is_one_array_pass(capsys, monkeypatch):
    calls = []
    real = cat._carlson_rf_rd

    def counting(*args):
        calls.append(np.size(args[0]))
        return real(*args)

    monkeypatch.setattr(cat, "_carlson_rf_rd", counting)
    for samples in ("8", "512"):
        calls.clear()
        assert run(capsys, "unduloid", "--H", "-0.8", "--B", "0.9", "--samples", samples)[0] == 0
        # G(pi/4), G(pi/2), then every sample at once
        assert calls == [1, 1, int(samples)]


def _plain(obj):
    """obj with numpy scalars as Python ones, tuples as lists and non-finite
    floats as None: what json.dumps must see to give _jfmt's bytes."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


@pytest.mark.parametrize("obj", [
    'plain', 'quote " and backslash \\ and slash /', "tab\tnewline\ncontrol\x01\x1f",
    "non-ASCII: café, Φ, ∞, 𝔖", "",
    True, False, np.bool_(True), np.bool_(False), None,
    0, -7, 2**70, np.int64(-123456789012), np.int32(5),
    math.inf, -math.inf, math.nan, np.float64(math.nan), np.float64(-math.inf),
    [1, [2.5, [None, "x"]], (True, -0.125)],
    {1: "int key", 2.5: [0.5, math.nan], "s": {"nested": {3: np.float64(0.75)}}},
    {"é": ["ü", {"k\"ey": 1}]}, [], {},
], ids=repr)
def test_jfmt_equals_json_dumps(obj):
    assert _jfmt(obj) == json.dumps(_plain(obj))


@pytest.mark.parametrize("x", [0.1, -2.0 / 3.0, 1e-300, 5e-324, 1.7976931348623157e308,
                               -0.0, 1.0, 123456789.125, np.float64(0.1), np.float64(1e22)])
def test_jfmt_writes_floats_with_17_significant_digits(x):
    text = _jfmt(x)
    assert text == format(float(x), ".17g")
    assert json.loads(text) == x and type(json.loads(text)) in (float, int)


def test_unduloid_requires_B_or_eps(capsys):
    with pytest.raises(SystemExit):
        main(["unduloid", "--H", "1"])


def test_report_csv(tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    code, out, _ = run(capsys, "report", "--out", str(out_path), "--format",
                       "csv", "--seed", "0")
    assert code == 0
    with open(out_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) - 1 >= 20
    families = {r[0] for r in rows[1:]}
    assert len(families) == 6
    by_col = {name: i for i, name in enumerate(rows[0])}
    for r in rows[1:]:
        if r[by_col["family"]] == "unduloid":
            params = dict(kv.split("=") for kv in r[by_col["params"]].split(","))
            h, b = float(params["H"]), float(params["B"])
            expect = -4.0 * h * h * b / (1.0 - b) ** 2
            assert float(r[by_col["inf_K"]]) == pytest.approx(expect, rel=1e-12)
        else:
            assert r[by_col["inf_K"]] == ""


def test_report_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "report", "--out", str(p1), "--seed", "3")
    run(capsys, "report", "--out", str(p2), "--seed", "3")
    assert p1.read_bytes() == p2.read_bytes()


def test_report_json_format(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "report", "--out", str(out_path), "--format",
                     "json", "--families", "unduloid,clifford")
    assert code == 0
    records = json.loads(out_path.read_text())
    assert all(r["family"] in ("unduloid", "clifford") for r in records)
    assert any(r["inf_K"] is not None for r in records)
    # floats are emitted with enough digits to round-trip
    raw = out_path.read_text()
    assert "1.7320508075688772" in raw


def test_report_json_deterministic_apart_from_timestamps(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "report", "--out", str(p1), "--format", "json",
        "--families", "unduloid", "--seed", "5")
    run(capsys, "report", "--out", str(p2), "--format", "json",
        "--families", "unduloid", "--seed", "5")
    r1 = json.loads(p1.read_text())
    r2 = json.loads(p2.read_text())
    for rec in r1 + r2:
        rec.pop("timestamp")
    assert r1 == r2


def test_report_unknown_family_exit_2(capsys):
    code, _, err = run(capsys, "report", "--families", "moebius")
    assert code == 2
    assert "moebius" in err


def test_report_io_failure_exit_4(tmp_path, capsys):
    bad = tmp_path / "no" / "such" / "dir" / "x.csv"
    code, _, err = run(capsys, "report", "--out", str(bad),
                       "--families", "clifford")
    assert code == 4


def test_fd_step_env_override(capsys, monkeypatch):
    monkeypatch.setenv("CMC_FD_STEP", "2e-4")
    code, out, _ = run(capsys, "model", "euclidean-product:n=3,k=2,r=1.0")
    assert code == 0
    assert json.loads(out)["residual_max"] <= 1e-5


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_unduloid_samples_below_one_exit_2(capsys, samples):
    code, out, err = run(capsys, "unduloid", "--H", "1", "--B", "0.5",
                         "--samples", samples)
    assert code == 2
    assert out == ""
    assert err == "error: --samples must be at least 1\n"


@pytest.mark.parametrize("step", ["abc", "nan", "inf", "-inf", "0", "-2e-4", "1e-300"])
def test_bad_fd_step_env_exit_2(capsys, monkeypatch, step):
    monkeypatch.setenv("CMC_FD_STEP", step)
    code, out, err = run(capsys, "model", "euclidean-product:n=3,k=2,r=1.0")
    assert code == 2
    assert out == ""
    assert err.startswith("error: CMC_FD_STEP ") and err.count("\n") == 1


def test_other_package_error_exit_5(capsys, monkeypatch):
    monkeypatch.setenv("CMC_FD_STEP", "0.5")
    code, out, err = run(capsys, "verify", "euclidean-product:n=3,k=1,r=1.0",
                         "--grid", "4")
    assert code == 5
    assert out == ""
    assert err.startswith("error: DomainExceeded: ") and err.count("\n") == 1


def test_console_script_runs():
    # The child imports the same cmcgeo as this test, installed or not.
    src = os.path.dirname(os.path.dirname(cmcgeo.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cmcgeo.cli", "model", "umbilical-sphere:n=3,c=0,r=2.0"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    rec = json.loads(proc.stdout)
    assert rec["branch"] == "umbilical"
