import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cmcgeo
import cmcgeo.catalog as cat
from cmcgeo import cli
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


def test_verify_non_elliptic_model(capsys):
    # H^2 + c <= 0: no gap threshold, yet the identity suite still runs
    code, out, _ = run(capsys, "verify", "hyperbolic-cylinder:n=3,k=1,r=1.0", "--grid", "4")
    summary = json.loads(out)
    assert (code, summary["branch"], summary["pass"]) == (0, "non-elliptic", True)


def test_verify_checks_are_the_benchmark_oracles():
    from perfbench.oracle import VERIFY_CHECKS, VERIFY_CHECKS_N2

    assert list(cli._VERIFY_CHECKS) == VERIFY_CHECKS
    assert list(cli._VERIFY_CHECKS_N2) == VERIFY_CHECKS_N2


def test_verify_grid_minimum(capsys):
    code, _, err = run(capsys, "verify", "unduloid:H=1,B=0.5", "--grid", "3")
    assert code == 2
    assert "at least 4" in err


@pytest.mark.parametrize("tol", ["inf", "nan", "-1e-3", "0", "-inf"])
def test_verify_tol_not_finite_and_positive_exit_2(capsys, tol):
    code, out, err = run(capsys, "verify", "unduloid:H=1,B=0.5", "--grid", "4", f"--tol={tol}")
    assert (code, out, err) == (2, "", "error: --tol must be finite and positive\n")


# One model of each family whose first field is n.
_N_FIELD_MODELS = list({m.family: m for m in cat.default_model_grid()
                        if dataclasses.fields(m)[0].name == "n"}.values())


@pytest.mark.parametrize("model", _N_FIELD_MODELS, ids=lambda m: m.family)
def test_model_with_n_below_2_exits_3_with_one_line(capsys, model):
    text = f"{model.family}:n=1," + model.params_text().split(",", 1)[1]
    assert run(capsys, "model", text) == (3, "", "error: n must be >= 2\n")


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


@pytest.mark.parametrize("argv, option, code", [
    (("unduloid", "--B", "0.5", "--samples", "4", "--csv"), "--H", 0),
    (("unduloid", "--H", "1"), "--B", 3),
    (("unduloid", "--H", "1"), "--solve-eps", 3),
    (("verify", "umbilical-sphere:n=2,c=0,r=1.0", "--grid", "4"), "--tol", 2),
], ids=["H", "B", "solve-eps", "verify-tol"])
def test_negative_number_with_an_exponent_is_a_value(capsys, argv, option, code):
    # "--H -1e-3" reads as "--H=-1e-3", not as a flag -1e-3.
    spaced = run(capsys, *argv, option, "-1e-3")
    assert spaced == run(capsys, *argv, f"{option}=-1e-3")
    assert spaced[0] == code
    assert run(capsys, *argv, option, "-2.5E+1") == run(capsys, *argv, f"{option}=-2.5E+1")


def test_unduloid_negative_H_with_an_exponent_writes_its_table(capsys):
    code, out, _ = run(capsys, "unduloid", "--H", "-1e-3", "--B", "0.5", "--samples", "4", "--csv")
    assert code == 0 and len(out.splitlines()) == 5


def test_option_without_its_value_still_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["unduloid", "--H", "--B", "0.5"])
    assert exc.value.code == 2
    assert "--H: expected one argument" in capsys.readouterr().err


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


# ---------------------------------------------------------------------------
# unduloid table rows, the cached parser, overflow and NaN verdicts
# ---------------------------------------------------------------------------

_EXTREME = (-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
            -1.7976931348623157e308, 1.7976931348623155e308, 0.1, 1e16, 1e17)
_FINITE = st.one_of(st.sampled_from(_EXTREME),
                    st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda rows: st.lists(
    st.lists(_FINITE, min_size=rows, max_size=rows), min_size=7, max_size=7)))
def test_table_rows_equal_csv_writer_and_jfmt(columns):
    columns = [np.array(col) for col in columns]
    rows = list(zip(*(col.tolist() for col in columns)))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([format(v, ".17g") for v in row]
                                                    for row in rows)
    assert cli._table_rows(columns, True) == buf.getvalue()
    samples = [dict(zip(cli._TABLE_COLUMNS, row)) for row in rows]
    text = cli._table_rows(columns, False)
    assert "[" + text + "]" == _jfmt(samples)
    # '-0' and '0' read back as -0.0 and 0.0 once integers parse as floats
    loaded = json.loads("[" + text + "]", parse_int=float)
    assert [[v.hex() for v in d.values()] for d in loaded] \
        == [[float(v).hex() for v in row] for row in rows]


def _fresh_and_cached(argvs, capsys):
    """(code, stdout, stderr) of each argv on a parser built for it alone, then
    of all of them in turn on one cached parser; a usage error is code 2."""
    def one(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in argvs:
        cli._parser.cache_clear()
        fresh.append(one(argv))
    cli._parser.cache_clear()
    cached = [one(argv) for argv in argvs]
    return fresh, cached


def test_main_reuses_one_parser_and_behaves_as_on_a_fresh_one(capsys):
    argvs = [("unduloid", "--H", "1", "--B", "0.5", "--samples", "8"),
             ("unduloid", "--H", "0.7", "--solve-eps", "5", "--samples", "8", "--csv"),
             ("unduloid", "--H", "1", "--B", "0.5", "--solve-eps", "5"),
             ("unduloid", "--H", "1", "--B", "0.5", "--samples", "4", "--csv"),
             ("verify", "clifford:n=2,k=1", "--grid", "4")]
    fresh, cached = _fresh_and_cached(argvs, capsys)
    assert cached == fresh
    assert [code for code, _, _ in cached] == [0, 0, 2, 0, 0]
    assert json.loads(cached[0][1])["solved_from_eps"] is None
    assert cached[3][1].count("\n") == 5 and json.loads(cached[4][1])["pass"] is True
    info = cli._parser.cache_info()
    assert (info.misses, info.hits) == (1, len(argvs) - 1)


def test_no_parser_is_built_at_import():
    src = os.path.dirname(os.path.dirname(cmcgeo.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import cmcgeo.cli as c; print(c._parser.cache_info().currsize)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout == "0\n"


@pytest.mark.parametrize("argv, message", [
    (("unduloid", "--H", "1e200", "--B", "0.3"), "H is too large: 4H^2 overflows"),
    (("unduloid", "--H", "1e200", "--B", "0.3", "--csv"), "H is too large: 4H^2 overflows"),
    (("model", "unduloid:H=1e200,B=0.3", "--grid", "1"), "H is too large: 4H^2 overflows"),
    (("unduloid", "--H", "1e154", "--B", "0.5"), "H is too large: 4H^2 overflows"),
    (("unduloid", "--H", "1e153", "--B", "0.99"),
     "H is too large for B: sup |Phi|^2 = 2H^2 (1+B)^2/(1-B)^2 overflows"),
    (("unduloid", "--H", "1e-320", "--B", "0.5"), "H is too small: the period pi/|H| overflows"),
])
def test_overflowing_unduloid_exits_3_with_one_line(capsys, argv, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, *argv)
    assert (code, out, err) == (3, "", f"error: {message}\n")


def test_max_propagates_nan():
    nan = math.nan
    assert cli._max(0.0, 1.0) == 1.0 and cli._max(2.0, -1.0) == 2.0
    assert cli._max(-0.0, 0.0) == 0.0
    for a, b in ((0.0, nan), (nan, 0.0), (nan, nan), (math.inf, nan), (nan, -math.inf)):
        assert math.isnan(cli._max(a, b))
    assert max(0.0, nan) == 0.0  # what the builtin does


def test_verify_with_a_nan_residual_is_not_a_pass(capsys):
    # r = 1e100: the Simons residual is NaN at every grid point
    with pytest.warns(RuntimeWarning):
        code, out, err = run(capsys, "verify", "umbilical-sphere:n=3,c=0,r=1e100", "--grid", "4")
    summary = json.loads(out)
    assert summary["checks"]["simons_max"] is None
    assert summary["max_residual"] is None and summary["pass"] is False
    assert code == 5
    assert err == "error: CmcError: a check is not finite: simons_max\n"


def test_model_with_a_nan_residual_exits_5(capsys):
    with pytest.warns(RuntimeWarning):
        code, out, err = run(capsys, "model", "euclidean-product:n=3,k=2,r=1e100", "--grid", "2")
    assert json.loads(out)["residual_max"] is None
    assert code == 5
    assert err == "error: CmcError: the Simons residual is not finite at a sample point\n"


# r where 2 (n r)^2 or 2 (n/r)^2 overflows, in each family with a radius; the
# named cases once overflowed in the closed forms, in classify or in eigh.
_RADIUS_OVERFLOWS = [
    *(f"{family}:{params}r={r}"
      for family, params, radii in (
          ("euclidean-product", "n=3,k=1,", (1e-300, 1e-200, 1e200, 1e300)),
          ("hyperbolic-cylinder", "n=3,k=2,", (1e-300, 1e-200, 1e200, 1e300)),
          ("umbilical-sphere", "n=3,c=-1,", (1e-300, 1e-200, 1e200, 1e300)),
          ("umbilical-sphere", "n=3,c=0,", (1e-300, 1e-200, 1e200, 1e300)),
          ("umbilical-sphere", "n=3,c=1,", (1e-300, 1e-200)),
          ("sphere-product", "n=3,", (1e-300, 1e-200)))
      for r in radii),
    "hyperbolic-cylinder:n=3,k=1,r=1e-170",  # (rho / r) ** 2 in the invariants
    "euclidean-product:n=2,k=1,r=1.38e-273",  # abs_H ** 2 in bounds.classify
    "euclidean-product:n=3,k=1,r=1e200",  # eigh of a NaN second fundamental form
]


@pytest.mark.parametrize("command", ["model", "verify"])
@pytest.mark.parametrize("spec", _RADIUS_OVERFLOWS)
def test_overflowing_radius_exits_3_with_one_line(capsys, command, spec):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, command, spec, "--grid", "1" if command == "model" else "4")
    size = "small" if float(spec.rsplit("=", 1)[1]) < 1 else "large"
    message = "(n/r)^2" if size == "small" else "(n r)^2"
    assert (code, out, err) == (3, "", f"error: r is too {size}: 2 {message} overflows\n")


# The last-resort catch, for an OverflowError and a LinAlgError that no
# checked input raises any more.
@pytest.mark.parametrize("command", ["verify", "model"])
def test_overflow_error_exits_5_with_one_line(capsys, monkeypatch, command):
    def overflow(model):
        raise OverflowError("(34, 'Numerical result out of range')")

    monkeypatch.setattr(cat, "closed_form_invariants", overflow)
    code, out, err = run(capsys, command, "unduloid:H=1,B=0.5", "--grid", "4")
    assert (code, out) == (5, "")
    assert err == "error: OverflowError: (34, 'Numerical result out of range')\n"


def test_lin_alg_error_exits_5_with_one_line(capsys, monkeypatch):
    def no_convergence(model):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(cat, "closed_form_invariants", no_convergence)
    code, out, err = run(capsys, "verify", "unduloid:H=1,B=0.5", "--grid", "4")
    assert (code, out) == (5, "")
    assert err == "error: LinAlgError: Eigenvalues did not converge\n"


def test_a_bare_value_error_is_not_caught(monkeypatch):
    def broken(model):
        raise ValueError("not a last-resort error")

    monkeypatch.setattr(cat, "closed_form_invariants", broken)
    with pytest.raises(ValueError, match="not a last-resort error"):
        main(["verify", "unduloid:H=1,B=0.5", "--grid", "4"])
