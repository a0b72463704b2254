"""Tests of the benchmark itself: oracle, self time, patch restoration,
repeatable counts, and agreement with BENCHMARK.json."""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest

from cmcgeo import catalog, cli
from cmcgeo.numeric import Jet2
from perfbench import tracing
from perfbench.oracle import (Finding, Oracle, Outcome, _check_report_row, closed_form,
                              parse_params)
from perfbench.workloads import KNOWN_FALSE_FAILURES, WORKLOADS, Job

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def _cli_outcome(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return Outcome(Job(" ".join(argv), "cli", tuple(argv)), exit_code=code,
                   stdout=buf.getvalue())


def _verify_record(spec, simons=1e-9, branch="equality"):
    checks = {k: 1e-15 for k in ("simons_max", "scalar_vs_curvature_contraction",
                                 "ricci_vs_contraction", "trace_phi", "phi_norm2_vs_kappas",
                                 "point_on_space_form", "mean_curvature_vs_closed_form",
                                 "phi_norm_vs_closed_form", "kappas_vs_closed_form")}
    if spec.startswith("unduloid"):
        checks["intrinsic_gauss_consistency"] = 1e-15
        checks["gauss_upper_bound_violation"] = 0.0
    checks["simons_max"] = simons
    worst = max(checks.values())
    return {"model": spec, "grid": 16, "tol": 1e-5, "branch": branch, "checks": checks,
            "max_residual": worst, "pass": worst <= 1e-5}


def _verify_outcome(label_spec, record, exit_code):
    job = Job(f"verify {label_spec} --grid 16", "cli", ("verify", label_spec, "--grid", "16"))
    return Outcome(job, exit_code=exit_code, stdout=json.dumps(record))


def test_oracle_accepts_a_consistent_verify_record():
    rec = _verify_record("hyperbolic-cylinder:n=3,k=2,r=1.0")
    finding = Oracle().check(_verify_outcome("hyperbolic-cylinder:n=3,k=2,r=1.0", rec, 0))
    assert not finding.failed and not finding.problems
    assert finding.residual == 1e-9


def test_oracle_rejects_a_flipped_verify_branch():
    rec = _verify_record("hyperbolic-cylinder:n=3,k=2,r=1.0", branch="strict")
    finding = Oracle().check(_verify_outcome("hyperbolic-cylinder:n=3,k=2,r=1.0", rec, 0))
    assert finding.failed and any("branch" in p for p in finding.problems)


def test_oracle_rejects_a_residual_above_tol_reported_as_pass():
    rec = _verify_record("hyperbolic-cylinder:n=3,k=2,r=1.0", simons=3e-5)
    rec["pass"] = True
    finding = Oracle().check(_verify_outcome("hyperbolic-cylinder:n=3,k=2,r=1.0", rec, 0))
    assert finding.failed and finding.problems


def test_false_failure_counts_as_failed_and_is_only_excused_when_known():
    spec = "unduloid:H=1,B=0.75"
    assert f"verify {spec} --grid 16" in KNOWN_FALSE_FAILURES
    rec = _verify_record("unduloid:H=1.0,B=0.75", simons=7e-5, branch="strict")
    known = Oracle().check(_verify_outcome(spec, rec, 1))
    assert known.failed and not known.problems
    rec = _verify_record("unduloid:H=1.0,B=0.5", simons=7e-5, branch="strict")
    unknown = Oracle().check(_verify_outcome("unduloid:H=1,B=0.5", rec, 1))
    assert unknown.failed and unknown.problems
    wrong_exit = Oracle().check(_verify_outcome("unduloid:H=1,B=0.5", rec, 0))
    assert any("exit code" in p for p in wrong_exit.problems)


@pytest.mark.parametrize("spec", ["euclidean-product:n=3,k=2,r=0.5",
                                  "sphere-product:n=3,r=0.9",
                                  "hyperbolic-cylinder:n=3,k=1,r=0.7",
                                  "unduloid:H=1.0,B=0.75"])
def test_report_row_oracle_on_real_records(spec):
    model = catalog.parse_model(spec)
    rec = cli._model_record(model, residual_axis=1, residual_cap=1, seed=0, h=None)
    closed = closed_form(rec["family"], parse_params(rec["params"]))
    prediction = catalog.closed_form_invariants(model).branch_prediction

    def problems(row):
        f = Finding()
        _check_report_row(row, closed, prediction, f, spec)
        return f.problems

    assert problems(rec) == []
    flipped = dict(rec, branch="umbilical")
    assert problems(flipped)
    assert problems(dict(rec, phi_norm=rec["phi_norm"] * (1 + 1e-6)))


def test_unduloid_oracle_checks_the_closed_forms():
    out = _cli_outcome("unduloid", "--H", "1.5", "--B", "0.9", "--samples", "32")
    assert not Oracle().check(out).problems
    rec = json.loads(out.stdout)
    rec["inf_K"] *= 1.001
    bad = Outcome(out.job, exit_code=0, stdout=json.dumps(rec))
    assert Oracle().check(bad).problems

    solved = _cli_outcome("unduloid", "--H", "0.7", "--solve-eps", "5", "--samples", "16")
    assert not Oracle().check(solved).problems


def test_oracle_requires_repeated_outputs_to_match():
    oracle = Oracle()
    out = _cli_outcome("okumura", "--n", "4", "--trials", "1000", "--seed", "3")
    assert not oracle.check(out).problems
    changed = Outcome(out.job, exit_code=0, stdout=out.stdout.replace('"seed": 3', '"seed": 3 '))
    assert oracle.check(changed).problems


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def _span(name, start, end, parent, tag=None):
    return [name, start, end, parent, 0, tag]


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("geometry.shape_data_at", 1.0, 4.0, 0),
        _span("numeric.jacobi_eigh", 2.0, 3.0, 1),
        _span("geometry.shape_data_at", 5.0, 7.0, 0),
        _span("numeric.adaptive_quadrature", 5.5, 6.5, 3),
        _span("numeric.adaptive_quadrature", 6.0, 7.0, 3),  # overlaps its sibling
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 0.5, 1.0, 1.0])


def test_inclusive_time_counts_a_recursive_name_once():
    tracer = tracing.Tracer()
    tracer.spans[:] = [
        _span("geometry.contractions", 0.0, 4.0, -1),
        _span("geometry.contractions", 1.0, 3.0, 0),
        _span("geometry.contractions", 5.0, 6.0, -1),
    ]
    m = tracing.layer_metrics(tracer)
    assert m["geometry.contractions.calls"] == 3
    assert m["geometry.contractions.s"] == pytest.approx(5.0)
    assert m["geometry.contractions.self_s"] == pytest.approx(5.0)


def _patched_objects():
    out = []
    for owner, attr, *_ in tracing.SPANNED + tracing.COUNTED:
        out.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr)))
    return out


def test_traced_run_restores_every_name_even_after_an_error():
    before = _patched_objects()
    tracer = tracing.Tracer()
    with tracer:
        assert catalog.build_chart is not before[1][2]
        cli.main(["model", "unduloid:H=1,B=0.5", "--grid", "1"])
        with pytest.raises(Exception):
            catalog.unduloid_profile(0.0, 0.5, 0.0)
    assert all((owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr))
               is original for owner, attr, original in before)
    assert Jet2.__radd__ is Jet2.__add__ and Jet2.__rmul__ is Jet2.__mul__
    assert tracer.errors["catalog"] == 1
    assert tracer.counts["numeric.jet_ops"] > 0


def _traced(*argvs):
    tracer = tracing.Tracer()
    with tracer, contextlib.redirect_stdout(io.StringIO()):
        for argv in argvs:
            cli.main(list(argv))
    return tracing.layer_metrics(tracer)


def test_counts_repeat_exactly_and_match_4n2_plus_1():
    jobs = [("verify", "unduloid:H=1,B=0.5", "--grid", "4"),
            ("model", "sphere-product:n=3,r=0.9", "--grid", "1"),
            ("model", "clifford:n=4,k=2", "--grid", "1"),
            ("model", "clifford:n=5,k=2", "--grid", "1"),
            ("unduloid", "--H", "1", "--B", "0.5", "--samples", "8")]
    first, second = _traced(*jobs), _traced(*jobs)
    for key in ("geometry.shape_data_at.calls", "geometry.simons_residual.calls",
                "numeric.adaptive_quadrature.calls", "geometry.shape_evals_per_residual",
                "numeric.jet_ops", "catalog.quad_per_chart_eval"):
        assert first[key] == second[key], key
    for n in (2, 3, 4, 5):
        assert first[f"geometry.shape_evals_per_residual.n{n}"] == 4 * n * n + 1


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with the code
# ---------------------------------------------------------------------------

def test_benchmark_json_names_what_the_code_measures():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]
    measured = set(_traced(("okumura", "--n", "3", "--trials", "10"))) | {"trace.overhead_frac"}
    assert {m["name"] for m in SPEC["per_layer"]} <= measured
    assert [m["name"] for m in SPEC["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]


def test_workload_inputs_depend_only_on_the_seed():
    for w in WORKLOADS.values():
        assert w.make_jobs(7) == w.make_jobs(7)
        labels = [j.label for j in w.make_jobs(7)]
        assert len(labels) == len(set(labels))
    specs = [j.argv[1] for j in WORKLOADS["verify-dense"].make_jobs(1)]
    assert specs != [j.argv[1] for j in WORKLOADS["verify-dense"].make_jobs(2)]
    b_values = [float(j.argv[4]) for j in WORKLOADS["unduloid-profile"].make_jobs(5)
                if "--B" in j.argv]
    assert all(0.0 < b <= 0.98 for b in b_values) and max(b_values) > 0.85
    assert not math.isclose(min(b_values), max(b_values))
