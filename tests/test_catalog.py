import math

import numpy as np
import pytest

import cmcgeo.catalog as cat
from cmcgeo.errors import InvalidParameters, OutOfRange, ParseError
from cmcgeo.geometry import sample_points, shape_data_at
from cmcgeo.spaceform import validate_point


def test_every_family_chart_lands_on_its_space_form():
    for model in cat.default_model_grid():
        chart = cat.build_chart(model)
        for u in sample_points(chart, 2, max_points=8):
            assert validate_point(chart.space, chart.position(u), 1e-10), model


def test_sphere_product_points_on_unit_sphere():
    chart = cat.build_chart(cat.SphereProduct(3, 1.0 / math.sqrt(3.0)))
    for u in sample_points(chart, 3, max_points=12):
        x = chart.position(u)
        assert abs(np.dot(x, x) - 1.0) <= 1e-10


def test_hyperbolic_cylinder_points_on_hyperboloid():
    chart = cat.build_chart(cat.HyperbolicCylinder(3, 2, 1.0))
    for u in sample_points(chart, 3, max_points=12):
        x = chart.position(u)
        q = -x[0] ** 2 + np.dot(x[1:], x[1:])
        assert abs(q + 1.0) <= 1e-10
        assert x[0] > 0


# ---------------------------------------------------------------------------
# unduloid profile
# ---------------------------------------------------------------------------

def test_unduloid_profile_is_unit_speed():
    for s in np.linspace(0.0, math.pi, 17):
        p = cat.unduloid_profile(1.0, 0.5, float(s))
        assert p.x_prime**2 + p.y_prime**2 == pytest.approx(1.0, abs=1e-10)


def test_unduloid_profile_start_and_quarter():
    p0 = cat.unduloid_profile(1.0, 0.5, 0.0)
    assert p0.x == 0.0
    assert p0.y == pytest.approx(math.sqrt(1.25) / 2.0, abs=1e-14)
    pq = cat.unduloid_profile(1.0, 0.5, math.pi / 4.0)
    assert pq.y == pytest.approx(0.75, abs=1e-14)


def test_unduloid_axial_coordinate_increases():
    xs = [cat.unduloid_profile(1.0, 0.9, float(s)).x
          for s in np.linspace(0.0, 2.0 * math.pi, 25)]
    assert all(b > a for a, b in zip(xs, xs[1:]))


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def _reference_x(h, b, s):
    """x(s) by composite 20-point Gauss-Legendre on panels of at most T/256,
    independent of the adaptive Simpson code under test.  The complex
    singularities of x' lie |log B| / (2|H|) off the real axis, so even at
    B=0.98 each panel converges far below 1e-13."""
    panels = max(1, math.ceil(abs(s) * abs(h) * 256 / math.pi))
    edges = np.linspace(0.0, s, panels + 1)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    sn = np.sin(2.0 * h * (mid[:, None] + half[:, None] * _GL_NODES))
    x_prime = (1.0 + b * sn) / np.sqrt(1.0 + b * b + 2.0 * b * sn)
    return float(np.sum(half[:, None] * _GL_WEIGHTS * x_prime))


@pytest.mark.parametrize("h", [1.0, -1.0, 1.3, -0.8, 2.0])
@pytest.mark.parametrize("b", [0.001, 0.5, 0.9, 0.98])
def test_unduloid_x_within_tolerance_of_reference_over_five_periods(h, b):
    period = math.pi / abs(h)
    chart = cat.build_chart(cat.Unduloid(h, b))
    for s in np.linspace(-2.0 * period, 3.0 * period, 41).tolist():
        ref = _reference_x(h, b, s)
        assert abs(chart.position(np.array([s, 0.4]))[0] - ref) <= 1e-10, s
        assert abs(cat.unduloid_profile(h, b, s).x - ref) <= 1e-10, s


@pytest.mark.parametrize("h, b, s", [(1.0, 0.98, 2.0 * math.pi),
                                     (-0.8, 0.98, 2.5 * math.pi),
                                     (-0.8, 0.98, -2.5 * math.pi)])
def test_unduloid_x_over_two_whole_periods(h, b, s):
    # One Simpson panel over two whole periods samples x' at the same phase
    # five times and misses these integrals by about 0.3.
    ref = _reference_x(h, b, s)
    assert abs(cat.unduloid_profile(h, b, s).x - ref) <= 1e-10
    assert abs(cat.unduloid_profile(h, b, np.array([s])).x[0] - ref) <= 1e-10


def test_unduloid_scalar_x_steps_by_one_period():
    for h, b in ((1.0, 0.5), (-1.3, 0.9), (2.0, 0.98)):
        period = math.pi / abs(h)
        x_period = cat.unduloid_profile(h, b, period).x
        for s in (-2.2, -0.3, 0.0, 0.7, 1.9, 4.4):
            step = cat.unduloid_profile(h, b, s + period).x - cat.unduloid_profile(h, b, s).x
            assert abs(step - x_period) <= 1e-12, (h, b, s)


def test_unduloid_knot_tables_grow_with_periods_not_abscissae():
    tables = {}
    period = math.pi
    for s in np.linspace(-3.5 * period, 3.5 * period, 301).tolist():
        cat._unduloid_x(1.0, 0.9, s, 1e-10, tables)
    assert sorted(tables) == [1, 2, 4]
    assert all(len(knot_x) == cat._KNOTS + 1 for knot_x in tables.values())


@pytest.mark.parametrize("h", [1.0, -1.0])
@pytest.mark.parametrize("b", [0.001, 0.5, 0.9, 0.98])
def test_unduloid_table_x_within_tolerance_of_reference(h, b):
    s = np.linspace(0.0, math.pi / abs(h), 64, endpoint=False)
    x = cat.unduloid_profile(h, b, s).x
    assert x[0] == 0.0
    assert np.all(np.diff(x) > 0.0)
    for si, xi in zip(s.tolist(), x.tolist()):
        assert abs(xi - _reference_x(h, b, si)) <= 1e-10


def test_unduloid_table_unsorted_duplicate_negative_abscissae():
    s = np.array([2.5, -0.7, 0.3, 2.5, 0.0, -3.1, 0.3, 1.2])
    x = cat.unduloid_profile(1.0, 0.9, s).x
    assert x.shape == s.shape
    for si, xi in zip(s.tolist(), x.tolist()):
        assert abs(xi - cat.unduloid_profile(1.0, 0.9, si).x) <= 2e-10
    assert x[0] == x[3] and x[2] == x[6] and x[4] == 0.0


def test_unduloid_table_x_is_periodic_in_steps():
    h, b = -1.0, 0.75
    period = math.pi / abs(h)
    s = np.linspace(0.0, period, 16, endpoint=False)
    x = cat.unduloid_profile(h, b, np.concatenate([s, s + period, s + 2.0 * period, [period]])).x
    x_period = x[-1]
    for k in (1, 2):
        shifted = x[16 * k:16 * (k + 1)] - x[16 * (k - 1):16 * k]
        assert np.max(np.abs(shifted - x_period)) <= 1e-10


def test_unduloid_table_closed_forms_match_scalar():
    s = np.linspace(-1.0, 4.0, 41)
    for h in (1.3, -0.8):
        table = cat.unduloid_profile(h, 0.6, s)
        for i, si in enumerate(s.tolist()):
            p = cat.unduloid_profile(h, 0.6, si)
            for field in ("x_prime", "y", "y_prime", "y_second"):
                assert getattr(table, field)[i] == pytest.approx(
                    getattr(p, field), rel=1e-14, abs=1e-300), (field, si)


def test_unduloid_table_rejects_non_finite_abscissae():
    with pytest.raises(InvalidParameters):
        cat.unduloid_profile(1.0, 0.5, np.array([0.0, math.nan]))
    for s in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidParameters):
            cat.unduloid_profile(1.0, 0.5, s)


def test_unduloid_gauss_curvature_values():
    assert cat.unduloid_gauss_curvature(1.0, 0.5, 3.0 * math.pi / 4.0) == pytest.approx(-8.0, abs=1e-12)
    assert cat.unduloid_inf_gauss(1.0, 0.5) == -8.0
    # nearly-cylindrical limit: curvature uniformly tiny
    for s in np.linspace(0.0, math.pi, 50):
        assert abs(cat.unduloid_gauss_curvature(1.0, 1e-6, float(s))) <= 5e-6
    # Gauss bound K <= H^2 for a flat ambient
    for s in np.linspace(0.0, math.pi, 100):
        assert cat.unduloid_gauss_curvature(1.0, 0.5, float(s)) <= 1.0


def test_unduloid_principal_curvatures_mean():
    for s in (0.0, 0.4, 1.3, 2.5):
        k_mer, k_par = cat.unduloid_principal_curvatures(1.0, 0.5, s)
        assert 0.5 * (k_mer + k_par) == pytest.approx(1.0, abs=1e-10)
        # |Phi| from the two curvatures agrees with the Gauss-curvature route
        phi = math.sqrt(2.0) * abs(k_par - 1.0)
        k = cat.unduloid_gauss_curvature(1.0, 0.5, s)
        assert phi == pytest.approx(math.sqrt(2.0 * (1.0 - k)), abs=1e-10)


def test_unduloid_sup_phi_closed_form():
    assert cat.unduloid_sup_phi(1.0, 0.5) == pytest.approx(3.0 * math.sqrt(2.0), abs=1e-14)
    assert cat.unduloid_sup_phi(1.0, 0.5) ** 2 == pytest.approx(
        2.0 * (1.0 - cat.unduloid_inf_gauss(1.0, 0.5)), abs=1e-12)


def test_solve_B_for_inf_gauss():
    assert cat.solve_B_for_inf_gauss(1.0, 8.0) == pytest.approx(0.5, abs=1e-14)
    for h, eps in ((2.0, 8.0), (0.7, 0.3), (1.0, 100.0)):
        b = cat.solve_B_for_inf_gauss(h, eps)
        assert 0.0 < b < 1.0
        assert cat.unduloid_inf_gauss(h, b) == pytest.approx(-eps, abs=1e-10 * max(1.0, eps))
    # eps -> 0 forces B -> 0
    assert cat.solve_B_for_inf_gauss(1.0, 1e-8) < 1e-8
    bs = [cat.solve_B_for_inf_gauss(1.0, e) for e in (0.1, 1.0, 10.0, 100.0)]
    assert all(b2 > b1 for b1, b2 in zip(bs, bs[1:]))


def test_unduloid_negative_H_matches_numerics_in_absolute_value():
    model = cat.Unduloid(-1.0, 0.5)
    sd = shape_data_at(cat.build_chart(model), [0.7, 0.4])
    assert sd.mean_curvature == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# closed-form invariants
# ---------------------------------------------------------------------------

def test_euclidean_product_invariants():
    inv = cat.closed_form_invariants(cat.EuclideanProduct(3, 2, 1.0))
    assert inv.abs_H == pytest.approx(2.0 / 3.0)
    assert inv.phi_norm == pytest.approx(math.sqrt(2.0 / 3.0))
    assert inv.alpha_H == pytest.approx(math.sqrt(2.0 / 3.0))
    assert inv.branch_prediction == "equality"
    inv1 = cat.closed_form_invariants(cat.EuclideanProduct(3, 1, 1.0))
    assert inv1.abs_H == pytest.approx(1.0 / 3.0)
    assert inv1.phi_norm == pytest.approx(math.sqrt(6.0) / 3.0)
    assert inv1.alpha_H == pytest.approx(1.0 / math.sqrt(6.0))
    assert inv1.phi_norm > inv1.alpha_H
    assert inv1.branch_prediction == "strict"
    # |Phi| = sqrt(n(n-1)) |H| for the k=1 flat products
    assert inv1.phi_norm == pytest.approx(math.sqrt(6.0) * inv1.abs_H, abs=1e-14)


def test_sphere_product_invariants():
    inv = cat.closed_form_invariants(cat.SphereProduct(3, 1.0 / math.sqrt(3.0)))
    assert inv.H_signed == pytest.approx(-1.0 / math.sqrt(2.0))
    assert inv.phi_norm == pytest.approx(math.sqrt(3.0))
    assert inv.alpha_H == pytest.approx(math.sqrt(3.0))
    assert inv.branch_prediction == "equality"
    strict = cat.closed_form_invariants(cat.SphereProduct(3, 0.9))
    assert strict.branch_prediction == "strict"
    assert strict.phi_norm > strict.alpha_H + 1e-3


def test_clifford_invariants():
    inv = cat.closed_form_invariants(cat.CliffordTorus(3, 1))
    assert inv.H_signed == 0.0
    assert inv.phi_norm == pytest.approx(math.sqrt(3.0))
    assert inv.alpha_H == math.sqrt(3.0)
    assert inv.branch_prediction == "equality"


def test_hyperbolic_cylinder_invariants():
    inv = cat.closed_form_invariants(cat.HyperbolicCylinder(3, 2, 1.0))
    assert inv.abs_H == pytest.approx(5.0 / (3.0 * math.sqrt(2.0)))
    assert inv.phi_norm == pytest.approx(1.0 / math.sqrt(3.0))
    assert inv.alpha_H == pytest.approx(1.0 / math.sqrt(3.0))
    assert inv.branch_prediction == "equality"
    # equality-side display in terms of |H| for the large sphere factor
    n, h = 3, inv.abs_H
    disp = math.sqrt(n) / (2 * math.sqrt(n - 1)) * (
        math.sqrt(n * n * h * h - 4 * (n - 1)) - (n - 2) * h)
    assert inv.phi_norm == pytest.approx(disp, abs=1e-12)

    k1 = cat.closed_form_invariants(cat.HyperbolicCylinder(3, 1, 0.5))
    assert k1.branch_prediction == "strict"
    h1 = k1.abs_H
    disp1 = math.sqrt(3.0) / (2 * math.sqrt(2.0)) * (
        (3 - 2) * h1 + math.sqrt(9 * h1 * h1 - 8))
    assert k1.phi_norm == pytest.approx(disp1, abs=1e-12)
    assert k1.phi_norm > k1.alpha_H


def test_hyperbolic_k1_ellipticity_window():
    # H^2 > 1 exactly when r < 1/sqrt(n(n-2))
    n = 3
    r_crit = 1.0 / math.sqrt(n * (n - 2))
    assert cat.HyperbolicCylinder(n, 1, 0.9 * r_crit).mean_curvature_exceeds_one
    assert not cat.HyperbolicCylinder(n, 1, 1.1 * r_crit).mean_curvature_exceeds_one
    sub = cat.closed_form_invariants(cat.HyperbolicCylinder(n, 1, 1.1 * r_crit))
    assert sub.alpha_H is None and sub.branch_prediction is None


def test_umbilical_sphere_invariants():
    inv = cat.closed_form_invariants(cat.UmbilicalSphere(3, 0, 2.0))
    assert inv.abs_H == 0.5 and inv.phi_norm == 0.0
    assert inv.branch_prediction == "umbilical"
    hyp = cat.closed_form_invariants(cat.UmbilicalSphere(3, -1, 1.2))
    assert hyp.abs_H**2 - 1.0 == pytest.approx(1.0 / 1.44, abs=1e-12)


def test_numeric_matches_closed_forms_spot_checks():
    for model in (cat.EuclideanProduct(4, 2, 1.0), cat.SphereProduct(3, 0.55),
                  cat.CliffordTorus(4, 1), cat.HyperbolicCylinder(4, 3, 1.0),
                  cat.UmbilicalSphere(3, 1, 0.6)):
        inv = cat.closed_form_invariants(model)
        chart = cat.build_chart(model)
        sd = shape_data_at(chart, next(sample_points(chart, 1)))
        assert sd.mean_curvature == pytest.approx(inv.abs_H, abs=1e-9)
        assert math.sqrt(max(sd.traceless_norm2, 0.0)) == pytest.approx(
            inv.phi_norm, abs=1e-9)
        got = np.sort(sd.principal_curvatures)
        mismatch = min(np.max(np.abs(got - inv.kappas)),
                       np.max(np.abs(got + inv.kappas[::-1])))
        assert mismatch <= 1e-9


# ---------------------------------------------------------------------------
# closed-form inversions
# ---------------------------------------------------------------------------

def test_r_from_H_sphere_product():
    r = cat.r_from_H(1, 3, 1.0 / math.sqrt(2.0), "minus")
    assert r * r == pytest.approx(1.0 / 3.0, abs=1e-12)
    r0 = cat.r_from_H(1, 3, 0.0, "minus")
    assert r0 * r0 == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert cat.r_from_H(1, 3, 0.0, "plus") == pytest.approx(r0, abs=1e-14)
    # forward consistency on both branches
    for sign, r_true in (("minus", 0.5), ("plus", 0.95)):
        h = abs(cat.sphere_product_mean_curvature(3, r_true))
        assert cat.r_from_H(1, 3, h, sign) == pytest.approx(r_true, abs=1e-10)


def test_r_from_H_hyperbolic():
    h = 5.0 / (3.0 * math.sqrt(2.0))
    assert cat.r_from_H(-1, 3, h, k=2) == pytest.approx(1.0, abs=1e-12)
    for k, r_true in ((1, 0.4), (2, 0.8)):
        h = cat.hyperbolic_cylinder_mean_curvature(3, k, r_true)
        assert cat.r_from_H(-1, 3, h, k=k) == pytest.approx(r_true, abs=1e-10)
    with pytest.raises(OutOfRange):
        cat.r_from_H(-1, 3, 0.9, k=2)


# ---------------------------------------------------------------------------
# parsing and parameter validation
# ---------------------------------------------------------------------------

def test_parse_round_trip():
    for model in cat.default_model_grid():
        assert cat.parse_model(cat.model_to_text(model)) == model


def test_parse_errors_name_token():
    with pytest.raises(ParseError, match="nonsense"):
        cat.parse_model("nonsense:a=1")
    with pytest.raises(ParseError, match="radius"):
        cat.parse_model("unduloid:H=1,radius=2")
    with pytest.raises(ParseError, match="missing"):
        cat.parse_model("unduloid:H=1")
    with pytest.raises(ParseError, match="oops"):
        cat.parse_model("unduloid:H=oops,B=0.5")
    with pytest.raises(ParseError):
        cat.parse_model("just-a-name")
    with pytest.raises(ParseError, match="duplicate"):
        cat.parse_model("unduloid:H=1,H=2,B=0.5")


def test_invalid_parameters():
    with pytest.raises(InvalidParameters, match=r"B must lie in \(0,1\)"):
        cat.Unduloid(1.0, 2.0)
    with pytest.raises(InvalidParameters):
        cat.Unduloid(0.0, 0.5)
    with pytest.raises(InvalidParameters):
        cat.EuclideanProduct(3, 3, 1.0)
    with pytest.raises(InvalidParameters):
        cat.EuclideanProduct(3, 1, -1.0)
    with pytest.raises(InvalidParameters):
        cat.SphereProduct(3, 1.0)
    with pytest.raises(InvalidParameters):
        cat.HyperbolicCylinder(4, 2, 1.0)  # k must be 1 or n-1
    with pytest.raises(InvalidParameters):
        cat.UmbilicalSphere(3, 1, 1.5)
    with pytest.raises(InvalidParameters):
        cat.CliffordTorus(3, 0)


def test_default_grid_covers_all_families():
    grid = cat.default_model_grid()
    families = {}
    for m in grid:
        families.setdefault(m.family, []).append(m)
    assert set(families) == {"euclidean-product", "sphere-product", "clifford",
                             "hyperbolic-cylinder", "unduloid", "umbilical-sphere"}
    assert all(len(v) >= 5 for v in families.values())
