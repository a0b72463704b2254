import math

import numpy as np
import pytest

from cmcgeo.catalog import (
    CliffordTorus,
    EuclideanProduct,
    HyperbolicCylinder,
    UmbilicalSphere,
    Unduloid,
    build_chart,
    unduloid_gauss_curvature,
    unduloid_profile,
)
from cmcgeo.errors import (
    DegenerateMetric,
    DomainError,
    DomainExceeded,
    NonConstantMeanCurvature,
    NonOrthogonalChart,
    NotSurface,
)
from cmcgeo.geometry import (
    ImmersionChart,
    Interval,
    curvature_tensor,
    grad_norm,
    intrinsic_gauss_n2,
    laplace_beltrami,
    nabla_phi_norm2,
    ricci,
    ricci_from_curvature,
    sample_points,
    scalar_field,
    scalar_from_curvature,
    sectional_curvature,
    shape_data_at,
    simons_residual,
)
from cmcgeo.numeric import Jet2
from cmcgeo.spaceform import AmbientSpace

PHI2 = scalar_field("phi_norm2")


def graph_sphere_chart(radius=2.0):
    """Graph chart of the upper cap of a round sphere, z = sqrt(r^2-x^2-y^2)."""
    def ev(u):
        x = Jet2.variable(u[0], 0, 2)
        y = Jet2.variable(u[1], 1, 2)
        z = (Jet2.constant(radius**2, 2) - x * x - y * y).sqrt()
        return [x, y, z]

    dom = (Interval(-1.0, 1.0), Interval(-1.0, 1.0))
    return ImmersionChart(AmbientSpace(0, 2), dom, ev, name="graph-sphere")


def test_round_sphere_graph_chart():
    sd = shape_data_at(graph_sphere_chart(2.0), [0.3, -0.4])
    assert sd.mean_curvature == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(sd.principal_curvatures, [0.5, 0.5], atol=1e-12)
    assert sd.traceless_norm2 <= 1e-12
    assert sd.scalar_curvature == pytest.approx(0.5, abs=1e-12)


def test_flat_times_sphere_point():
    sd = shape_data_at(build_chart(EuclideanProduct(3, 2, 1.0)), [0.3, 1.1, 0.7])
    assert sd.mean_curvature == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert np.allclose(sd.principal_curvatures, [0.0, 1.0, 1.0], atol=1e-12)
    assert sd.traceless_norm2 == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert sd.scalar_curvature == pytest.approx(2.0, abs=1e-11)


def test_hyperbolic_cylinder_point():
    sd = shape_data_at(build_chart(HyperbolicCylinder(3, 2, 1.0)), [0.4, 1.2, 0.9])
    assert sd.mean_curvature == pytest.approx(5.0 / (3.0 * math.sqrt(2.0)), abs=1e-12)
    expected = np.array([1.0 / math.sqrt(2.0), math.sqrt(2.0), math.sqrt(2.0)])
    assert np.allclose(sd.principal_curvatures, expected, atol=1e-11)
    assert sd.traceless_norm2 == pytest.approx(1.0 / 3.0, abs=1e-11)
    assert sd.scalar_curvature == pytest.approx(2.0, abs=1e-10)


def test_normal_is_form_orthogonal_and_unit():
    from cmcgeo.spaceform import bilinear_form
    chart = build_chart(HyperbolicCylinder(3, 2, 1.0))
    u = np.array([0.4, 1.2, 0.9])
    sd = shape_data_at(chart, u)
    space = chart.space
    for i in range(3):
        assert abs(bilinear_form(space, sd.normal, sd.first_partials[:, i])) <= 1e-12
    pos = chart.position(u)
    assert abs(bilinear_form(space, sd.normal, pos)) <= 1e-12
    assert bilinear_form(space, sd.normal, sd.normal) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# curvature tensor
# ---------------------------------------------------------------------------

def test_curvature_antisymmetry():
    sd = shape_data_at(build_chart(HyperbolicCylinder(3, 2, 1.0)), [0.4, 1.2, 0.9])
    x = np.array([0.3, -1.2, 0.8])
    z = np.array([1.0, 0.4, -0.2])
    assert np.max(np.abs(curvature_tensor(sd, x, x, z))) <= 1e-14
    r_xy = curvature_tensor(sd, x, z, x)
    r_yx = curvature_tensor(sd, z, x, x)
    assert np.max(np.abs(r_xy + r_yx)) <= 1e-12


def test_unduloid_sectional_matches_profile_curvature():
    chart = build_chart(Unduloid(1.0, 0.5))
    for s in (0.2, 0.9, 2.0, 2.9):
        sd = shape_data_at(chart, [s, 0.8])
        k = sectional_curvature(sd, [1.0, 0.0], [0.0, 1.0])
        assert k == pytest.approx(unduloid_gauss_curvature(1.0, 0.5, s), abs=1e-9)


def test_ricci_contraction_matches_closed_form():
    rng = np.random.default_rng(4)
    for model in (HyperbolicCylinder(3, 2, 1.0), EuclideanProduct(3, 1, 1.0),
                  CliffordTorus(4, 2)):
        chart = build_chart(model)
        u = next(sample_points(chart, 1))
        sd = shape_data_at(chart, u)
        for _ in range(5):
            x = rng.uniform(-1, 1, chart.dim)
            y = rng.uniform(-1, 1, chart.dim)
            assert ricci_from_curvature(sd, x, y) == pytest.approx(
                ricci(sd, x, y), abs=1e-10)


def test_trace_of_ricci_is_scalar_curvature():
    chart = build_chart(HyperbolicCylinder(3, 2, 1.0))
    sd = shape_data_at(chart, [0.4, 1.2, 0.9])
    frame = sd.metric_inv_sqrt
    total = sum(ricci(sd, frame[:, j], frame[:, j]) for j in range(3))
    assert total == pytest.approx(sd.scalar_curvature, abs=1e-9)


def test_scalar_double_contraction_matches_gauss_equation():
    for model in (EuclideanProduct(3, 2, 1.0), HyperbolicCylinder(3, 1, 0.5),
                  UmbilicalSphere(3, 1, 0.6), Unduloid(1.0, 0.5)):
        chart = build_chart(model)
        u = next(sample_points(chart, 1))
        sd = shape_data_at(chart, u)
        assert scalar_from_curvature(sd) == pytest.approx(sd.scalar_curvature, abs=1e-8)


def test_orientation_flip_invariance():
    chart = build_chart(HyperbolicCylinder(3, 2, 1.0))
    u = np.array([0.4, 1.2, 0.9])
    plus = shape_data_at(chart, u, mean_convex=False, flip=False)
    minus = shape_data_at(chart, u, mean_convex=False, flip=True)
    assert minus.mean_curvature == pytest.approx(-plus.mean_curvature, abs=1e-12)
    assert np.allclose(np.sort(-minus.principal_curvatures),
                       np.sort(plus.principal_curvatures), atol=1e-10)
    assert minus.traceless_norm2 == pytest.approx(plus.traceless_norm2, abs=1e-10)
    assert minus.scalar_curvature == pytest.approx(plus.scalar_curvature, abs=1e-10)
    x = np.array([0.2, -0.7, 1.1])
    y = np.array([0.5, 0.3, -0.4])
    assert ricci(sd=minus, x=x, y=y) == pytest.approx(ricci(plus, x, y), abs=1e-10)


# ---------------------------------------------------------------------------
# finite-difference operators
# ---------------------------------------------------------------------------

def test_laplacian_of_constant_field():
    const = scalar_field("mean_curvature")  # constant on CMC charts
    chart = build_chart(EuclideanProduct(3, 2, 1.0))
    assert abs(laplace_beltrami(chart, const, [0.3, 1.1, 0.7])) <= 1e-10


def test_laplacian_phi2_on_parallel_models():
    for model in (EuclideanProduct(3, 2, 1.0), HyperbolicCylinder(3, 2, 1.0),
                  CliffordTorus(3, 1)):
        chart = build_chart(model)
        u = next(sample_points(chart, 1))
        assert abs(laplace_beltrami(chart, PHI2, u)) <= 1e-5


def test_laplacian_phi2_at_unduloid_max():
    chart = build_chart(Unduloid(1.0, 0.5))
    u = [3.0 * math.pi / 4.0, 0.3]
    lap_h = laplace_beltrami(chart, PHI2, u, 1e-4)
    lap_h2 = laplace_beltrami(chart, PHI2, u, 5e-5)
    assert lap_h <= 0.0
    assert abs(lap_h - lap_h2) <= 1e-3 * max(1.0, abs(lap_h))


def test_grad_norm_cases():
    chart = build_chart(Unduloid(1.0, 0.5))
    const = scalar_field("mean_curvature")
    assert grad_norm(chart, const, [0.5, 0.5]) <= 1e-10
    assert grad_norm(chart, PHI2, [3.0 * math.pi / 4.0, 0.3]) <= 1e-6
    assert grad_norm(chart, PHI2, [math.pi / 8.0, 0.3]) > 1e-3


def test_nabla_phi_norm2_cases():
    for model in (EuclideanProduct(3, 2, 1.0), HyperbolicCylinder(3, 1, 0.5),
                  CliffordTorus(3, 2)):
        chart = build_chart(model)
        u = next(sample_points(chart, 1))
        assert nabla_phi_norm2(chart, u) <= 1e-6
    sphere = graph_sphere_chart(2.0)
    assert nabla_phi_norm2(sphere, [0.2, 0.1]) <= 1e-8
    undu = build_chart(Unduloid(1.0, 0.5))
    assert nabla_phi_norm2(undu, [math.pi / 8.0, 0.3]) > 1e-4


def test_simons_residual_hyperbolic_cylinder():
    chart = build_chart(HyperbolicCylinder(3, 2, 1.0))
    assert abs(simons_residual(chart, [0.4, 1.2, 0.9])) <= 1e-6


def test_simons_residual_umbilical_sphere():
    assert abs(simons_residual(graph_sphere_chart(2.0), [0.2, -0.3])) <= 1e-8


def test_simons_residual_unduloid_sixteen_points():
    chart = build_chart(Unduloid(1.0, 0.5))
    for s in np.linspace(0.0, math.pi, 16, endpoint=False):
        assert abs(simons_residual(chart, [s, 0.5])) <= 1e-5


def test_simons_rejects_nonconstant_mean_curvature():
    def ev(u):
        x = Jet2.variable(u[0], 0, 2)
        y = Jet2.variable(u[1], 1, 2)
        z = 0.3 * (x * x + y * y)
        return [x, y, z]

    paraboloid = ImmersionChart(AmbientSpace(0, 2),
                                (Interval(-1, 1), Interval(-1, 1)), ev)
    with pytest.raises(NonConstantMeanCurvature):
        simons_residual(paraboloid, [0.3, 0.2])


# ---------------------------------------------------------------------------
# intrinsic Gauss curvature
# ---------------------------------------------------------------------------

def test_intrinsic_gauss_flat_cylinder():
    chart = build_chart(EuclideanProduct(2, 1, 0.7))
    assert abs(intrinsic_gauss_n2(chart, [0.3, 1.1])) <= 1e-6


def test_intrinsic_gauss_unduloid_profile():
    chart = build_chart(Unduloid(1.0, 0.5))
    for s in (0.3, 1.2, 2.4):
        p = unduloid_profile(1.0, 0.5, s)
        assert intrinsic_gauss_n2(chart, [s, 0.5]) == pytest.approx(
            -p.y_second / p.y, abs=1e-6)


def test_intrinsic_gauss_round_sphere():
    chart = build_chart(UmbilicalSphere(2, 0, 2.0))
    assert intrinsic_gauss_n2(chart, [1.2, 0.7]) == pytest.approx(0.25, abs=1e-6)


def test_intrinsic_gauss_consistency_with_gauss_equation():
    # K = (c + H^2) - |Phi|^2 / 2 for surfaces
    for model in (Unduloid(1.0, 0.5), EuclideanProduct(2, 1, 0.7)):
        chart = build_chart(model)
        for u in sample_points(chart, 3):
            sd = shape_data_at(chart, u)
            k = intrinsic_gauss_n2(chart, u)
            expected = (chart.space.c + sd.mean_curvature**2) - sd.traceless_norm2 / 2.0
            assert k == pytest.approx(expected, abs=1e-6)
            assert k <= sd.mean_curvature**2 + chart.space.c + 1e-9


def test_intrinsic_gauss_requires_surface():
    with pytest.raises(NotSurface):
        intrinsic_gauss_n2(build_chart(EuclideanProduct(3, 2, 1.0)), [0.3, 1.1, 0.7])


def test_intrinsic_gauss_requires_orthogonal_chart():
    def ev(u):
        x = Jet2.variable(u[0], 0, 2)
        y = Jet2.variable(u[1], 1, 2)
        return [x + 0.5 * y, y, Jet2.constant(0.0, 2)]

    sheared = ImmersionChart(AmbientSpace(0, 2),
                             (Interval(-1, 1), Interval(-1, 1)), ev)
    with pytest.raises(NonOrthogonalChart):
        intrinsic_gauss_n2(sheared, [0.1, 0.2])


# ---------------------------------------------------------------------------
# error paths
# ---------------------------------------------------------------------------

def test_degenerate_metric_raises():
    def ev(u):
        x = Jet2.variable(u[0], 0, 2)
        return [x, x, Jet2.constant(0.0, 2)]

    chart = ImmersionChart(AmbientSpace(0, 2),
                           (Interval(-1, 1), Interval(-1, 1)), ev)
    with pytest.raises(DegenerateMetric):
        shape_data_at(chart, [0.1, 0.2])


def test_domain_exceeded_near_boundary():
    chart = graph_sphere_chart(2.0)
    with pytest.raises(DomainExceeded):
        laplace_beltrami(chart, PHI2, [1.0 - 1e-5, 0.0])


def test_off_surface_point_rejected():
    def ev(u):
        x = Jet2.variable(u[0], 0, 2)
        y = Jet2.variable(u[1], 1, 2)
        return [Jet2.constant(1.1, 2), x, y, Jet2.constant(0.0, 2)]

    bogus = ImmersionChart(AmbientSpace(1, 2),
                           (Interval(-0.4, 0.4), Interval(-0.4, 0.4)), ev)
    with pytest.raises(DomainError):
        shape_data_at(bogus, [0.1, 0.1])


def test_scalar_field_builtins():
    chart = build_chart(EuclideanProduct(3, 2, 1.0))
    sd = shape_data_at(chart, [0.3, 1.1, 0.7])
    assert scalar_field("phi_norm2")(sd) == sd.traceless_norm2
    assert scalar_field("mean_curvature")(sd) == sd.mean_curvature
    assert scalar_field("scalar_curvature")(sd) == sd.scalar_curvature
    with pytest.raises(ValueError):
        scalar_field("frobnication")
