import dataclasses
import itertools
import math
import typing

import numpy as np
import pytest

from cmcgeo import geometry
from cmcgeo.catalog import (
    CliffordTorus,
    EuclideanProduct,
    HyperbolicCylinder,
    ModelSpec,
    SphereProduct,
    UmbilicalSphere,
    Unduloid,
    build_chart,
    default_model_grid,
    unduloid_profile,
)
from cmcgeo.errors import (
    CmcError,
    DegenerateMetric,
    DomainError,
    DomainExceeded,
    NonConstantMeanCurvature,
    NonOrthogonalChart,
    NotSurface,
    SizeMismatch,
)
from cmcgeo.geometry import (
    ImmersionChart,
    Interval,
    ShapeData,
    christoffel_symbols,
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
    shape_data_batch,
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


def test_principal_curvatures_are_deferred_and_cached():
    for model, u in ((Unduloid(1.0, 0.5), [0.7, 0.3]),
                     (HyperbolicCylinder(3, 2, 1.0), [0.4, 1.2, 0.9])):
        sd = shape_data_at(build_chart(model), u)
        assert "principal_curvatures" not in vars(sd)
        r = sd.metric_inv_sqrt
        kappas = sd.principal_curvatures
        assert np.array_equal(kappas, np.linalg.eigh(r @ sd.second_fundamental @ r)[0])
        assert sd.principal_curvatures is kappas


def test_normal_is_form_orthogonal_and_unit():
    from cmcgeo.spaceform import bilinear_form
    chart = build_chart(HyperbolicCylinder(3, 2, 1.0))
    u = np.array([0.4, 1.2, 0.9])
    sd = shape_data_at(chart, u)
    space = chart.space
    tangents = np.array([j.grad for j in chart.jets(u)])
    for i in range(3):
        assert abs(bilinear_form(space, sd.normal, tangents[:, i])) <= 1e-12
    pos = chart.position(u)
    assert np.array_equal(sd.position, pos)
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
        assert k == pytest.approx(unduloid_profile(1.0, 0.5, s).K, abs=1e-9)


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


def _swapped_chart(chart, i, j):
    """The chart with coordinates i and j exchanged, which reverses the
    orientation of its determinant-rule normal."""
    perm = list(range(chart.dim))
    perm[i], perm[j] = j, i

    def ev(v):
        return [Jet2(jet.value, jet.grad[perm], jet.hess[perm][:, perm])
                for jet in chart.eval_jets(v[perm])]

    domain = tuple(chart.domain[k] for k in perm)
    return dataclasses.replace(chart, domain=domain, eval_jets=ev), perm


def test_orientation_flip_invariance():
    chart = build_chart(HyperbolicCylinder(3, 2, 1.0))
    u = np.array([0.4, 1.2, 0.9])
    swapped, perm = _swapped_chart(chart, 1, 2)
    plus = shape_data_at(chart, u)
    minus = shape_data_at(swapped, u[perm])
    assert np.array_equal(minus.position, plus.position)
    assert np.allclose(minus.normal, plus.normal, atol=1e-12)  # turned back to H >= 0
    assert minus.mean_curvature == pytest.approx(plus.mean_curvature, abs=1e-12)
    assert np.allclose(np.sort(minus.principal_curvatures),
                       np.sort(plus.principal_curvatures), atol=1e-10)
    assert minus.traceless_norm2 == pytest.approx(plus.traceless_norm2, abs=1e-10)
    assert minus.scalar_curvature == pytest.approx(plus.scalar_curvature, abs=1e-10)
    x = np.array([0.2, -0.7, 1.1])
    y = np.array([0.5, 0.3, -0.4])
    assert ricci(minus, x[perm], y[perm]) == pytest.approx(ricci(plus, x, y), abs=1e-10)


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


_FD_FUNCTIONS = {
    "laplace_beltrami": lambda chart, u, h: laplace_beltrami(chart, PHI2, u, h),
    "grad_norm": lambda chart, u, h: grad_norm(chart, PHI2, u, h),
    "christoffel_symbols": christoffel_symbols,
    "nabla_phi_norm2": nabla_phi_norm2,
    "simons_residual": simons_residual,
    "intrinsic_gauss_n2": intrinsic_gauss_n2,
}


def stencil_points(u, h, mixed):
    """The centre, u +- h e_i and, when mixed, u +- h e_i +- h e_j (i < j)."""
    e = h * np.eye(len(u))
    moves = [np.zeros(len(u))] + [s * e[i] for i in range(len(u)) for s in (1, -1)]
    if mixed:
        moves += [s * e[i] + t * e[j] for i, j in itertools.combinations(range(len(u)), 2)
                  for s in (1, -1) for t in (1, -1)]
    return {tuple((np.asarray(u) + m).tolist()) for m in moves}


@pytest.mark.parametrize("h", [0.0, -1e-4, math.nan, math.inf, 1e-300])
@pytest.mark.parametrize("name", list(_FD_FUNCTIONS))
def test_fd_functions_reject_bad_steps(counting_chart, name, h):
    # 1e-300 is positive, but h*h underflows to zero.
    chart, points = counting_chart(build_chart(EuclideanProduct(2, 1, 0.7)))
    with pytest.raises(ValueError):
        _FD_FUNCTIONS[name](chart, [0.3, 1.1], h)
    assert points == []


# Distance from the edge of the bounded axis, in steps: inside the ball each
# function checks (h; 2h for the Laplacian; 4h for the residual, whose
# step-2h stencil needs it) but outside any smaller one.
@pytest.mark.parametrize("name, steps", [
    ("laplace_beltrami", 1.5), ("grad_norm", 0.5), ("christoffel_symbols", 0.5),
    ("nabla_phi_norm2", 0.5), ("simons_residual", 3.0), ("intrinsic_gauss_n2", 0.5)])
def test_fd_functions_check_the_domain_before_evaluating(counting_chart, name, steps):
    h = 1e-4
    chart, points = counting_chart(build_chart(EuclideanProduct(2, 1, 0.7)))
    with pytest.raises(DomainExceeded):
        _FD_FUNCTIONS[name](chart, [2.0 - steps * h, 1.1], h)
    assert points == []


# Per function: its stencils as (step in units of h, mixed), and the number
# of points they hold together on an n-dimensional chart.
_STENCILS = {
    "laplace_beltrami": ([(1.0, True)], lambda n: 2 * n * n + 1),
    "grad_norm": ([(1.0, False)], lambda n: 2 * n + 1),
    "christoffel_symbols": ([(1.0, False)], lambda n: 2 * n + 1),
    "nabla_phi_norm2": ([(1.0, False)], lambda n: 2 * n + 1),
    "simons_residual": ([(1.0, True), (2.0, True)], lambda n: 4 * n * n + 1),
}


@pytest.mark.parametrize("model, u", [(Unduloid(1.0, 0.5), [0.9, 0.4]),
                                      (EuclideanProduct(3, 2, 1.0), [0.3, 1.1, 0.7])],
                         ids=["n2", "n3"])
@pytest.mark.parametrize("name", list(_STENCILS))
def test_fd_functions_evaluate_each_stencil_point_once(counting_chart, model, u, name):
    h = 1e-4
    chart, points = counting_chart(build_chart(model))
    _FD_FUNCTIONS[name](chart, u, h)
    stencils, count = _STENCILS[name]
    expected = set().union(*(stencil_points(u, k * h, mixed) for k, mixed in stencils))
    assert len(expected) == len(points) == count(len(u))
    assert set(points) == expected


# The FD functions with a stencil outside the residual, and whether that
# stencil is mixed; each takes the stencil to use, or None for its own.
_BATCHED_FD = {
    "laplace_beltrami": (True, lambda chart, u, h, st: laplace_beltrami(chart, PHI2, u, h, _stencil=st)),
    "grad_norm": (False, lambda chart, u, h, st: grad_norm(chart, PHI2, u, h, _stencil=st)),
    "christoffel_symbols": (False, lambda chart, u, h, st: christoffel_symbols(chart, u, h, _stencil=st)),
    "nabla_phi_norm2": (False, lambda chart, u, h, st: nabla_phi_norm2(chart, u, h, _stencil=st)),
}


@pytest.mark.parametrize("name", list(_BATCHED_FD))
def test_batched_fd_functions_equal_a_loop_of_shape_data_at_bit_for_bit(
        stencil_chart, looped_stencil, name):
    mixed, call = _BATCHED_FD[name]
    chart, shapes = _recording_shapes(stencil_chart)
    pts = list(sample_points(chart, 3))
    u, h, n = pts[len(pts) // 2], 1e-4, chart.dim
    want = call(chart, u, h, looped_stencil(chart, u, h, mixed))
    shapes.clear()
    got = call(chart, u, h, None)
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)
    # One chart evaluation of every stencil point at once; a chart that
    # takes one point only is then evaluated point by point.
    count = 2 * n * n + 1 if mixed else 2 * n + 1
    per_point = [(n,)] * count if chart.name == "one-point-only" else []
    assert shapes == [(n, count)] + per_point


def _one_point_only(chart):
    """A copy of the chart that raises TypeError on (n, P) input, as a chart
    written for one point may: every point then takes the per-point path."""

    def ev(u):
        if np.ndim(u) != 1:
            raise TypeError("this copy takes one point")
        return chart.eval_jets(u)

    return dataclasses.replace(chart, eval_jets=ev)


def _outcome(fn, *args):
    """fn(*args), or the type and message of the package error it raises."""
    try:
        return fn(*args)
    except CmcError as exc:
        return type(exc), str(exc)


def test_residual_equals_the_per_point_path_bit_for_bit(stencil_chart, monkeypatch):
    chart, shapes = _recording_shapes(stencil_chart)
    pts = list(sample_points(chart, 3))
    u, n = pts[len(pts) // 2], chart.dim
    # The one-point-only graph chart is not CMC: both paths raise
    # NonConstantMeanCurvature, with the same spread in the message.
    want = _outcome(simons_residual, _one_point_only(stencil_chart), u)
    public_calls = []
    original = geometry.shape_data_at

    def counted(*args, **kwargs):
        public_calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(geometry, "shape_data_at", counted)
    got = _outcome(simons_residual, chart, u)
    assert type(got) is type(want) and got == want
    # One chart evaluation per stencil (the step-2h one reuses the centre),
    # then one public shape_data_at call per point.
    fine, coarse = 2 * n * n + 1, 2 * n * n
    if chart.name == "one-point-only":
        assert shapes == [(n, fine)] + [(n,)] * fine + [(n, coarse)] + [(n,)] * coarse
    else:
        assert shapes == [(n, fine), (n, coarse)]
    assert len(public_calls) == 4 * n * n + 1


@pytest.mark.parametrize("model", [Unduloid(1.0, 0.5), EuclideanProduct(2, 1, 0.7),
                                   UmbilicalSphere(2, 0, 2.0)],
                         ids=["unduloid", "euclidean-product-n2", "umbilical-sphere"])
def test_intrinsic_gauss_equals_the_per_point_path_bit_for_bit(model):
    reference = build_chart(model)
    chart, shapes = _recording_shapes(reference)
    pts = list(sample_points(chart, 3))
    u = pts[len(pts) // 2]
    want = intrinsic_gauss_n2(_one_point_only(reference), u)
    assert intrinsic_gauss_n2(chart, u) == want
    assert shapes == [(2, 5)]


def _plane_failing_at(shift, pole):
    """The plane z = 0, written as 0 sqrt(x + 2y + shift) [+ 0 / (x - pole)]:
    its jets raise DomainError where the sqrt or the division fails.  The
    sqrt is computed first, so a batched evaluation meets its error before
    the division error of an earlier point."""

    def ev(u):
        x, y = Jet2.variable(u[0], 0, 2), Jet2.variable(u[1], 1, 2)
        z = 0.0 * (x + 2.0 * y + shift).sqrt()
        return [x, y, z if pole is None else z + 0.0 / (x - pole)]

    return ImmersionChart(AmbientSpace(0, 2), (Interval(-1, 1), Interval(-1, 1)), ev)


# At u = 0 with step h: x + 2y + 5h is negative only at the residual's
# corner (-2h, -2h), and x + 2y + 1.5h only at the Gauss point (0, -h).  The
# pole sits on an earlier point of the same stencil: (2h, 0) and (h, 0).
@pytest.mark.parametrize("name, shift, pole, first", [
    ("simons_residual", 5.0, None, "sqrt of a jet with non-positive value"),
    ("simons_residual", 5.0, 2.0, "division by a jet with zero value"),
    ("intrinsic_gauss_n2", 1.5, None, "sqrt of a jet with non-positive value"),
    ("intrinsic_gauss_n2", 1.5, 1.0, "division by a jet with zero value"),
], ids=["residual-corner", "residual-pole-first", "gauss-point", "gauss-pole-first"])
def test_fd_functions_raise_the_chart_error_of_the_first_bad_point(name, shift, pole, first):
    h = 1e-4
    chart = _plane_failing_at(shift * h, None if pole is None else pole * h)
    want = _outcome(_FD_FUNCTIONS[name], _one_point_only(chart), [0.0, 0.0], h)
    got = _outcome(_FD_FUNCTIONS[name], chart, [0.0, 0.0], h)
    assert got == want
    assert want[0] is DomainError and want[1].startswith(first)


def test_intrinsic_gauss_names_the_first_non_orthogonal_point():
    # z = (x + y)^2 / 2 has g_12 = (x + y)^2: zero at u = 0 and about h^2
    # at each of its four neighbours, of which (h, 0) comes first.
    def ev(u):
        x, y = Jet2.variable(u[0], 0, 2), Jet2.variable(u[1], 1, 2)
        return [x, y, 0.5 * (x + y) * (x + y)]

    h = 1e-4
    chart = ImmersionChart(AmbientSpace(0, 2), (Interval(-1, 1), Interval(-1, 1)), ev)
    want = _outcome(intrinsic_gauss_n2, _one_point_only(chart), [0.0, 0.0], h)
    assert _outcome(intrinsic_gauss_n2, chart, [0.0, 0.0], h) == want
    assert want[0] is NonOrthogonalChart and want[1].endswith(f"at {np.array([h, 0.0])}")


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
# batched shape data
# ---------------------------------------------------------------------------

def wavy_graph_chart():
    """Graph chart z = f(x, y) that uses every jet operation, with its
    constants as plain numbers, so it takes one point or a batch."""
    def ev(u):
        x = Jet2.variable(u[0], 0, 2)
        y = Jet2.variable(u[1], 1, 2)
        z = (0.3 * (x * y).sin() + (1.0 + x.pow_int(2)).sqrt() / (2.0 + y.cosh())
             - 0.1 * y.sinh() + x.cos() / 3.0 + 0.2 / (3.0 - x) - -(0.05 * y.pow_int(3)))
        return [x, y, z]

    dom = (Interval(-1.0, 1.0), Interval(0.0, 2.0 * math.pi, periodic=True))
    return ImmersionChart(AmbientSpace(0, 2), dom, ev, name="wavy-graph")


_SHAPE_FIELDS = [f.name for f in dataclasses.fields(ShapeData) if f.name != "space"]


def _assert_same_shape_data(got, want):
    assert got.space == want.space
    for name in _SHAPE_FIELDS + ["principal_curvatures"]:
        a, b = getattr(got, name), getattr(want, name)
        assert type(a) is type(b) and np.shape(a) == np.shape(b), name
        assert np.array_equal(a, b), name


def _recording_shapes(chart):
    """A copy of the chart and the list of the array shapes it is evaluated at."""
    shapes = []

    def ev(u):
        shapes.append(u.shape)
        return chart.eval_jets(u)

    return dataclasses.replace(chart, eval_jets=ev), shapes


def test_default_model_grid_covers_every_catalog_chart_builder():
    # The bit-for-bit test below runs on the grid, so the grid must reach
    # every model type and both branches of the hyperbolic and umbilical charts.
    grid = default_model_grid()
    assert {type(m) for m in grid} == set(typing.get_args(ModelSpec))
    assert {m.n - m.k == 1 for m in grid if isinstance(m, HyperbolicCylinder)} == {True, False}
    assert {m.c for m in grid if isinstance(m, UmbilicalSphere)} == {-1, 0, 1}


@pytest.mark.parametrize("chart", [build_chart(m) for m in default_model_grid()]
                         + [wavy_graph_chart()], ids=lambda c: c.name)
def test_batch_equals_shape_data_at_bit_for_bit(chart):
    chart, shapes = _recording_shapes(chart)
    pts = list(sample_points(chart, 4, max_points=24))
    batch = shape_data_batch(chart, pts)
    assert shapes == [(chart.dim, len(pts))]  # one batched evaluation, no per-point rerun
    for p, got in zip(pts, batch):
        _assert_same_shape_data(got, shape_data_at(chart, p))


def _sphere_batch_with_pole():
    """Round 2-sphere chart points; the middle one sits on the pole, where
    the metric degenerates."""
    return build_chart(UmbilicalSphere(2, 0, 1.0)), [[1.0, 0.5], [0.0, 0.5], [2.0, 0.5]]


def test_batch_raises_what_shape_data_at_raises_at_the_first_bad_point():
    chart, pts = _sphere_batch_with_pole()
    with pytest.raises(DegenerateMetric) as single:
        shape_data_at(chart, pts[1])
    with pytest.raises(DegenerateMetric) as batched:
        shape_data_batch(chart, pts)
    assert str(batched.value) == str(single.value)
    # Without the pole the same batch goes through.
    assert len(shape_data_batch(chart, pts[::2])) == 2


def test_batch_raises_the_chart_error_of_the_first_bad_point():
    # Point 1 divides by y = 0; point 2, later, takes sqrt of x < 0.  The
    # batched evaluation meets the sqrt first, a loop meets the division.
    def ev(u):
        x = Jet2.variable(u[0], 0, 2)
        y = Jet2.variable(u[1], 1, 2)
        return [x, y, x.sqrt() + 1.0 / y]

    chart = ImmersionChart(AmbientSpace(0, 2), (Interval(-1, 1), Interval(-1, 1)), ev)
    pts = [[0.5, 0.5], [0.5, 0.0], [-0.5, 0.5]]
    with pytest.raises(DomainError) as single:
        shape_data_at(chart, pts[1])
    with pytest.raises(DomainError) as batched:
        shape_data_batch(chart, pts)
    assert str(batched.value) == str(single.value)


@pytest.mark.parametrize("third", [0.0, -0.3])
def test_batched_sqrt_error_is_the_one_shape_data_at_raises(third):
    # The surface z = sqrt(x) over six points, the third with x <= 0: the
    # batched sqrt raises there, and the batch falls back to a loop.
    def ev(u):
        x = Jet2.variable(u[0], 0, 2)
        y = Jet2.variable(u[1], 1, 2)
        return [x, y, x.sqrt()]

    chart = ImmersionChart(AmbientSpace(0, 2), (Interval(-1, 1), Interval(-1, 1)), ev)
    pts = [[0.5, 0.1], [0.4, 0.2], [third, 0.3], [0.3, 0.4], [-0.2, 0.5], [0.6, 0.6]]
    with pytest.raises(DomainError) as single:
        shape_data_at(chart, pts[2])
    with pytest.raises(DomainError) as batched:
        shape_data_batch(chart, pts)
    assert type(batched.value) is type(single.value)
    assert str(batched.value) == str(single.value)
    assert str(single.value) == f"sqrt of a jet with non-positive value {third}"


def test_batch_does_not_hide_an_unexpected_chart_failure():
    def ev(u):
        if u.ndim == 2:
            raise KeyError("batched evaluation broke")
        x, y = Jet2.variable(u[0], 0, 2), Jet2.variable(u[1], 1, 2)
        return [x, y, x * y]

    chart = ImmersionChart(AmbientSpace(0, 2), (Interval(-1, 1), Interval(-1, 1)), ev)
    with pytest.raises(KeyError):
        shape_data_batch(chart, [[0.1, 0.2], [0.3, 0.4]])


def test_per_point_evaluation_rejects_a_batch_of_points():
    chart = build_chart(SphereProduct(3, 0.55))
    pts = np.array(list(sample_points(chart, 2)))
    for u in (pts.T, pts[:3, :2]):
        with pytest.raises(SizeMismatch):
            shape_data_at(chart, u)
        with pytest.raises(SizeMismatch):
            chart.position(u)
    with pytest.raises(SizeMismatch):
        chart.jets(pts[0], batch=True)


def test_batch_of_a_chart_that_takes_one_point_only():
    def ev(u):
        r = float(u[0])  # a plain float: this chart cannot take (2, P)
        x = Jet2.variable(r, 0, 2)
        y = Jet2.variable(u[1], 1, 2)
        return [x, y, 0.5 * x * x - 0.25 * y * y]

    chart = ImmersionChart(AmbientSpace(0, 2), (Interval(-1, 1), Interval(-1, 1)), ev)
    pts = list(sample_points(chart, 3))
    # Older numpy converts a one-point row to a float without an error,
    # which would mix scalar and batched jets; one point takes shape_data_at.
    for batch in (pts, pts[:1]):
        for p, got in zip(batch, shape_data_batch(chart, batch)):
            _assert_same_shape_data(got, shape_data_at(chart, p))


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


def test_christoffel_symbols_stay_inside_a_bounded_domain():
    # The flat axis of EuclideanProduct(3, 2, 1.0) is [-2, 2]: the stencil
    # at 1.99995 + 1e-4 would leave it.
    chart = build_chart(EuclideanProduct(3, 2, 1.0))
    with pytest.raises(DomainExceeded):
        christoffel_symbols(chart, [1.99995, 1.1, 0.7], 1e-4)
    assert np.all(np.isfinite(christoffel_symbols(chart, [1.9998, 1.1, 0.7], 1e-4)))


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
