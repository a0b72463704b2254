import math

import numpy as np
import pytest

from cmcgeo.errors import DomainError, NonConvergence, RankDeficient
from cmcgeo.numeric import Jet2, adaptive_quadrature, jacobi_eigh, nullspace_unit


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------

def test_jet_product_rule():
    a = Jet2.variable(2.0, 0, 2)
    b = Jet2.variable(3.0, 1, 2)
    p = a * b
    assert p.value == 6.0
    assert np.array_equal(p.grad, [3.0, 2.0])
    assert p.hess[0, 1] == 1.0 and p.hess[1, 0] == 1.0
    assert p.hess[0, 0] == 0.0


def test_jet_sin_at_half_pi():
    u = Jet2.variable(math.pi / 2, 0, 1)
    s = u.sin()
    assert abs(s.value - 1.0) < 1e-15
    assert abs(s.grad[0]) < 1e-15
    assert abs(s.hess[0, 0] + 1.0) < 1e-15


def test_jet_sqrt_of_constant():
    c = Jet2.constant(4.0, 2)
    r = c.sqrt()
    assert r.value == 2.0
    assert np.all(r.grad == 0.0) and np.all(r.hess == 0.0)


def test_jet_domain_errors():
    z = Jet2.constant(0.0, 1)
    with pytest.raises(DomainError):
        Jet2.constant(1.0, 1) / z
    with pytest.raises(DomainError):
        Jet2.constant(-1.0, 1).sqrt()


def test_jet_hessian_bitwise_symmetric():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = Jet2.variable(rng.uniform(0.2, 2.0), 0, 3)
        y = Jet2.variable(rng.uniform(0.2, 2.0), 1, 3)
        z = Jet2.variable(rng.uniform(0.2, 2.0), 2, 3)
        w = ((x * y + z.sin()) / (z + 2.0)).sqrt() * y.cosh() - x.pow_int(3)
        assert np.array_equal(w.hess, w.hess.T)


# Independent oracle for the chain rule: polynomials as coefficient maps,
# with composition and differentiation done by coefficient algebra.

def _poly_mul(p, q):
    out = {}
    for (a, b), cp in p.items():
        for (c, d), cq in q.items():
            key = (a + c, b + d)
            out[key] = out.get(key, 0.0) + cp * cq
    return out


def _poly_add(p, q, scale=1.0):
    out = dict(p)
    for key, cq in q.items():
        out[key] = out.get(key, 0.0) + scale * cq
    return out


def _poly_eval(p, u):
    return sum(c * u[0] ** a * u[1] ** b for (a, b), c in p.items())


def _poly_diff(p, axis):
    out = {}
    for (a, b), c in p.items():
        e = (a, b)[axis]
        if e > 0:
            key = (a - 1, b) if axis == 0 else (a, b - 1)
            out[key] = out.get(key, 0.0) + c * e
    return out


def _poly_compose(p, q0, q1):
    out = {}
    for (a, b), c in p.items():
        term = {(0, 0): c}
        for _ in range(a):
            term = _poly_mul(term, q0)
        for _ in range(b):
            term = _poly_mul(term, q1)
        out = _poly_add(out, term)
    return out


def _poly_jet(p, u):
    jx = Jet2.variable(u[0], 0, 2)
    jy = Jet2.variable(u[1], 1, 2)
    total = Jet2.constant(0.0, 2)
    for (a, b), c in p.items():
        term = Jet2.constant(c, 2)
        for _ in range(a):
            term = term * jx
        for _ in range(b):
            term = term * jy
        total = total + term
    return total


def _random_poly(rng, deg=3):
    return {(a, b): rng.uniform(-1, 1)
            for a in range(deg + 1) for b in range(deg + 1 - a)}


def test_jet_chain_rule_against_polynomial_algebra():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = _random_poly(rng)
        q0 = _random_poly(rng)
        q1 = _random_poly(rng)
        u = rng.uniform(-0.8, 0.8, 2)

        # jet route: run q through jet arithmetic, then p on the results
        jq0 = _poly_jet(q0, u)
        jq1 = _poly_jet(q1, u)
        jet = Jet2.constant(0.0, 2)
        for (a, b), c in p.items():
            term = Jet2.constant(c, 2)
            for _ in range(a):
                term = term * jq0
            for _ in range(b):
                term = term * jq1
            jet = jet + term

        # oracle route: expand p(q0, q1) by coefficient algebra and read off
        # exact derivatives
        comp = _poly_compose(p, q0, q1)
        dx, dy = _poly_diff(comp, 0), _poly_diff(comp, 1)
        value = _poly_eval(comp, u)
        grad = np.array([_poly_eval(dx, u), _poly_eval(dy, u)])
        hess = np.array([
            [_poly_eval(_poly_diff(dx, 0), u), _poly_eval(_poly_diff(dx, 1), u)],
            [_poly_eval(_poly_diff(dy, 0), u), _poly_eval(_poly_diff(dy, 1), u)],
        ])

        scale = max(1.0, abs(value))
        assert abs(jet.value - value) <= 1e-12 * scale
        assert np.max(np.abs(jet.grad - grad)) <= 1e-12 * max(1.0, np.max(np.abs(grad)))
        assert np.max(np.abs(jet.hess - hess)) <= 1e-12 * max(1.0, np.max(np.abs(hess)))


# ---------------------------------------------------------------------------
# symmetric eigenvalues
# ---------------------------------------------------------------------------

def test_eigenvalues_identity():
    assert np.allclose(jacobi_eigh(np.eye(3))[0], [1, 1, 1])


def test_eigenvalues_cylinder_shape_operator():
    w, _ = jacobi_eigh(np.diag([0.0, 1.0, 1.0]))
    assert np.allclose(w, [0.0, 1.0, 1.0], atol=1e-14)


def test_eigenvalues_offdiagonal_pair():
    w, _ = jacobi_eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(w, [-1.0, 1.0], atol=1e-14)


def test_eigenvalues_trace_det_property():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = rng.uniform(-1, 1, (4, 4))
        a = a + a.T
        w, v = jacobi_eigh(a)
        assert abs(w.sum() - np.trace(a)) <= 1e-10
        assert abs(np.prod(w) - np.linalg.det(a)) <= 1e-10
        # rotated matrix is diagonal to the promised residual
        resid = v.T @ a @ v - np.diag(w)
        assert np.max(np.abs(resid)) <= 1e-12 * max(1.0, np.max(np.abs(a)))


# ---------------------------------------------------------------------------
# adaptive quadrature
# ---------------------------------------------------------------------------

def test_quadrature_sine():
    val = adaptive_quadrature(math.sin, 0.0, math.pi, 1e-10)
    assert abs(val - 2.0) <= 1e-10


def test_quadrature_inverse_square():
    val = adaptive_quadrature(lambda t: 1.0 / (1.0 + t) ** 2, 0.0, 10.0, 1e-10)
    assert abs(val - 10.0 / 11.0) <= 1e-10


def test_quadrature_exact_on_cubics():
    rng = np.random.default_rng(5)
    for _ in range(20):
        c = rng.uniform(-2, 2, 4)
        f = lambda t: c[0] + c[1] * t + c[2] * t * t + c[3] * t**3
        a, b = sorted(rng.uniform(-3, 3, 2))
        exact = sum(c[k] * (b ** (k + 1) - a ** (k + 1)) / (k + 1) for k in range(4))
        assert abs(adaptive_quadrature(f, a, b, 10.0) - exact) <= 1e-13 * max(1.0, abs(exact))


def _composite_simpson(f, a, b, n):
    xs = np.linspace(a, b, 2 * n + 1)
    ys = np.array([f(x) for x in xs])
    hh = (b - a) / (2 * n)
    return hh / 3.0 * (ys[0] + ys[-1] + 4 * ys[1::2].sum() + 2 * ys[2:-1:2].sum())


def test_quadrature_unduloid_integrand_vs_richardson():
    # axial coordinate integrand of the H=1, B=0.5 unduloid
    f = lambda t: (1 + 0.5 * math.sin(2 * t)) / math.sqrt(1.25 + math.sin(2 * t))
    ours = adaptive_quadrature(f, 0.0, math.pi / 2, 1e-10)
    s1 = _composite_simpson(f, 0.0, math.pi / 2, 512)
    s2 = _composite_simpson(f, 0.0, math.pi / 2, 1024)
    oracle = s2 + (s2 - s1) / 15.0
    assert ours > 0.0
    assert abs(ours - oracle) <= 5e-10
    finer = adaptive_quadrature(f, 0.0, math.pi / 2, 5e-11)
    assert abs(ours - finer) < 1e-9


def test_quadrature_rejects_bad_input():
    with pytest.raises(ValueError):
        adaptive_quadrature(math.sin, 1.0, 0.0, 1e-8)
    with pytest.raises(ValueError):
        adaptive_quadrature(math.sin, 0.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        adaptive_quadrature(lambda t: float("nan"), 0.0, 1.0, 1e-8)
    assert adaptive_quadrature(math.sin, 2.0, 2.0, 1e-8) == 0.0


def test_quadrature_nonconvergence():
    wild = lambda t: math.sin(1e9 * t)
    with pytest.raises(NonConvergence):
        adaptive_quadrature(wild, 0.0, 1.0, 1e-14, max_subdivisions=10_000)


# ---------------------------------------------------------------------------
# form-orthogonal unit vectors
# ---------------------------------------------------------------------------

def test_nullspace_euclidean_basis():
    v = nullspace_unit([np.array([1.0, 0, 0]), np.array([0.0, 1, 0])], "euclidean")
    assert np.allclose(v, [0, 0, 1])  # positive determinant picks +e3


def test_nullspace_rank_deficient_full_span():
    rows = [np.array([1.0, 0, 0]), np.array([0.0, 1, 0]), np.array([0.0, 0, 1])]
    with pytest.raises(RankDeficient):
        nullspace_unit(rows, "euclidean")


def test_nullspace_rank_deficient_too_few():
    with pytest.raises(RankDeficient):
        nullspace_unit([np.array([1.0, 0, 0, 0])], "euclidean")


def test_nullspace_minkowski():
    rows = [np.array([1.0, 0, 0, 0]), np.array([0.0, 1, 0, 0]), np.array([0.0, 0, 1, 0])]
    v = nullspace_unit(rows, "lorentzian")
    assert np.allclose(v, [0, 0, 0, -1])
    # form(v, v) = +1 under the Lorentzian form
    assert abs((-v[0] ** 2 + v[1] ** 2 + v[2] ** 2 + v[3] ** 2) - 1.0) < 1e-14


def test_nullspace_orthogonality_property():
    rng = np.random.default_rng(2)
    for form in ("euclidean", "lorentzian"):
        for _ in range(40):
            rows = rng.uniform(-1, 1, (4, 5))
            weights = np.ones(5)
            if form == "lorentzian":
                weights[0] = -1.0
                rows[:, 0] *= 0.3  # keep the complement spacelike
            try:
                v = nullspace_unit(list(rows), form)
            except (RankDeficient, DomainError):
                continue
            for r in rows:
                assert abs(np.dot(weights * v, r)) <= 1e-12
            assert abs(np.dot(weights * v, v) - 1.0) <= 1e-12
            # sign rule: det([rows; v]) > 0, time column negated if Lorentzian
            assert np.linalg.det(np.vstack([rows, v]) * weights) > 0.0
