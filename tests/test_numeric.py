import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmcgeo.errors import DomainError, NonConvergence, RankDeficient
from cmcgeo.numeric import (
    _RANK_RTOL,
    Jet2,
    _nullspace_batch,
    adaptive_quadrature,
    jacobi_eigh,
    nullspace_unit,
)


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


_NONZERO = st.floats(0.01, 1e3) | st.floats(-1e3, -0.01)


@st.composite
def _jets(draw):
    n = draw(st.integers(1, 4))
    entries = draw(st.lists(_NONZERO, min_size=1 + n + n * n, max_size=1 + n + n * n))
    h = np.array(entries[1 + n:]).reshape(n, n)
    return Jet2(entries[0], np.array(entries[1:1 + n]), h + h.T)


@settings(max_examples=200, deadline=None)
@given(_jets(), _NONZERO)
def test_jet_scalar_paths_match_constant_jets(j, k):
    c = Jet2.constant(k, j.nvars)
    pairs = [(j * k, j * c), (k * j, c * j), (j + k, j + c), (k + j, c + j),
             (j - k, j - c), (k - j, c - j), (j / k, j / c), (k / j, c / j)]
    for got, want in pairs:
        assert got.value == want.value
        assert np.array_equal(got.grad, want.grad)
        assert np.array_equal(got.hess, want.hess)


def test_jet_constant_and_variable_arrays_are_read_only():
    with pytest.raises(ValueError):
        Jet2.variable(0.5, 0, 3).grad[1] = 2.0
    with pytest.raises(ValueError):
        Jet2.constant(1.0, 2).hess[0, 0] = 1.0
    with pytest.raises(ValueError):
        Jet2.variable(np.array([0.5, 0.7]), 1, 3).grad[1, 0] = 2.0


def _batched_jet(draw, n, count, values):
    """A batched jet: value (P,), grad (n, P), symmetric hess (n, n, P)."""
    size = count * (1 + n + n * n)
    entries = np.array(draw(st.lists(values, min_size=size, max_size=size)))
    h = entries[count * (1 + n):].reshape(n, n, count)
    return Jet2(entries[:count], entries[count:count * (1 + n)].reshape(n, count),
                h + h.swapaxes(0, 1))


def _point(j: Jet2, p: int) -> Jet2:
    return Jet2(float(j.value[p]), j.grad[:, p].copy(), j.hess[:, :, p].copy())


def _bits(x) -> bytes:
    return np.ascontiguousarray(x, dtype=float).tobytes()


# Each entry of perfbench/tracing.py's JET_OPS, applied to batched jets
# a, b of one shape, a number k and an integer m.
_BATCHED_OPS = {
    "__add__": lambda a, b, k, m: [a + b, a + k],
    "__radd__": lambda a, b, k, m: [k + a],
    "__neg__": lambda a, b, k, m: [-a],
    "__sub__": lambda a, b, k, m: [a - b, a - k],
    "__rsub__": lambda a, b, k, m: [k - a],
    "__mul__": lambda a, b, k, m: [a * b, a * k],
    "__rmul__": lambda a, b, k, m: [k * a],
    "__truediv__": lambda a, b, k, m: [a / b, a / k],
    "__rtruediv__": lambda a, b, k, m: [k / a],
    "sqrt": lambda a, b, k, m: [a.sqrt()],
    "sin": lambda a, b, k, m: [a.sin()],
    "cos": lambda a, b, k, m: [a.cos()],
    "sinh": lambda a, b, k, m: [a.sinh()],
    "cosh": lambda a, b, k, m: [a.cosh()],
    "pow_int": lambda a, b, k, m: [a.pow_int(m)],
}
_MODERATE = st.floats(-20.0, 20.0)  # sinh and cosh overflow past ~710
# Large sin and cos arguments take libm's argument reduction, where
# numpy's own sin and cos are most likely to differ from it.
_ANGLES = _MODERATE | st.floats(-1e6, 1e6)
_VALUES = {"sqrt": st.floats(0.01, 1e3), "sin": _ANGLES, "cos": _ANGLES,
           "sinh": _MODERATE, "cosh": _MODERATE}


def test_batched_ops_cover_every_traced_jet_op():
    from perfbench.tracing import JET_OPS
    assert set(_BATCHED_OPS) == set(JET_OPS)
    assert all(name in Jet2.__dict__ for name in JET_OPS)
    assert Jet2.__dict__["__radd__"] is Jet2.__dict__["__add__"]
    assert Jet2.__dict__["__rmul__"] is Jet2.__dict__["__mul__"]


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from(sorted(_BATCHED_OPS)), st.integers(1, 3),
       st.integers(1, 4), _NONZERO, st.integers(-3, 4))
def test_batched_jet_ops_equal_per_point_ops_bit_for_bit(data, name, n, count, k, m):
    a = _batched_jet(data.draw, n, count, _VALUES.get(name, _NONZERO))
    b = _batched_jet(data.draw, n, count, _NONZERO)
    batched = _BATCHED_OPS[name](a, b, k, m)
    for p in range(count):
        single = _BATCHED_OPS[name](_point(a, p), _point(b, p), k, m)
        for got, want in zip(batched, single):
            assert got.value.shape == (count,) and got.grad.shape == (n, count)
            assert got.hess.shape == (n, n, count)
            assert _bits(got.value[p]) == _bits(want.value)
            assert _bits(got.grad[:, p]) == _bits(want.grad)
            assert _bits(got.hess[:, :, p]) == _bits(want.hess)


def test_batched_sqrt_raises_what_the_first_bad_point_raises():
    values = np.array([1.0, 2.5, -0.5, 0.0, 3.0, -2.0])
    batched = Jet2.variable(values, 0, 2)
    with pytest.raises(DomainError) as single:
        Jet2.variable(-0.5, 0, 2).sqrt()
    with pytest.raises(DomainError) as batch:
        batched.sqrt()
    assert str(batch.value) == str(single.value)
    # Where v * sqrt(v) underflows to 0, a float divides by zero.
    with pytest.raises(ZeroDivisionError):
        Jet2.variable(1e-300, 0, 1).sqrt()
    with pytest.raises(ZeroDivisionError):
        Jet2.variable(np.array([1.0, 1e-300]), 0, 1).sqrt()


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


def test_nullspace_rejects_unknown_form_after_plan_is_cached():
    rows = [np.array([1.0, 0, 0]), np.array([0.0, 1, 0])]
    nullspace_unit(rows, "euclidean")
    nullspace_unit(rows, "lorentzian")
    with pytest.raises(ValueError):
        nullspace_unit(rows, "bogus")


def _raises(rows, form) -> bool:
    try:
        nullspace_unit(list(rows), form)
    except (RankDeficient, DomainError):
        return True
    return False


@pytest.mark.parametrize("form", ["euclidean", "lorentzian"])
def test_batched_rank_mask_equals_where_nullspace_unit_raises(form):
    # Rows (1, 0, 0, 0), (0.3, 0, 1, 0) and (1, e, 0, 0), each with largest
    # entry 1: the cofactor vector is (0, 0, 0, -e) up to rounding, and the
    # threshold t is 1e-10 times the product of the row norms, so e = k t
    # puts the norm at k times the threshold.  Near k = 1 the verdict turns
    # within a few ulp; near 1/2 and 2 the screen hands over to the exact check.
    base = np.array([[1.0, 0.0, 0.0, 0.0], [0.3, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
    t = _RANK_RTOL * math.prod(math.hypot(*r) for r in base.tolist())
    near_one = [1.0 + d for d in (-1e-15, -4e-16, 0.0, 4e-16, 1e-15, 2e-15)]
    ks = near_one + [0.25, 4.0, 1e3] + [k * (1.0 + d) for k in (0.5, 2.0)
                                        for d in (-4e-16, 0.0, 4e-16)]
    batch = []
    for k in ks:
        rows = base.copy()
        rows[2, 1] = k * t
        batch.append(rows)
    batch.append(np.full((3, 4), math.nan))  # non-finite
    batch.append(np.vstack([base[:2], np.zeros(4)]))  # a zero row: bound 0
    batch.append(np.vstack([base[:2], base[1]]))  # repeated row: cofactors 0
    batch.append(np.vstack([base[:2], [1.0, 0.0, 0.0, 1.0]]))  # well inside
    rows = np.array(batch)
    with np.errstate(invalid="ignore"):  # det of the NaN rows
        _, mask = _nullspace_batch(rows, form)
        want = [_raises(r, form) for r in rows]
    assert mask.tolist() == want
    assert len(set(want[:len(near_one)])) == 2  # both verdicts next to k = 1
