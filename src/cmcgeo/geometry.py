"""Pointwise extrinsic and intrinsic geometry of an immersed hypersurface.

From a chart evaluated in second-order jet arithmetic this module computes
the first and second fundamental forms, the unit normal, the shape operator
and its traceless part, principal curvatures, and the scalar curvature, all
at machine precision.  On top of those it provides the finite-difference
layer: Laplace-Beltrami and gradient of pointwise scalar fields, the squared
norm of the covariant derivative of the traceless shape tensor, the residual
of the constant-mean-curvature Laplacian identity for |Phi|^2, and the
intrinsic Gauss curvature of surfaces in orthogonal coordinates.

Conventions.  The second fundamental form is taken against the flat ambient
second derivative; for the curved ambients the correction term is
proportional to the position vector, which is form-orthogonal to the normal,
so nothing changes.  The normal is flipped, when the mean curvature is not
numerically zero, to make H >= 0 (mean-convex normalization); orientation
dependent signs therefore never enter comparisons against catalog values.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (
    DegenerateMetric,
    DomainError,
    DomainExceeded,
    NonConstantMeanCurvature,
    NonOrthogonalChart,
    NotSurface,
    SizeMismatch,
)
# perfbench/tracing.py patches jacobi_eigh and nullspace_unit by name, both
# here and in numeric, so they stay imported under these names.
from .numeric import Jet2, jacobi_eigh, nullspace_unit
from .spaceform import AmbientSpace, metric_weights, validate_point

__all__ = [
    "DEFAULT_FD_STEP",
    "DEFAULT_SIMONS_STEP",
    "Interval",
    "ImmersionChart",
    "ShapeData",
    "ScalarField",
    "scalar_field",
    "shape_data_at",
    "curvature_tensor",
    "ricci",
    "ricci_from_curvature",
    "scalar_from_curvature",
    "sectional_curvature",
    "laplace_beltrami",
    "grad_norm",
    "christoffel_symbols",
    "nabla_phi_norm2",
    "simons_residual",
    "intrinsic_gauss_n2",
    "sample_points",
]

# Base finite-difference step.  Second derivatives of pointwise-exact
# quantities carry O(h^2) truncation against O(eps/h^2) rounding; 1e-4 with
# one Richardson level in the residual keeps both comfortably under the
# 1e-5 identity budget on the most oscillatory catalog charts.
DEFAULT_FD_STEP = 1e-4

_DET_FLOOR = 1e-12
_MEAN_CONVEX_EPS = 1e-12
_H_SPREAD_TOL = 1e-7


@dataclass(frozen=True)
class Interval:
    """Closed coordinate range; periodic axes wrap instead of ending."""

    lo: float
    hi: float
    periodic: bool = False

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ValueError("interval must have hi > lo")

    @property
    def span(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class ImmersionChart:
    """Parametrized hypersurface patch evaluable in jet arithmetic.

    ``eval_jets`` maps a chart point (array of length n) to one Jet2 per
    ambient coordinate, carrying the exact value, first and second partials
    of the immersion.  Charts built from periodic functions may be evaluated
    beyond a periodic seam; bounded axes are honest truncation windows.
    """

    space: AmbientSpace
    domain: tuple[Interval, ...]
    eval_jets: Callable[[np.ndarray], list[Jet2]]
    name: str = ""

    def __post_init__(self):
        if len(self.domain) != self.space.n:
            raise ValueError("domain arity must equal the hypersurface dimension")

    @property
    def dim(self) -> int:
        return self.space.n

    def jets(self, u) -> list[Jet2]:
        u = np.asarray(u, dtype=float)
        if u.shape != (self.dim,):
            raise SizeMismatch(f"chart point of shape {u.shape}, expected ({self.dim},)")
        jets = self.eval_jets(u)
        if len(jets) != self.space.ambient_dim:
            raise SizeMismatch("chart evaluation returned wrong number of components")
        return jets

    def position(self, u) -> np.ndarray:
        return np.array([j.value for j in self.jets(u)])


@dataclass(frozen=True)
class ShapeData:
    """Everything pointwise about the immersion at one chart point.

    ``metric_inv_sqrt`` is g^(-1/2); its columns form a g-orthonormal
    tangent frame.
    """

    point: np.ndarray
    space: AmbientSpace
    metric: np.ndarray
    metric_inv: np.ndarray
    metric_inv_sqrt: np.ndarray
    sqrt_det_metric: float
    normal: np.ndarray
    second_fundamental: np.ndarray
    shape_operator: np.ndarray
    mean_curvature: float
    traceless_shape: np.ndarray
    traceless_lowered: np.ndarray
    traceless_norm2: float
    principal_curvatures: np.ndarray
    scalar_curvature: float
    first_partials: np.ndarray = field(repr=False)
    second_partials: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class ScalarField:
    """Named pointwise function of ShapeData."""

    name: str
    fn: Callable[[ShapeData], float]

    def __call__(self, sd: ShapeData) -> float:
        return float(self.fn(sd))


_BUILTIN_FIELDS = {
    "phi_norm2": lambda sd: sd.traceless_norm2,
    "mean_curvature": lambda sd: sd.mean_curvature,
    "scalar_curvature": lambda sd: sd.scalar_curvature,
}


def scalar_field(name: str) -> ScalarField:
    """Built-in fields: phi_norm2, mean_curvature, scalar_curvature."""
    try:
        return ScalarField(name, _BUILTIN_FIELDS[name])
    except KeyError:
        raise ValueError(f"unknown scalar field {name!r}") from None


# --------------------------------------------------------------------------
# pointwise shape data
# --------------------------------------------------------------------------

def shape_data_at(chart: ImmersionChart, u, *, mean_convex: bool = True,
                  flip: bool = False) -> ShapeData:
    """Compute all fundamental quantities of the immersion at a chart point.

    ``flip`` reverses the determinant-rule normal before the optional
    mean-convex normalization; with ``mean_convex=False`` the orientation is
    left as the determinant rule (possibly flipped) produced it, which is
    what orientation-invariance checks need.
    """
    space = chart.space
    u = np.asarray(u, dtype=float)
    jets = chart.jets(u)
    n = space.n

    pos = np.array([j.value for j in jets])
    d1 = np.array([j.grad for j in jets])        # (ambient, n)
    d2 = np.array([j.hess for j in jets])        # (ambient, n, n)
    w = metric_weights(space)

    if space.c != 0 and not validate_point(space, pos, 1e-10):
        raise DomainError("chart point does not lie on the model hypersurface")

    g = np.einsum("m,mi,mj->ij", w, d1, d1)
    det_g = float(np.linalg.det(g))
    if det_g <= _DET_FLOOR:
        raise DegenerateMetric(f"det g = {det_g:.3e} at {u}")
    g_inv = np.linalg.inv(g)

    rows = [d1[:, i] for i in range(n)]
    if space.c != 0:
        rows.append(pos)
    form = "lorentzian" if space.c == -1 else "euclidean"
    normal = nullspace_unit(rows, form)
    if flip:
        normal = -normal

    a = np.einsum("m,mij->ij", w * normal, d2)
    shape_op = g_inv @ a
    mean_curv = float(np.trace(shape_op)) / n
    if mean_convex and mean_curv < -_MEAN_CONVEX_EPS:
        normal, a, shape_op, mean_curv = -normal, -a, -shape_op, -mean_curv

    traceless = shape_op - mean_curv * np.eye(n)
    traceless_low = a - mean_curv * g
    phi_norm2 = float(np.einsum("ij,ji->", traceless, traceless))
    if phi_norm2 < -1e-12:
        raise DegenerateMetric(f"negative |Phi|^2 = {phi_norm2:.3e} at {u}")
    phi_norm2 = max(phi_norm2, 0.0)

    evals, vecs = jacobi_eigh(g)
    if np.any(evals <= 0.0):
        raise DegenerateMetric(f"metric not positive definite at {u}")
    g_inv_sqrt = vecs @ np.diag(1.0 / np.sqrt(evals)) @ vecs.T
    kappas, _ = jacobi_eigh(g_inv_sqrt @ a @ g_inv_sqrt)

    scalar = n * (n - 1) * (space.c + mean_curv**2) - phi_norm2

    return ShapeData(
        point=u.copy(),
        space=space,
        metric=g,
        metric_inv=g_inv,
        metric_inv_sqrt=g_inv_sqrt,
        sqrt_det_metric=math.sqrt(det_g),
        normal=normal,
        second_fundamental=a,
        shape_operator=shape_op,
        mean_curvature=mean_curv,
        traceless_shape=traceless,
        traceless_lowered=traceless_low,
        traceless_norm2=phi_norm2,
        principal_curvatures=kappas,
        scalar_curvature=scalar,
        first_partials=d1,
        second_partials=d2,
    )


# --------------------------------------------------------------------------
# curvature tensor and contractions
# --------------------------------------------------------------------------

def _ip(sd: ShapeData, x: np.ndarray, y: np.ndarray) -> float:
    return float(x @ sd.metric @ y)


def curvature_tensor(sd: ShapeData, x, y, z) -> np.ndarray:
    """R(X, Y)Z assembled from c, H and the traceless shape operator.

    Antisymmetric in X, Y; all vectors are chart-coordinate components.
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    z = np.asarray(z, float)
    if x.shape != (sd.space.n,) or y.shape != (sd.space.n,) or z.shape != (sd.space.n,):
        raise SizeMismatch("chart vectors must have length n")
    h = sd.mean_curvature
    k = sd.space.c + h * h
    p = sd.traceless_shape
    px, py = p @ x, p @ y
    xz, yz = _ip(sd, x, z), _ip(sd, y, z)
    pxz, pyz = _ip(sd, px, z), _ip(sd, py, z)
    return (k * (xz * y - yz * x)
            + pxz * py - pyz * px
            + h * (pxz * y - yz * px + xz * py - pyz * x))


def ricci(sd: ShapeData, x, y) -> float:
    """Ricci curvature Ric(X, Y) in closed form from c, H and Phi."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    n, h = sd.space.n, sd.mean_curvature
    p = sd.traceless_shape
    px, py = p @ x, p @ y
    return ((n - 1) * (sd.space.c + h * h) * _ip(sd, x, y)
            + (n - 2) * h * _ip(sd, px, y)
            - _ip(sd, px, py))


def ricci_from_curvature(sd: ShapeData, x, y) -> float:
    """Ricci by frame contraction of the curvature tensor (cross-check path)."""
    frame = sd.metric_inv_sqrt
    total = 0.0
    for i in range(sd.space.n):
        e = frame[:, i]
        total += _ip(sd, curvature_tensor(sd, x, e, y), e)
    return total


def scalar_from_curvature(sd: ShapeData) -> float:
    """Scalar curvature by double contraction of the curvature tensor."""
    frame = sd.metric_inv_sqrt
    total = 0.0
    for j in range(sd.space.n):
        e = frame[:, j]
        total += ricci_from_curvature(sd, e, e)
    return total


def sectional_curvature(sd: ShapeData, x, y) -> float:
    """Sectional curvature of the plane spanned by X and Y.

    Contracted as <R(X,Y)X, Y> over the Gram determinant, the pairing under
    which the assembled tensor reproduces Ric by frame contraction (round
    spheres come out positive).
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    num = _ip(sd, curvature_tensor(sd, x, y, x), y)
    den = _ip(sd, x, x) * _ip(sd, y, y) - _ip(sd, x, y) ** 2
    if den <= 0.0:
        raise DomainError("vectors do not span a plane")
    return num / den


# --------------------------------------------------------------------------
# finite-difference layer
# --------------------------------------------------------------------------

class _PointCache:
    """Memoizes ShapeData on the stencil points of one FD computation."""

    def __init__(self, chart: ImmersionChart):
        self.chart = chart
        self._data: dict[tuple, ShapeData] = {}

    def sd(self, u: np.ndarray) -> ShapeData:
        key = tuple(float(v) for v in u)
        hit = self._data.get(key)
        if hit is None:
            hit = shape_data_at(self.chart, u)
            self._data[key] = hit
        return hit

    def mean_curvature_spread(self) -> float:
        hs = [sd.mean_curvature for sd in self._data.values()]
        return max(hs) - min(hs)


def _require_ball(chart: ImmersionChart, u: np.ndarray, radius: float) -> None:
    for i, iv in enumerate(chart.domain):
        if iv.periodic:
            continue
        if u[i] - radius < iv.lo or u[i] + radius > iv.hi:
            raise DomainExceeded(
                f"{radius:.2e}-ball around coordinate {i} leaves [{iv.lo}, {iv.hi}]")


def _shift(u: np.ndarray, moves: Sequence[tuple[int, float]]) -> np.ndarray:
    v = u.copy()
    for i, d in moves:
        v[i] += d
    return v


def _fd_grad(fn: Callable[[np.ndarray], float], u: np.ndarray, h: float) -> np.ndarray:
    n = u.shape[0]
    out = np.empty(n)
    for i in range(n):
        out[i] = (fn(_shift(u, [(i, h)])) - fn(_shift(u, [(i, -h)]))) / (2.0 * h)
    return out


def _fd_hess(fn: Callable[[np.ndarray], float], u: np.ndarray, h: float) -> np.ndarray:
    n = u.shape[0]
    out = np.empty((n, n))
    f0 = fn(u)
    for i in range(n):
        fp = fn(_shift(u, [(i, h)]))
        fm = fn(_shift(u, [(i, -h)]))
        out[i, i] = (fp - 2.0 * f0 + fm) / (h * h)
    for i in range(n):
        for j in range(i + 1, n):
            fpp = fn(_shift(u, [(i, h), (j, h)]))
            fpm = fn(_shift(u, [(i, h), (j, -h)]))
            fmp = fn(_shift(u, [(i, -h), (j, h)]))
            fmm = fn(_shift(u, [(i, -h), (j, -h)]))
            out[i, j] = out[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * h * h)
    return out


def _fd_tensor_jac(fn: Callable[[np.ndarray], np.ndarray], u: np.ndarray,
                   h: float) -> np.ndarray:
    cols = []
    for k in range(u.shape[0]):
        cols.append((fn(_shift(u, [(k, h)])) - fn(_shift(u, [(k, -h)]))) / (2.0 * h))
    return np.array(cols)


def laplace_beltrami(chart: ImmersionChart, field: ScalarField, u,
                     h: float = DEFAULT_FD_STEP, *,
                     _cache: _PointCache | None = None) -> float:
    """Laplace-Beltrami of a pointwise field by central differences.

    Divergence form: sqrt(g)^-1 d_i(sqrt(g) g^{ij} d_j f), expanded so that
    every difference quotient acts on a jet-exact pointwise quantity; the
    truncation error is O(h^2).
    """
    if h <= 0.0:
        raise ValueError("h must be positive")
    u = np.asarray(u, dtype=float)
    _require_ball(chart, u, 2.0 * h)
    cache = _cache if _cache is not None else _PointCache(chart)

    def f(p: np.ndarray) -> float:
        return field(cache.sd(p))

    def weighted_inv(p: np.ndarray) -> np.ndarray:
        sd = cache.sd(p)
        return sd.sqrt_det_metric * sd.metric_inv

    sd0 = cache.sd(u)
    grad_f = _fd_grad(f, u, h)
    hess_f = _fd_hess(f, u, h)
    div_t = _fd_tensor_jac(weighted_inv, u, h)       # (k, i, j) = d_k T^{ij}
    t0 = sd0.sqrt_det_metric * sd0.metric_inv
    return float(
        (np.einsum("iij,j->", div_t, grad_f) + np.einsum("ij,ij->", t0, hess_f))
        / sd0.sqrt_det_metric)


def grad_norm(chart: ImmersionChart, field: ScalarField, u,
              h: float = DEFAULT_FD_STEP, *,
              _cache: _PointCache | None = None) -> float:
    """Riemannian gradient norm |grad f| from central differences of f."""
    if h <= 0.0:
        raise ValueError("h must be positive")
    u = np.asarray(u, dtype=float)
    _require_ball(chart, u, h)
    cache = _cache if _cache is not None else _PointCache(chart)
    grad_f = _fd_grad(lambda p: field(cache.sd(p)), u, h)
    val = float(grad_f @ cache.sd(u).metric_inv @ grad_f)
    return math.sqrt(max(val, 0.0))


def christoffel_symbols(chart: ImmersionChart, u, h: float = DEFAULT_FD_STEP, *,
                        _cache: _PointCache | None = None) -> np.ndarray:
    """Gamma[k, i, j] from central differences of the jet-exact metric."""
    u = np.asarray(u, dtype=float)
    cache = _cache if _cache is not None else _PointCache(chart)
    dg = _fd_tensor_jac(lambda p: cache.sd(p).metric, u, h)
    combo = dg + dg.transpose(1, 0, 2) - dg.transpose(2, 1, 0)
    return 0.5 * np.einsum("kl,ijl->kij", cache.sd(u).metric_inv, combo)


def nabla_phi_norm2(chart: ImmersionChart, u, h: float = DEFAULT_FD_STEP, *,
                    _cache: _PointCache | None = None) -> float:
    """Squared norm of the covariant derivative of the traceless tensor.

    Coordinate partials of phi_ij and the Christoffel symbols both come from
    central differences of jet-exact quantities; the full contraction with
    three inverse metrics is mathematically nonnegative, so tiny negative
    rounding is clamped to zero.
    """
    if h <= 0.0:
        raise ValueError("h must be positive")
    u = np.asarray(u, dtype=float)
    _require_ball(chart, u, h)
    cache = _cache if _cache is not None else _PointCache(chart)
    sd0 = cache.sd(u)
    gamma = christoffel_symbols(chart, u, h, _cache=cache)
    dphi = _fd_tensor_jac(lambda p: cache.sd(p).traceless_lowered, u, h)
    phi = sd0.traceless_lowered
    cov = (dphi
           - np.einsum("lki,lj->kij", gamma, phi)
           - np.einsum("lkj,il->kij", gamma, phi))
    ginv = sd0.metric_inv
    val = float(np.einsum("ka,ib,jc,kij,abc->", ginv, ginv, ginv, cov, cov))
    return max(val, 0.0)


def _simons_residual_single(chart: ImmersionChart, u: np.ndarray, h: float,
                            cache: _PointCache) -> float:
    lap = laplace_beltrami(chart, scalar_field("phi_norm2"), u, h, _cache=cache)
    nphi2 = nabla_phi_norm2(chart, u, h, _cache=cache)
    sd0 = cache.sd(u)
    n, c = chart.space.n, chart.space.c
    hmean = sd0.mean_curvature
    p = sd0.traceless_shape
    tr_cubed = float(np.trace(p @ p @ p))
    p2 = sd0.traceless_norm2
    rhs = nphi2 + n * hmean * tr_cubed - p2 * (p2 - n * (c + hmean**2))
    return 0.5 * lap - rhs


# Residual base step, larger than the generic one: the extrapolated pair
# (2h, h) must keep the rounding floor of the second differences (about
# 1e-13 / h^2 on the largest catalog |Phi|^2 values) below the 1e-5 budget,
# which pushes h up; the h^2 truncation it would normally buy is removed by
# the extrapolation.
DEFAULT_SIMONS_STEP = 3e-4


def simons_residual(chart: ImmersionChart, u, h: float = DEFAULT_SIMONS_STEP, *,
                    richardson: bool = True) -> float:
    """Residual of the constant-H Laplacian identity for |Phi|^2.

    Returns (1/2) Lap |Phi|^2 - [ |nabla Phi|^2 + n H tr(Phi^3)
    - |Phi|^2 (|Phi|^2 - n (c + H^2)) ]; magnitudes at or below 1e-5 certify
    the identity at the point.  The sampled mean curvature over the stencil
    must be constant to 1e-7.

    By default the residual is evaluated at steps 2h and h and Richardson
    extrapolated; near an unduloid neck the fourth profile derivatives are
    large enough that a plain O(h^2) value would blow the 1e-5 budget.
    """
    u = np.asarray(u, dtype=float)
    cache = _PointCache(chart)
    res = _simons_residual_single(chart, u, h, cache)
    if richardson:
        coarse = _simons_residual_single(chart, u, 2.0 * h, cache)
        res = (4.0 * res - coarse) / 3.0
    spread = cache.mean_curvature_spread()
    if spread >= _H_SPREAD_TOL:
        raise NonConstantMeanCurvature(
            f"sampled mean curvature spread {spread:.3e} exceeds {_H_SPREAD_TOL}")
    return res


def _metric_only(chart: ImmersionChart, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Metric and its exact partials without the rest of ShapeData."""
    jets = chart.jets(u)
    d1 = np.array([j.grad for j in jets])
    d2 = np.array([j.hess for j in jets])
    w = metric_weights(chart.space)
    g = np.einsum("m,mi,mj->ij", w, d1, d1)
    dg = (np.einsum("m,mki,mj->kij", w, d2, d1)
          + np.einsum("m,mi,mkj->kij", w, d1, d2))
    return g, dg


def intrinsic_gauss_n2(chart: ImmersionChart, u, h: float = DEFAULT_FD_STEP) -> float:
    """Intrinsic Gauss curvature of a surface chart with orthogonal coordinates.

    Uses the orthogonal-coordinate formula
    K = -(1/(2 sqrt(EG))) [ d_s(d_s G / sqrt(EG)) + d_t(d_t E / sqrt(EG)) ],
    where the inner metric partials are jet-exact and only the outer
    derivative is a central difference.  Independent of the embedding.
    """
    if chart.space.n != 2:
        raise NotSurface("intrinsic Gauss curvature needs a 2-dimensional chart")
    if h <= 0.0:
        raise ValueError("h must be positive")
    u = np.asarray(u, dtype=float)
    _require_ball(chart, u, h)

    def inner(p: np.ndarray) -> tuple[float, float, float, float]:
        g, dg = _metric_only(chart, p)
        if abs(g[0, 1]) > 1e-10:
            raise NonOrthogonalChart(f"g_12 = {g[0, 1]:.3e} at {p}")
        root = math.sqrt(g[0, 0] * g[1, 1])
        return dg[0, 1, 1] / root, dg[1, 0, 0] / root, g[0, 0], g[1, 1]

    q_s0, q_t0, e0, g0 = inner(u)
    d_s = (inner(_shift(u, [(0, h)]))[0] - inner(_shift(u, [(0, -h)]))[0]) / (2.0 * h)
    d_t = (inner(_shift(u, [(1, h)]))[1] - inner(_shift(u, [(1, -h)]))[1]) / (2.0 * h)
    return float(-(d_s + d_t) / (2.0 * math.sqrt(e0 * g0)))


# --------------------------------------------------------------------------
# sampling
# --------------------------------------------------------------------------

def sample_points(chart: ImmersionChart, per_axis, *,
                  margin_frac: float = 0.12,
                  max_points: int | None = None) -> Iterator[np.ndarray]:
    """Deterministic grid over the chart domain.

    ``per_axis`` is one resolution for every axis or a sequence of per-axis
    resolutions.  Periodic axes sample one full period, half-open; bounded
    axes shrink by ``margin_frac`` of their span on each side, which keeps
    FD stencils interior and away from the ill-conditioned metric near the
    polar ends of angle coordinates.  With ``max_points`` set, the full
    product grid is strided down to at most that many points.
    """
    if isinstance(per_axis, int):
        counts = [per_axis] * len(chart.domain)
    else:
        counts = [int(k) for k in per_axis]
        if len(counts) != len(chart.domain):
            raise ValueError("one resolution per chart axis required")
    if any(k < 1 for k in counts):
        raise ValueError("resolutions must be >= 1")
    axes = []
    for iv, k in zip(chart.domain, counts):
        if iv.periodic:
            axes.append(np.linspace(iv.lo, iv.hi, k, endpoint=False))
        elif k == 1:
            axes.append(np.array([0.5 * (iv.lo + iv.hi)]))
        else:
            m = margin_frac * iv.span
            axes.append(np.linspace(iv.lo + m, iv.hi - m, k))
    total = math.prod(counts)
    stride = 1
    if max_points is not None and total > max_points:
        stride = math.ceil(total / max_points)
    for idx, combo in enumerate(itertools.product(*axes)):
        if idx % stride == 0:
            yield np.array(combo)
