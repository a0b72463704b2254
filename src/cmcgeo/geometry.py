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

import functools
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (
    CmcError,
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
from .numeric import Jet2, _nullspace_batch, jacobi_eigh, nullspace_unit
from .spaceform import AmbientSpace, metric_weights, validate_point, validate_points

__all__ = [
    "DEFAULT_FD_STEP",
    "DEFAULT_SIMONS_STEP",
    "Interval",
    "ImmersionChart",
    "ShapeData",
    "ScalarField",
    "scalar_field",
    "shape_data_at",
    "shape_data_batch",
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
_MARGIN_FRAC = 0.12  # sample_points leaves this share of a bounded axis out at each end
_eye = functools.lru_cache(maxsize=None)(np.eye)


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

    ``eval_jets`` also receives P points at once, as an array of shape
    (n, P) whose rows are coordinates; ``Jet2.variable`` of a row is then a
    batched jet, so one jet expression serves both shapes as long as its
    constants are plain numbers.  A component may be a jet without a point
    axis (``Jet2.constant``); it is the same at every point.  A chart that
    cannot take (n, P), and raises TypeError or ValueError on it, still
    works: ``shape_data_batch`` then evaluates its points one at a time.
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

    def jets(self, u, *, batch: bool = False) -> list[Jet2]:
        """``eval_jets`` at one point of shape (n,), or with ``batch`` at the
        P points of an array (n, P); a non-finite coordinate raises DomainError."""
        u = np.asarray(u, dtype=float)
        if batch:
            if u.ndim != 2 or u.shape[0] != self.dim:
                raise SizeMismatch(f"chart points of shape {u.shape}, expected ({self.dim}, P)")
        elif u.shape != (self.dim,):
            raise SizeMismatch(f"chart point of shape {u.shape}, expected ({self.dim},)")
        if not np.isfinite(u).all():
            raise DomainError("chart point coordinates must be finite")
        jets = self.eval_jets(u)
        if len(jets) != self.space.ambient_dim:
            raise SizeMismatch("chart evaluation returned wrong number of components")
        return jets

    def position(self, u) -> np.ndarray:
        return np.array([j.value for j in self.jets(u)])


@dataclass(frozen=True)
class ShapeData:
    """Everything pointwise about the immersion at one chart point.

    ``position`` is the point's ambient coordinates.  ``metric_inv_sqrt``
    is g^(-1/2); its columns form a g-orthonormal tangent frame.
    ``principal_curvatures`` is computed on first access.
    """

    point: np.ndarray
    space: AmbientSpace
    position: np.ndarray
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
    scalar_curvature: float

    @functools.cached_property
    def principal_curvatures(self) -> np.ndarray:
        r = self.metric_inv_sqrt
        return jacobi_eigh(r @ self.second_fundamental @ r)[0]


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

def _point_arrays(chart: ImmersionChart, u) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values (m,), first partials (m, n) and second partials (m, n, n) of
    the chart's components at one point."""
    jets = chart.jets(u)
    return (np.array([j.value for j in jets]), np.array([j.grad for j in jets]),
            np.array([j.hess for j in jets]))


def shape_data_at(chart: ImmersionChart, u, *,
                  _arrays: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None) -> ShapeData:
    """Compute all fundamental quantities of the immersion at a chart point.

    The private ``_arrays`` gives the chart's values, first and second
    partials at ``u``, one point's rows of a batched chart evaluation
    (``_batched_arrays``); they then replace the chart evaluation and
    nothing else changes.  Only the residual's stencil passes them.
    """
    space = chart.space
    u = np.asarray(u, dtype=float)
    pos, d1, d2 = _point_arrays(chart, u) if _arrays is None else _arrays
    n = space.n
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

    a = np.einsum("m,mij->ij", w * normal, d2)
    shape_op = g_inv @ a
    mean_curv = float(shape_op.trace()) / n
    if mean_curv < -_MEAN_CONVEX_EPS:
        normal, a, shape_op, mean_curv = -normal, -a, -shape_op, -mean_curv

    traceless = shape_op - mean_curv * _eye(n)
    traceless_low = a - mean_curv * g
    phi_norm2 = float(np.einsum("ij,ji->", traceless, traceless))
    if phi_norm2 < -1e-12:
        raise DegenerateMetric(f"negative |Phi|^2 = {phi_norm2:.3e} at {u}")
    phi_norm2 = max(phi_norm2, 0.0)

    evals, vecs = jacobi_eigh(g)
    if evals[0] <= 0.0:  # eigh sorts ascending
        raise DegenerateMetric(f"metric not positive definite at {u}")
    g_inv_sqrt = (vecs * (1.0 / np.sqrt(evals))) @ vecs.T

    scalar = n * (n - 1) * (space.c + mean_curv**2) - phi_norm2

    return ShapeData(
        point=u.copy(),
        space=space,
        position=pos,
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
        scalar_curvature=scalar,
    )


def _batched_arrays(chart: ImmersionChart, u: np.ndarray) \
        -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Values (P, m), first partials (P, m, n) and second partials
    (P, m, n, n) of the chart's components at the P rows of ``u``, from
    one chart evaluation; a jet without a point axis is the same at each.

    None means: evaluate the points one at a time, in order, so that the
    first bad point raises what it raises alone.  That is the case when the
    chart evaluation raises a package error (it belongs to some point), or
    the TypeError or ValueError of a chart written for one point.  A single
    point is also left to the per-point path: numpy older than 2.x turns a
    one-element row into a float without error, so a chart written for one
    point would mix scalar and batched jets.
    """
    count = u.shape[0]
    if count == 1:
        return None
    try:
        jets = chart.jets(u.T, batch=True)
    except (TypeError, ValueError, CmcError):
        return None
    pos, d1, d2 = [], [], []
    for j in jets:
        if np.ndim(j.value):
            pos.append(j.value)
            d1.append(j.grad)
            d2.append(j.hess)
        else:
            pos.append(np.full(count, j.value))
            d1.append(np.broadcast_to(j.grad[:, None], (*j.grad.shape, count)))
            d2.append(np.broadcast_to(j.hess[..., None], (*j.hess.shape, count)))
    return (np.ascontiguousarray(np.array(pos).T),
            np.ascontiguousarray(np.moveaxis(np.array(d1), -1, 0)),
            np.ascontiguousarray(np.moveaxis(np.array(d2), -1, 0)))


def shape_data_batch(chart: ImmersionChart, points) -> list[ShapeData]:
    """``shape_data_at`` at each of ``points`` (a sequence of chart points,
    or an array of shape (P, n)), from one chart evaluation and one
    vectorized pass over the points.

    Every returned ShapeData equals ``shape_data_at`` at its point bit for
    bit, and the call raises what a loop of ``shape_data_at`` would raise
    first: a point that fails a check, or whose data is not finite, is
    recomputed by ``shape_data_at``, in order, after the pass.  Where
    ``_batched_arrays`` gives no batch (a single point, a chart written for
    one point, or a chart error), every point is evaluated by
    ``shape_data_at``.
    """
    space = chart.space
    n = space.n
    u = np.array(points, dtype=float)
    if u.ndim != 2 or u.shape[1] != n:
        raise SizeMismatch(f"chart points of shape {u.shape}, expected (P, {n})")
    arrays = _batched_arrays(chart, u)
    if arrays is None:
        return [shape_data_at(chart, p) for p in u]
    pos, d1, d2 = arrays
    w = metric_weights(space)

    # A point that fails a check of shape_data_at is recomputed by it.
    bad = ~(np.isfinite(pos).all(axis=1) & np.isfinite(d1).all(axis=(1, 2))
            & np.isfinite(d2).all(axis=(1, 2, 3)))
    if space.c != 0:
        bad |= ~validate_points(space, pos, 1e-10)

    g = np.einsum("m,pmi,pmj->pij", w, d1, d1)
    det_g = np.linalg.det(g)
    bad |= det_g <= _DET_FLOOR
    g[bad] = _eye(n)  # keeps inv and eigh away from singular matrices
    g_inv = np.linalg.inv(g)

    rows = d1.transpose(0, 2, 1)
    if space.c != 0:
        rows = np.concatenate([rows, pos[:, None, :]], axis=1)
    normal, rank_bad = _nullspace_batch(rows, "lorentzian" if space.c == -1 else "euclidean")
    bad |= rank_bad

    a = np.einsum("pm,pmij->pij", w * normal, d2)
    shape_op = g_inv @ a
    mean_curv = np.trace(shape_op, axis1=1, axis2=2) / n
    turn = mean_curv < -_MEAN_CONVEX_EPS
    normal = np.where(turn[:, None], -normal, normal)
    a = np.where(turn[:, None, None], -a, a)
    shape_op = np.where(turn[:, None, None], -shape_op, shape_op)
    mean_curv = np.where(turn, -mean_curv, mean_curv)

    traceless = shape_op - mean_curv[:, None, None] * _eye(n)
    traceless_low = a - mean_curv[:, None, None] * g
    phi_norm2 = np.einsum("pij,pji->p", traceless, traceless)
    bad |= phi_norm2 < -1e-12

    evals, vecs = jacobi_eigh(g)
    bad |= evals[:, 0] <= 0.0
    g_inv_sqrt = (vecs * (1.0 / np.sqrt(np.where(bad[:, None], 1.0, evals)))[:, None, :]) \
        @ vecs.transpose(0, 2, 1)

    # The scalars as Python floats, with the single-point arithmetic; the
    # records from the per-point rows, fields in declaration order.
    nn1, c = n * (n - 1), space.c
    root_det = np.sqrt(np.where(bad, 1.0, det_g)).tolist()
    phis = [max(p, 0.0) for p in phi_norm2.tolist()]
    out = [ShapeData(pt, space, x, gp, gi, gs, rd, nu, ap, sp, h, tp, tl, phi,
                     nn1 * (c + h**2) - phi)
           for pt, x, gp, gi, gs, rd, nu, ap, sp, h, tp, tl, phi in zip(
               u, pos, g, g_inv, g_inv_sqrt, root_det, normal, a, shape_op,
               mean_curv.tolist(), traceless, traceless_low, phis)]
    for i in np.flatnonzero(bad).tolist():
        out[i] = shape_data_at(chart, u[i])
    return out


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

def _check_step(h: float) -> None:
    """A finite-difference step must be finite and positive, and its square
    must not underflow (the second differences divide by h*h)."""
    if not (math.isfinite(h) and h > 0.0 and h * h >= sys.float_info.min):
        raise ValueError(f"FD step {h!r} must be finite, positive and square to a normal float")


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


class _Stencil:
    """ShapeData at the points of one central-difference stencil of step h:
    the centre u, u + h e_i and u - h e_i for each axis i, then, when
    ``mixed``, the corners u +- h e_i +- h e_j for each i < j.

    The step and the domain ball (radius 2h when ``mixed``, else h) are
    checked before any point is evaluated.  The listed points, in that
    order and without the centre when ``center`` is given, are then
    evaluated once each, in one ``shape_data_batch`` call.  With
    ``per_point`` the chart is still evaluated at all of them in one call,
    but each point's ShapeData is assembled by its own ``shape_data_at``
    call, in order; where ``_batched_arrays`` gives no batch, each of those
    calls evaluates the chart itself.
    """

    def __init__(self, chart: ImmersionChart, u, h: float, *, mixed: bool = False,
                 center: ShapeData | None = None, per_point: bool = False):
        _check_step(h)
        u = np.asarray(u, dtype=float)
        _require_ball(chart, u, 2.0 * h if mixed else h)
        n = u.shape[0]
        self.pairs = list(itertools.combinations(range(n), 2)) if mixed else []
        moves = [[]] if center is None else []  # the empty move is the centre
        moves += [[(i, d)] for i in range(n) for d in (h, -h)]
        moves += [[(i, di), (j, dj)] for i, j in self.pairs
                  for di, dj in ((h, h), (h, -h), (-h, h), (-h, -h))]
        listed = [_shift(u, m) for m in moves]
        if per_point:
            # Only simons_residual: perfbench/tests/test_perfbench.py::
            # test_counts_repeat_exactly_and_match_4n2_plus_1 pins 4n^2+1
            # public shape_data_at calls per residual.  ROADMAP item 1
            # redefines that count; this keyword and shape_data_at's
            # private _arrays go with it.
            arrays = _batched_arrays(chart, np.array(listed))
            evaluated = [shape_data_at(chart, p, _arrays=None if arrays is None
                                       else tuple(a[i] for a in arrays))
                         for i, p in enumerate(listed)]
        else:
            evaluated = shape_data_batch(chart, listed)
        self.u, self.h, self.n = u, h, n
        self.points = evaluated if center is None else [center, *evaluated]
        self.center = self.points[0]

    def d1(self, get: Callable[[ShapeData], float | np.ndarray]) -> np.ndarray:
        """Central first differences of ``get``, stacked as [d_0, ..., d_{n-1}]."""
        p, h = self.points, self.h
        return np.array([(get(p[2 * i + 1]) - get(p[2 * i + 2])) / (2.0 * h)
                         for i in range(self.n)])

    def d2(self, get: Callable[[ShapeData], float]) -> np.ndarray:
        """Hessian of a scalar ``get``; the stencil must be ``mixed``."""
        p, h, n = self.points, self.h, self.n
        out = np.empty((n, n))
        f0 = get(p[0])
        for i in range(n):
            out[i, i] = (get(p[2 * i + 1]) - 2.0 * f0 + get(p[2 * i + 2])) / (h * h)
        for k, (i, j) in zip(range(2 * n + 1, len(p), 4), self.pairs):
            fpp, fpm, fmp, fmm = (get(sd) for sd in p[k:k + 4])
            out[i, j] = out[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * h * h)
        return out


def laplace_beltrami(chart: ImmersionChart, field: ScalarField, u,
                     h: float = DEFAULT_FD_STEP, *,
                     _stencil: _Stencil | None = None) -> float:
    """Laplace-Beltrami of a pointwise field by central differences.

    Divergence form: sqrt(g)^-1 d_i(sqrt(g) g^{ij} d_j f), expanded so that
    every difference quotient acts on a jet-exact pointwise quantity; the
    truncation error is O(h^2).
    """
    st = _stencil if _stencil is not None else _Stencil(chart, u, h, mixed=True)
    sd0 = st.center
    grad_f = st.d1(field)
    hess_f = st.d2(field)
    div_t = st.d1(lambda sd: sd.sqrt_det_metric * sd.metric_inv)  # (k, i, j) = d_k T^{ij}
    t0 = sd0.sqrt_det_metric * sd0.metric_inv
    return float(
        (np.einsum("iij,j->", div_t, grad_f) + np.einsum("ij,ij->", t0, hess_f))
        / sd0.sqrt_det_metric)


def grad_norm(chart: ImmersionChart, field: ScalarField, u,
              h: float = DEFAULT_FD_STEP, *,
              _stencil: _Stencil | None = None) -> float:
    """Riemannian gradient norm |grad f| from central differences of f."""
    st = _stencil if _stencil is not None else _Stencil(chart, u, h)
    grad_f = st.d1(field)
    val = float(grad_f @ st.center.metric_inv @ grad_f)
    return math.sqrt(max(val, 0.0))


def christoffel_symbols(chart: ImmersionChart, u, h: float = DEFAULT_FD_STEP, *,
                        _stencil: _Stencil | None = None) -> np.ndarray:
    """Gamma[k, i, j] from central differences of the jet-exact metric."""
    st = _stencil if _stencil is not None else _Stencil(chart, u, h)
    dg = st.d1(lambda sd: sd.metric)
    combo = dg + dg.transpose(1, 0, 2) - dg.transpose(2, 1, 0)
    return 0.5 * np.einsum("kl,ijl->kij", st.center.metric_inv, combo)


def nabla_phi_norm2(chart: ImmersionChart, u, h: float = DEFAULT_FD_STEP, *,
                    _stencil: _Stencil | None = None) -> float:
    """Squared norm of the covariant derivative of the traceless tensor.

    Coordinate partials of phi_ij and the Christoffel symbols both come from
    central differences of jet-exact quantities; the full contraction with
    three inverse metrics is mathematically nonnegative, so tiny negative
    rounding is clamped to zero.
    """
    st = _stencil if _stencil is not None else _Stencil(chart, u, h)
    sd0 = st.center
    gamma = christoffel_symbols(chart, u, h, _stencil=st)
    dphi = st.d1(lambda sd: sd.traceless_lowered)
    phi = sd0.traceless_lowered
    cov = (dphi
           - np.einsum("lki,lj->kij", gamma, phi)
           - np.einsum("lkj,il->kij", gamma, phi))
    ginv = sd0.metric_inv
    val = float(np.einsum("ka,ib,jc,kij,abc->", ginv, ginv, ginv, cov, cov))
    return max(val, 0.0)


# Residual base step, larger than the generic one: the extrapolated pair
# (2h, h) must keep the rounding floor of the second differences (about
# 1e-13 / h^2 on the largest catalog |Phi|^2 values) below the 1e-5 budget,
# which pushes h up; the h^2 truncation it would normally buy is removed by
# the extrapolation.
DEFAULT_SIMONS_STEP = 3e-4


def simons_residual(chart: ImmersionChart, u, h: float = DEFAULT_SIMONS_STEP) -> float:
    """Residual of the constant-H Laplacian identity for |Phi|^2.

    Returns (1/2) Lap |Phi|^2 - [ |nabla Phi|^2 + n H tr(Phi^3)
    - |Phi|^2 (|Phi|^2 - n (c + H^2)) ]; magnitudes at or below 1e-5 certify
    the identity at the point.  The sampled mean curvature over the stencil
    must be constant to 1e-7.

    The residual is evaluated at steps h and 2h and Richardson extrapolated;
    near an unduloid neck the fourth profile derivatives are large enough
    that a plain O(h^2) value would blow the 1e-5 budget.  The two mixed
    stencils share their centre: 4n^2 + 1 points in all.
    """
    _check_step(h)
    _check_step(2.0 * h)
    u = np.asarray(u, dtype=float)
    _require_ball(chart, u, 4.0 * h)
    fine = _Stencil(chart, u, h, mixed=True, per_point=True)
    coarse = _Stencil(chart, u, 2.0 * h, mixed=True, center=fine.center, per_point=True)
    sd0 = fine.center
    n, c = chart.space.n, chart.space.c
    hmean = sd0.mean_curvature
    p = sd0.traceless_shape
    tr_cubed = float(np.trace(p @ p @ p))
    p2 = sd0.traceless_norm2
    cubic, quartic = n * hmean * tr_cubed, p2 * (p2 - n * (c + hmean**2))
    fine_res, coarse_res = (
        0.5 * laplace_beltrami(chart, scalar_field("phi_norm2"), u, st.h, _stencil=st)
        - (nabla_phi_norm2(chart, u, st.h, _stencil=st) + cubic - quartic)
        for st in (fine, coarse))
    res = (4.0 * fine_res - coarse_res) / 3.0
    hs = [sd.mean_curvature for sd in fine.points + coarse.points[1:]]
    spread = max(hs) - min(hs)
    if spread >= _H_SPREAD_TOL:
        raise NonConstantMeanCurvature(
            f"sampled mean curvature spread {spread:.3e} exceeds {_H_SPREAD_TOL}")
    return res


def _metric_only(space: AmbientSpace, d1: np.ndarray,
                 d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Metric and its exact partials from the first and second partials of
    the chart at one point, without the rest of ShapeData."""
    w = metric_weights(space)
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

    The five points u, u +- h e_0, u +- h e_1 are evaluated in one chart
    call and checked for orthogonality in that order.
    """
    if chart.space.n != 2:
        raise NotSurface("intrinsic Gauss curvature needs a 2-dimensional chart")
    _check_step(h)
    u = np.asarray(u, dtype=float)
    _require_ball(chart, u, h)
    pts = [u, _shift(u, [(0, h)]), _shift(u, [(0, -h)]), _shift(u, [(1, h)]), _shift(u, [(1, -h)])]
    arrays = _batched_arrays(chart, np.array(pts))

    def inner(i: int) -> tuple[float, float, float, float]:
        p = pts[i]
        _, d1, d2 = _point_arrays(chart, p) if arrays is None else (a[i] for a in arrays)
        g, dg = _metric_only(chart.space, d1, d2)
        if abs(g[0, 1]) > 1e-10:
            raise NonOrthogonalChart(f"g_12 = {g[0, 1]:.3e} at {p}")
        root = math.sqrt(g[0, 0] * g[1, 1])
        return dg[0, 1, 1] / root, dg[1, 0, 0] / root, g[0, 0], g[1, 1]

    q_s0, q_t0, e0, g0 = inner(0)
    d_s = (inner(1)[0] - inner(2)[0]) / (2.0 * h)
    d_t = (inner(3)[1] - inner(4)[1]) / (2.0 * h)
    return float(-(d_s + d_t) / (2.0 * math.sqrt(e0 * g0)))


# --------------------------------------------------------------------------
# sampling
# --------------------------------------------------------------------------

def sample_points(chart: ImmersionChart, per_axis, *,
                  max_points: int | None = None) -> Iterator[np.ndarray]:
    """Deterministic grid over the chart domain.

    ``per_axis`` is one resolution for every axis or a sequence of per-axis
    resolutions.  Periodic axes sample one full period, half-open; bounded
    axes shrink by ``_MARGIN_FRAC`` of their span on each side, which keeps
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
            m = _MARGIN_FRAC * iv.span
            axes.append(np.linspace(iv.lo + m, iv.hi - m, k))
    total = math.prod(counts)
    stride = 1
    if max_points is not None and total > max_points:
        stride = math.ceil(total / max_points)
    for idx, combo in enumerate(itertools.product(*axes)):
        if idx % stride == 0:
            yield np.array(combo)
