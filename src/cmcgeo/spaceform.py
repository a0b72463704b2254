"""The three ambient space forms of curvature c in {-1, 0, +1}.

Flat space is plain R^{n+1}.  The unit sphere sits in R^{n+2} with the
Euclidean dot product.  Hyperbolic space is always the hyperboloid
{<x,x> = -1, x0 > 0} in Minkowski space R^{n+2}_1 with the metric
-dx0^2 + dx1^2 + ... ; no ball or half-space model is used anywhere, which
keeps normal vectors and fundamental forms on one code path for all three
ambients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SizeMismatch
from .numeric import _sum_sq

__all__ = ["AmbientSpace", "bilinear_form", "metric_weights", "validate_point",
           "validate_points"]


@dataclass(frozen=True)
class AmbientSpace:
    """Target space form: curvature ``c`` and hypersurface dimension ``n``."""

    c: int
    n: int

    def __post_init__(self):
        if self.c not in (-1, 0, 1):
            raise ValueError(f"curvature must be -1, 0 or +1, got {self.c}")
        if self.n < 2:
            raise ValueError(f"hypersurface dimension must be >= 2, got {self.n}")

    @property
    def ambient_dim(self) -> int:
        return self.n + 1 if self.c == 0 else self.n + 2


def metric_weights(space: AmbientSpace) -> np.ndarray:
    """Diagonal of the ambient bilinear form (-1 on the time axis if c=-1)."""
    w = np.ones(space.ambient_dim)
    if space.c == -1:
        w[0] = -1.0
    return w


def _check_size(space: AmbientSpace, v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (space.ambient_dim,):
        raise SizeMismatch(
            f"vector of length {v.shape} for ambient dimension {space.ambient_dim}")
    return v


def bilinear_form(space: AmbientSpace, v, w) -> float:
    """Ambient inner product: Euclidean dot for c in {0, 1}, Lorentzian
    -v0*w0 + sum v_i*w_i for c = -1."""
    v = _check_size(space, v)
    w = _check_size(space, w)
    return float(np.dot(metric_weights(space) * v, w))


def _on_model(space: AmbientSpace, cols, tol: float):
    """|<x,x> - c| <= tol, and x0 > 0 on the hyperboloid, for one point's
    floats or a batch's columns (``numeric._sum_sq``)."""
    q = _sum_sq(cols, space.c == -1)
    return (abs(q - space.c) <= tol) & ((space.c == 1) | (cols[0] > 0.0))


def validate_point(space: AmbientSpace, x, tol: float) -> bool:
    """Whether x lies on the model hypersurface of the space form.

    Flat space imposes nothing; the sphere needs |x|^2 = 1 within tol; the
    hyperboloid needs <x,x> = -1 within tol together with x0 > 0.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    x = _check_size(space, x)
    return space.c == 0 or _on_model(space, x.tolist(), tol)


def validate_points(space: AmbientSpace, pos, tol: float) -> np.ndarray:
    """``validate_point`` at each row of ``pos`` (shape (P, ambient_dim)) on
    the sphere or the hyperboloid, as a boolean mask equal to it at every
    row by the same arithmetic.  Flat space imposes nothing: refused here.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if space.c == 0:
        raise ValueError("flat space imposes nothing on a point")
    pos = np.asarray(pos, dtype=float)
    dim = space.ambient_dim
    if pos.ndim != 2 or pos.shape[1] != dim:
        raise SizeMismatch(f"points of shape {pos.shape} for ambient dimension {dim}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing or NaN row fails
        return _on_model(space, pos.T, tol)
