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


def validate_point(space: AmbientSpace, x, tol: float) -> bool:
    """Whether x lies on the model hypersurface of the space form.

    Flat space imposes nothing; the sphere needs |x|^2 = 1 within tol; the
    hyperboloid needs <x,x> = -1 within tol together with x0 > 0.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    x = _check_size(space, x)
    if space.c == 0:
        return True
    q = bilinear_form(space, x, x)
    if space.c == 1:
        return abs(q - 1.0) <= tol
    return abs(q + 1.0) <= tol and x[0] > 0.0


def validate_points(space: AmbientSpace, pos, tol: float) -> np.ndarray:
    """``validate_point`` at each row of ``pos`` (shape (P, ambient_dim)) on
    the sphere or the hyperboloid, as a boolean mask equal to it at every
    row.  Flat space imposes nothing and is refused here.

    <x,x> is summed for all rows in one array pass, in another order than
    ``validate_point``'s dot product, so the two sums may differ by up to
    about dim eps |x|^2.  A row is decided there when |<x,x> - c| is more
    than a factor 2 from tol and twice that difference is below tol/2; the
    other rows, non-finite ones included, take ``validate_point``.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if space.c == 0:
        raise ValueError("flat space imposes nothing on a point")
    pos = np.asarray(pos, dtype=float)
    dim = space.ambient_dim
    if pos.ndim != 2 or pos.shape[1] != dim:
        raise SizeMismatch(f"points of shape {pos.shape} for ambient dimension {dim}")
    with np.errstate(over="ignore", invalid="ignore"):  # such rows are unsure
        sq = pos * pos
        dev = np.abs(sq @ metric_weights(space) - space.c)
        slack = 2.0 * dim * np.finfo(float).eps * sq.sum(axis=1)
    near = dev < 0.5 * tol
    unsure = ~(near | (dev > 2.0 * tol)) | ~(slack < 0.5 * tol)
    on = near & (pos[:, 0] > 0.0) if space.c == -1 else near
    for i in np.flatnonzero(unsure).tolist():
        on[i] = validate_point(space, pos[i], tol)
    return on
