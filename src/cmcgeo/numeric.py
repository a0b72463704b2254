"""Numerical kernel: second-order jets, small symmetric eigenproblems,
adaptive quadrature, and form-orthogonal unit vectors.

Jets propagate value, gradient and Hessian exactly through elementary
operations, so first and second fundamental forms downstream carry no
truncation error beyond machine rounding.  Anything of third differential
order is obtained elsewhere by finite differences of jet-exact quantities.

Eigenproblems go to LAPACK (``np.linalg.eigh``); the form-orthogonal unit
normal is the generalized cross product (cofactor vector) of the
form-weighted rows, whose sign the determinant rule fixes by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, NonConvergence, RankDeficient

__all__ = [
    "Jet2",
    "jacobi_eigh",
    "adaptive_quadrature",
    "nullspace_unit",
]


# --------------------------------------------------------------------------
# second-order jets
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Jet2:
    """Truncated second-order Taylor data of a scalar quantity.

    ``value`` is the quantity itself, ``grad`` its gradient with respect to
    the chart variables and ``hess`` the (exactly symmetric) Hessian.
    Arithmetic combines jets by the exact product/chain rules; the Hessian
    stays bit-symmetric because every update is built from symmetric terms.
    """

    value: float
    grad: np.ndarray
    hess: np.ndarray

    @staticmethod
    def constant(value: float, nvars: int) -> "Jet2":
        return Jet2(float(value), np.zeros(nvars), np.zeros((nvars, nvars)))

    @staticmethod
    def variable(value: float, index: int, nvars: int) -> "Jet2":
        g = np.zeros(nvars)
        g[index] = 1.0
        return Jet2(float(value), g, np.zeros((nvars, nvars)))

    @property
    def nvars(self) -> int:
        return self.grad.shape[0]

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other) -> "Jet2":
        if isinstance(other, Jet2):
            return other
        return Jet2.constant(float(other), self.nvars)

    def __add__(self, other) -> "Jet2":
        o = self._coerce(other)
        return Jet2(self.value + o.value, self.grad + o.grad, self.hess + o.hess)

    __radd__ = __add__

    def __neg__(self) -> "Jet2":
        return Jet2(-self.value, -self.grad, -self.hess)

    def __sub__(self, other) -> "Jet2":
        o = self._coerce(other)
        return Jet2(self.value - o.value, self.grad - o.grad, self.hess - o.hess)

    def __rsub__(self, other) -> "Jet2":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other) -> "Jet2":
        o = self._coerce(other)
        cross = np.outer(self.grad, o.grad)
        return Jet2(
            self.value * o.value,
            self.value * o.grad + o.value * self.grad,
            self.value * o.hess + o.value * self.hess + cross + cross.T,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet2":
        return self * self._coerce(other)._reciprocal()

    def __rtruediv__(self, other) -> "Jet2":
        return self._coerce(other) * self._reciprocal()

    # -- elementary functions -----------------------------------------------

    def _chain(self, f0: float, f1: float, f2: float) -> "Jet2":
        """Jet of f(self) given f, f', f'' at self.value."""
        outer = np.outer(self.grad, self.grad)
        return Jet2(f0, f1 * self.grad, f1 * self.hess + f2 * outer)

    def _reciprocal(self) -> "Jet2":
        v = self.value
        if v == 0.0:
            raise DomainError("division by a jet with zero value")
        return self._chain(1.0 / v, -1.0 / v**2, 2.0 / v**3)

    def sqrt(self) -> "Jet2":
        v = self.value
        if v <= 0.0:
            raise DomainError(f"sqrt of a jet with non-positive value {v}")
        r = math.sqrt(v)
        return self._chain(r, 0.5 / r, -0.25 / (v * r))

    def sin(self) -> "Jet2":
        s, c = math.sin(self.value), math.cos(self.value)
        return self._chain(s, c, -s)

    def cos(self) -> "Jet2":
        s, c = math.sin(self.value), math.cos(self.value)
        return self._chain(c, -s, -c)

    def sinh(self) -> "Jet2":
        s, c = math.sinh(self.value), math.cosh(self.value)
        return self._chain(s, c, s)

    def cosh(self) -> "Jet2":
        s, c = math.sinh(self.value), math.cosh(self.value)
        return self._chain(c, s, c)

    def pow_int(self, exponent: int) -> "Jet2":
        m = int(exponent)
        v = self.value
        if m < 0 and v == 0.0:
            raise DomainError("negative integer power of a jet with zero value")
        f1 = m * v ** (m - 1) if m != 0 else 0.0
        f2 = m * (m - 1) * v ** (m - 2) if m not in (0, 1) else 0.0
        return self._chain(v**m, f1, f2)


# --------------------------------------------------------------------------
# small symmetric matrices
# --------------------------------------------------------------------------

def jacobi_eigh(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a small symmetric matrix,
    by LAPACK through ``np.linalg.eigh``."""
    return np.linalg.eigh(np.asarray(matrix, dtype=float))


# --------------------------------------------------------------------------
# adaptive quadrature
# --------------------------------------------------------------------------

def _simpson(a: float, b: float, fa: float, fm: float, fb: float) -> float:
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _eval(f: Callable[[float], float], x: float) -> float:
    y = float(f(x))
    if not math.isfinite(y):
        raise DomainError(f"integrand not finite at {x}")
    return y


def adaptive_quadrature(f: Callable[[float], float], a: float, b: float,
                        tol: float, max_subdivisions: int = 1_000_000) -> float:
    """Integrate f over [a, b] by adaptive Simpson bisection.

    An interval is accepted when the Richardson error estimate is below its
    tolerance share; otherwise it splits, each half inheriting half the
    tolerance.  Raises NonConvergence once ``max_subdivisions`` splits have
    been spent (rough integrands), DomainError on non-finite values.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if a > b:
        raise ValueError("requires a <= b")
    if a == b:
        return 0.0

    fa, fb = _eval(f, a), _eval(f, b)
    m = 0.5 * (a + b)
    fm = _eval(f, m)
    stack = [(a, b, fa, fm, fb, _simpson(a, b, fa, fm, fb), tol)]
    total = 0.0
    splits = 0
    while stack:
        x0, x1, f0, fmid, f1, s_whole, t = stack.pop()
        xm = 0.5 * (x0 + x1)
        xl, xr = 0.5 * (x0 + xm), 0.5 * (xm + x1)
        fl, fr = _eval(f, xl), _eval(f, xr)
        s_left = _simpson(x0, xm, f0, fl, fmid)
        s_right = _simpson(xm, x1, fmid, fr, f1)
        err = s_left + s_right - s_whole
        if abs(err) <= 15.0 * t:
            total += s_left + s_right + err / 15.0
        else:
            splits += 1
            if splits > max_subdivisions:
                raise NonConvergence(
                    f"no convergence after {max_subdivisions} subdivisions")
            half = 0.5 * t
            stack.append((x0, xm, f0, fl, fmid, s_left, half))
            stack.append((xm, x1, fmid, fr, f1, s_right, half))
    return total


# --------------------------------------------------------------------------
# form-orthogonal unit vectors
# --------------------------------------------------------------------------

_RANK_RTOL = 1e-10


def _form_weights(dim: int, form: str) -> np.ndarray:
    w = np.ones(dim)
    if form == "lorentzian":
        w[0] = -1.0
    elif form != "euclidean":
        raise ValueError(f"unknown bilinear form {form!r}")
    return w


def nullspace_unit(rows: Sequence[np.ndarray], form: str = "euclidean") -> np.ndarray:
    """Unit vector orthogonal, under the given bilinear form, to every row.

    There must be exactly dim - 1 rows, spanning a codimension-one subspace;
    otherwise RankDeficient is raised (the cofactor vector below must exceed
    1e-10 of its Hadamard bound, the product of the scaled row norms).  The
    result v has form(v, v) = +1 and its sign makes the determinant of
    [rows; v] positive, computed with the time coordinate negated in the
    Lorentzian case.

    v is the generalized cross product of the form-weighted rows a_i, each
    W r_i divided by its largest entry: the signed minors c_j with
    det([a_1; ...; a_{d-1}; x]) = c . x for every x.  Hence form(r_i, c) = 0
    (a determinant with a repeated row), and the sign rule holds by
    construction: det([rows W; v W]) is a positive multiple of
    form(c, v) = sqrt(form(c, c)).
    """
    mat = np.array(rows, dtype=float)
    if mat.ndim != 2:
        raise ValueError("rows must form a 2-d array")
    nrows, dim = mat.shape
    weights = _form_weights(dim, form)
    if nrows != dim - 1:
        raise RankDeficient(f"{nrows} rows in dimension {dim}, expected {dim - 1}")

    # Each row scaled to largest entry 1: a positive scale keeps direction
    # and sign, and it halves the minors' rounding, which the identity
    # residual's second differences amplify.
    peak = np.abs(mat).max(axis=1, keepdims=True)
    a = mat * weights / np.where(peak > 0.0, peak, 1.0)
    k = np.arange(dim - 1)
    keep = k + (k >= np.arange(dim)[:, None])     # row j: every column but j
    minors = np.linalg.det(a[:, keep].transpose(1, 0, 2))
    v = minors * (-1.0) ** (nrows + np.arange(dim))
    if np.linalg.norm(v) <= _RANK_RTOL * np.prod(np.linalg.norm(a, axis=1)):
        raise RankDeficient("rows do not span a codimension-one subspace")

    norm2 = float(np.sum(weights * v * v))
    if norm2 <= 0.0:
        raise DomainError("orthogonal complement is not spacelike")
    return v / math.sqrt(norm2)
