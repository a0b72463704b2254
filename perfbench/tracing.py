"""Span tracer built from outside the package.

``Tracer.install`` replaces the public functions of each cmcgeo module with
wrappers that record a span (name, start, end, parent, job, tag) in memory,
and replaces the ``Jet2`` operators and the ``spaceform`` helpers with
wrappers that only count calls.  ``from ... import`` binds a name in the
importing module, so each name is patched where it is looked up.
``Tracer.uninstall`` puts every original back.  ``layer_metrics`` turns the
recorded spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable

from cmcgeo import bounds, catalog, cli, geometry, maxprinciple, numeric, spaceform
from cmcgeo.errors import CmcError
from cmcgeo.numeric import Jet2


def _chart_dim(args) -> int:
    return args[0].space.n


def _is_unduloid_chart(args) -> bool:
    return args[0].name.startswith("unduloid")


def _chart_point(args) -> tuple:
    return (id(args[0]), tuple(float(v) for v in args[1]))


# (owner, attribute, span name, tag function).  Several owners can map to
# one span name: the defining module and every module that imported it.
SPANNED: list[tuple[object, str, str, Callable | None]] = [
    (cli, "main", "cli.main", None),
    (catalog, "build_chart", "catalog.build_chart", None),
    (geometry.ImmersionChart, "jets", "catalog.chart_jets", _is_unduloid_chart),
    (catalog, "closed_form_invariants", "catalog.closed_form_invariants", None),
    (bounds, "closed_form_invariants", "catalog.closed_form_invariants", None),
    (catalog, "unduloid_profile", "catalog.unduloid_profile", None),
    (geometry, "shape_data_at", "geometry.shape_data_at", _chart_point),
    (geometry, "simons_residual", "geometry.simons_residual", _chart_dim),
    (geometry, "laplace_beltrami", "geometry.laplace_beltrami", None),
    (maxprinciple, "laplace_beltrami", "geometry.laplace_beltrami", None),
    (geometry, "grad_norm", "geometry.grad_norm", None),
    (maxprinciple, "grad_norm", "geometry.grad_norm", None),
    (geometry, "nabla_phi_norm2", "geometry.nabla_phi_norm2", None),
    (geometry, "intrinsic_gauss_n2", "geometry.intrinsic_gauss_n2", None),
    (geometry, "ricci_from_curvature", "geometry.contractions", None),
    (geometry, "scalar_from_curvature", "geometry.contractions", None),
    (geometry, "nullspace_unit", "numeric.nullspace_unit", None),
    (numeric, "nullspace_unit", "numeric.nullspace_unit", None),
    (geometry, "jacobi_eigh", "numeric.jacobi_eigh", None),
    (numeric, "jacobi_eigh", "numeric.jacobi_eigh", None),
    (catalog, "adaptive_quadrature", "numeric.adaptive_quadrature", None),
    (maxprinciple, "adaptive_quadrature", "numeric.adaptive_quadrature", None),
    (numeric, "adaptive_quadrature", "numeric.adaptive_quadrature", None),
    (bounds, "classify", "bounds.classify", None),
    (bounds, "okumura_check", "bounds.okumura_check", None),
    (maxprinciple, "weak_oy_search", "maxprinciple.weak_oy_search", None),
    (maxprinciple, "verify_oy_points", "maxprinciple.verify_oy_points", None),
    (maxprinciple, "decay_admissible", "maxprinciple.decay_admissible", None),
]

JET_OPS = ["__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__",
           "__rmul__", "__truediv__", "__rtruediv__", "sqrt", "sin", "cos",
           "sinh", "cosh", "pow_int"]

# Counted, not timed: each call is far shorter than a span's own cost.
COUNTED: list[tuple[object, str, str]] = (
    [(Jet2, op, "numeric.jet_ops") for op in JET_OPS]
    + [(spaceform, f, "spaceform.calls")
       for f in ("metric_weights", "validate_point", "bilinear_form")]
    + [(geometry, "metric_weights", "spaceform.calls"),
       (geometry, "validate_point", "spaceform.calls"),
       (cli, "bilinear_form", "spaceform.calls")]
)

MODULES = ("cli", "catalog", "geometry", "numeric", "bounds", "maxprinciple")

# Span fields, in order: name, start, end, parent index (-1 at the root),
# job id, tag.
NAME, START, END, PARENT, JOB, TAG = range(6)


class Tracer:
    """Holds the spans and counts of one traced region in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.job = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, tag in SPANNED:
            self._patch(owner, attr, self._span_wrapper(getattr(owner, attr), name, tag))
        for owner, attr, name in COUNTED:
            self._patch(owner, attr, self._count_wrapper(getattr(owner, attr), name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, attr: str, wrapper) -> None:
        # Read from the class __dict__ so that restoring puts back the exact
        # object (a plain function, not a bound or unbound view of it).
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, fn, name: str, tag):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        prefix = name.split(".")[0] + "."

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.job,
                    tag(args) if tag is not None else None]
            spans.append(span)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except CmcError:
                # Count the error once per module: at the outermost span of
                # that module it leaves.
                if not any(spans[i][NAME].startswith(prefix) for i in stack[:-1]):
                    self.errors[prefix[:-1]] += 1
                raise
            finally:
                stack.pop()
                span[END] = clock()

        return wrapper

    def _count_wrapper(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent,job\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[NAME]},{s[START]!r},{s[END]!r},{s[PARENT]},{s[JOB]}\n")


# ---------------------------------------------------------------------------
# metrics from spans
# ---------------------------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (children are merged first, so overlaps count once)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        run_lo = run_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s[START]), min(hi, s[END])
            if hi <= lo:
                continue
            if run_hi is None or lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = lo, hi
            else:
                run_hi = max(run_hi, hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append((s[END] - s[START]) - covered)
    return out


def _nearest(spans: list[list], name: str) -> list[int]:
    """Index of each span's nearest ancestor (itself included) named
    ``name``, or -1.  Parents precede children in the list."""
    near = []
    for i, s in enumerate(spans):
        if s[NAME] == name:
            near.append(i)
        elif s[PARENT] >= 0:
            near.append(near[s[PARENT]])
        else:
            near.append(-1)
    return near


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced region: ``<name>.calls``, ``.s``
    (inclusive time, a recursive span counted once) and ``.self_s`` for every
    span name, plus counts and ratios."""
    spans = tracer.spans
    selfs = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for _, _, name, _ in SPANNED:
        out[f"{name}.calls"] = 0
        out[f"{name}.s"] = 0.0
        out[f"{name}.self_s"] = 0.0
    for i, s in enumerate(spans):
        name = s[NAME]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += selfs[i]
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != name:
            p = spans[p][PARENT]
        if p < 0:
            out[f"{name}.s"] += s[END] - s[START]

    for _, _, name in COUNTED:
        out[name] = tracer.counts.get(name, 0)
    for module in MODULES:
        out[f"{module}.errors"] = tracer.errors.get(module, 0)

    # Shape evaluations per residual, overall and per chart dimension.
    in_residual = _nearest(spans, "geometry.simons_residual")
    shape_in: dict[int, int] = defaultdict(int)
    residuals: dict[int, int] = defaultdict(int)
    points = set()
    shape_calls = 0
    for i, s in enumerate(spans):
        if s[NAME] == "geometry.simons_residual":
            residuals[s[TAG]] += 1
        elif s[NAME] == "geometry.shape_data_at":
            shape_calls += 1
            points.add((s[JOB], s[TAG]))
            r = in_residual[i]
            if r >= 0:
                shape_in[spans[r][TAG]] += 1
    out["geometry.shape_evals_per_residual"] = _ratio(
        sum(shape_in.values()), sum(residuals.values()))
    for n in (2, 3, 4, 5):
        out[f"geometry.shape_evals_per_residual.n{n}"] = _ratio(shape_in[n], residuals[n])
    out["geometry.shape_evals_per_point"] = _ratio(shape_calls, len(points))

    # Quadrature calls per unduloid chart evaluation: the x_cache miss ratio.
    in_jets = _nearest(spans, "catalog.chart_jets")
    unduloid_evals = sum(1 for s in spans
                        if s[NAME] == "catalog.chart_jets" and s[TAG])
    quad_in_jets = sum(1 for i, s in enumerate(spans)
                       if s[NAME] == "numeric.adaptive_quadrature" and in_jets[i] >= 0)
    out["catalog.quad_per_chart_eval"] = _ratio(quad_in_jets, unduloid_evals)
    return dict(out)
