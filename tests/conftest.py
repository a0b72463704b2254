import copy
import dataclasses
import itertools

import numpy as np
import pytest

from cmcgeo.catalog import EuclideanProduct, HyperbolicCylinder, SphereProduct, Unduloid, build_chart
from cmcgeo.geometry import ImmersionChart, Interval, _Stencil, shape_data_at
from cmcgeo.numeric import Jet2
from cmcgeo.spaceform import AmbientSpace


@pytest.fixture
def counting_chart():
    """wrap(chart) gives a copy of the chart and the list that each of its
    evaluations appends its point to: one entry per point, also when one
    evaluation takes P points as an (n, P) array."""

    def wrap(chart):
        points = []

        def ev(u):
            points.extend(map(tuple, np.reshape(u, (len(u), -1)).T.tolist()))
            return chart.eval_jets(u)

        return dataclasses.replace(chart, eval_jets=ev), points

    return wrap


def _one_point_only_chart():
    """A graph chart that raises TypeError on (n, P) input, as a chart
    written for one point may; batches of it fall back to shape_data_at."""

    def ev(u):
        if np.ndim(u) != 1:
            raise TypeError("this chart takes one point")
        x, y = Jet2.variable(u[0], 0, 2), Jet2.variable(u[1], 1, 2)
        return [x, y, 0.5 * x * x - 0.25 * y * y + 0.1 * (x * y).sin()]

    dom = (Interval(-1.0, 1.0), Interval(-1.0, 1.0))
    return ImmersionChart(AmbientSpace(0, 2), dom, ev, name="one-point-only")


@pytest.fixture(params=[Unduloid(1.0, 0.5), EuclideanProduct(2, 1, 0.7), SphereProduct(3, 0.9),
                        HyperbolicCylinder(3, 1, 0.5), None],
                ids=["unduloid", "euclidean-product-n2", "sphere-product-n3",
                     "hyperbolic-cylinder-n3", "one-point-only"])
def stencil_chart(request):
    """Charts for the batched-stencil tests: c = 0, 1 and -1, n = 2 and 3,
    and one chart that takes one point only."""
    return _one_point_only_chart() if request.param is None else build_chart(request.param)


@pytest.fixture
def looped_stencil():
    """looped(chart, u, h, mixed) gives a copy of the FD stencil
    ``_Stencil(chart, u, h, mixed=mixed)`` whose ShapeData come from a loop
    of shape_data_at over its points: the per-point reference for the
    batched stencil.  The points are listed here in the stencil's order:
    the centre, u + h e_i and u - h e_i per axis, then, when mixed, the
    corners (+h, +h), (+h, -h), (-h, +h), (-h, -h) of each axis pair i < j."""

    def looped(chart, u, h, mixed):
        u = np.asarray(u, dtype=float)
        n = len(u)
        moves = [[]] + [[(i, d)] for i in range(n) for d in (h, -h)]
        if mixed:
            moves += [[(i, di), (j, dj)] for i, j in itertools.combinations(range(n), 2)
                      for di in (h, -h) for dj in (h, -h)]
        listed = []
        for m in moves:
            v = u.copy()
            for i, d in m:
                v[i] += d
            listed.append(v)
        st = copy.copy(_Stencil(chart, u, h, mixed=mixed))
        assert [sd.point.tobytes() for sd in st.points] == [v.tobytes() for v in listed]
        st.points = [shape_data_at(chart, v) for v in listed]
        st.center = st.points[0]
        return st

    return looped
