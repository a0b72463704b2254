import dataclasses

import numpy as np
import pytest


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
