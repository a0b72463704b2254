import dataclasses

import pytest


@pytest.fixture
def counting_chart():
    """wrap(chart) gives a copy of the chart and the list that each of its
    evaluations appends its point to."""

    def wrap(chart):
        points = []

        def ev(u):
            points.append(tuple(u.tolist()))
            return chart.eval_jets(u)

        return dataclasses.replace(chart, eval_jets=ev), points

    return wrap
