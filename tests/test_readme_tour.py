import numpy as np
import pytest


def test_readme_tour_runs_from_top_level_names():
    # Exactly the names and values of the README "Library quick tour".
    from cmcgeo import (HyperbolicCylinder, Unduloid, build_chart, classify,
                        shape_data_at, simons_residual)

    model = HyperbolicCylinder(n=3, k=2, r=1.0)
    sd = shape_data_at(build_chart(model), [0.4, 1.2, 0.9])
    assert sd.mean_curvature == pytest.approx(1.1785113, abs=1e-7)
    assert np.allclose(sd.principal_curvatures,
                       [0.70710678, 1.41421356, 1.41421356], atol=1e-8)
    assert sd.scalar_curvature == pytest.approx(2.0, abs=1e-12)

    assert classify(model).branch == "equality"

    chart = build_chart(Unduloid(H=1.0, B=0.5))
    assert abs(simons_residual(chart, [2.0, 0.5])) < 1e-5
