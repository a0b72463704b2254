"""Numerical geometry of constant-mean-curvature hypersurfaces in the three
simply connected space forms, with certification of the sharp scalar
curvature and traceless-tensor bounds on explicit model hypersurfaces.

The top level re-exports the library tour's names and the six model
families; everything else is imported from its submodule."""

from . import errors
from .bounds import classify
from .catalog import (
    CliffordTorus,
    EuclideanProduct,
    HyperbolicCylinder,
    SphereProduct,
    UmbilicalSphere,
    Unduloid,
    build_chart,
    parse_model,
)
from .geometry import shape_data_at, simons_residual

__version__ = "0.1.0"
