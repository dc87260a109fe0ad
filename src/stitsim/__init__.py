"""Continuous-time cell-division tessellations in convex planar windows.

Simulates division processes driven by a selection rule (per-cell division
rate) and a division rule (law of the dividing line), and provides the
statistical machinery to test whether a rule pair is spatially consistent.
The shared-measure pairing (rate = hitting mass, line law = restricted
measure, one common translation-invariant line measure) is the STIT process.
"""

from .engine import CroppedTessellation, ProcessState, crop, new_process
from .errors import (
    ConfigError,
    ContainmentViolation,
    DegenerateSplit,
    InsufficientSamples,
    InvalidPolygon,
    ReplicateAborted,
    StitsimError,
)
from .geometry import Hyperplane, Polygon, Segment, rectangle, regular_ngon
from .measures import Atoms, HyperplaneMeasure, Isotropic
from .rules import (
    HittingMeasure,
    IntrinsicVolume,
    PointDriven,
    RestrictedMeasure,
    RulePair,
    VertexCount,
    stit_pair,
)

__all__ = [
    "Atoms",
    "ConfigError",
    "ContainmentViolation",
    "CroppedTessellation",
    "DegenerateSplit",
    "HittingMeasure",
    "Hyperplane",
    "HyperplaneMeasure",
    "InsufficientSamples",
    "IntrinsicVolume",
    "InvalidPolygon",
    "Isotropic",
    "PointDriven",
    "Polygon",
    "ProcessState",
    "RestrictedMeasure",
    "ReplicateAborted",
    "RulePair",
    "Segment",
    "StitsimError",
    "VertexCount",
    "crop",
    "new_process",
    "rectangle",
    "regular_ngon",
    "stit_pair",
]

__version__ = "0.1.0"
