"""Toolkit for sampling, comparing, reconstructing, and mapping elections."""

from .core import (
    Election,
    FrequencyMatrix,
    PositionMatrix,
    frequency_from_position,
    frequency_matrix,
    position_matrix,
)
from .metric import (
    DistanceRecord,
    cross_distances,
    distance_matrix,
    normalization_constant,
    normalized,
    positionwise,
)
from .recovery import (
    election_from_frequency_matrix,
    election_from_position_matrix,
    round_position_matrix,
)
from .compass import (
    compass_matrix,
    convex_combination,
    full_compass,
    normalized_limit,
    path_points,
)
from .cultures import (
    CultureSpec,
    FitResult,
    fit_mallows,
    relphi_to_phi,
    sample,
    sample_mallows_norm,
)
from .embed import MapLayout, embed_distances, render_svg, write_coordinates

__version__ = "0.1.0"

__all__ = [
    "Election",
    "FrequencyMatrix",
    "PositionMatrix",
    "frequency_from_position",
    "frequency_matrix",
    "position_matrix",
    "DistanceRecord",
    "cross_distances",
    "distance_matrix",
    "normalization_constant",
    "normalized",
    "positionwise",
    "election_from_frequency_matrix",
    "election_from_position_matrix",
    "round_position_matrix",
    "compass_matrix",
    "convex_combination",
    "full_compass",
    "normalized_limit",
    "path_points",
    "CultureSpec",
    "FitResult",
    "fit_mallows",
    "relphi_to_phi",
    "sample",
    "sample_mallows_norm",
    "MapLayout",
    "embed_distances",
    "render_svg",
    "write_coordinates",
    "__version__",
]
