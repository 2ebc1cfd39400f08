"""Time-series substrate: traces, edge events, and window statistics."""

from .series import (
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    SECONDS_PER_MINUTE,
    BinaryTrace,
    PowerTrace,
    TraceError,
    constant,
    zeros_like,
)
from .events import Edge, detect_edges, pair_edges
from .stats import daily_profile, window_features

__all__ = [
    "SECONDS_PER_DAY",
    "SECONDS_PER_HOUR",
    "SECONDS_PER_MINUTE",
    "BinaryTrace",
    "PowerTrace",
    "TraceError",
    "constant",
    "zeros_like",
    "Edge",
    "detect_edges",
    "pair_edges",
    "daily_profile",
    "window_features",
]
