"""Analytical models: channel asymmetry (Fig. 1) and allocation fixed points."""

from .bounds import (
    expected_alloc_fixed_point,
    expected_rate_from_alloc,
    saturated_fixed_point,
)
from .channel import (
    CABLE_MODEM,
    DIALUP_MODEM,
    MEDIA_EXAMPLES,
    TECHNOLOGIES,
    LinkTechnology,
    MediaExample,
    aggregate_download_seconds,
    asymmetry_ratio,
    figure1_series,
    peers_needed,
    transmission_seconds,
)
from .dynamics import (
    MeanFieldTrajectory,
    mean_field_trajectory,
    predicted_convergence_slot,
)

__all__ = [
    "LinkTechnology",
    "MediaExample",
    "DIALUP_MODEM",
    "CABLE_MODEM",
    "TECHNOLOGIES",
    "MEDIA_EXAMPLES",
    "transmission_seconds",
    "figure1_series",
    "asymmetry_ratio",
    "peers_needed",
    "aggregate_download_seconds",
    "saturated_fixed_point",
    "expected_alloc_fixed_point",
    "expected_rate_from_alloc",
    "MeanFieldTrajectory",
    "mean_field_trajectory",
    "predicted_convergence_slot",
]
