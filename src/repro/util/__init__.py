"""Shared utilities: seeded RNG streams, online statistics, rendering.

These helpers are deliberately dependency-light (numpy only) and are used by
every other subpackage.  Nothing in :mod:`repro.util` knows about grids,
pipelines or adaptation.
"""

from repro.util.rng import derive_rng, derive_seed, spawn_rngs
from repro.util.stats import (
    EWMA,
    OnlineStats,
    SlidingWindow,
    StatSummary,
    coefficient_of_variation,
    summarize,
)
from repro.util.tables import ascii_plot, format_float, render_series, render_table
from repro.util.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
    require,
)

__all__ = [
    "EWMA",
    "OnlineStats",
    "SlidingWindow",
    "StatSummary",
    "ascii_plot",
    "check_in_range",
    "check_non_negative",
    "check_positive",
    "check_probability",
    "coefficient_of_variation",
    "derive_rng",
    "derive_seed",
    "format_float",
    "render_series",
    "render_table",
    "require",
    "spawn_rngs",
    "summarize",
]
