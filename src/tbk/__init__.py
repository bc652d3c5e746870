"""Exact boundary-slope and character-variety calculator for two-bridge
knots: admissible continued-fraction expansions, branched-surface slopes
and symmetries, ideal-point counts, A-polynomial Newton polygons, and
valuation diagnostics."""

__version__ = "0.1.0"

from .confrac import (
    ContinuedFraction,
    all_even_expansion,
    all_positive_expansion,
    enumerate_admissible,
    evaluate,
    evaluate_with_tail,
    expand_repetition,
    negate,
)
from .idealpoints import (
    IdealPointClass,
    detected_slopes_with_counts,
    ideal_point_classes,
    ideal_point_count,
)
from .knots import KnotId, double_twist_to_two_bridge, knot_equivalent
from .slopes import Slope
from .surfaces import (
    BranchedSurface,
    SlopeDatum,
    alternate_signs,
    boundary_slope,
    flip,
    is_symmetric,
    slope_report,
)

__all__ = [
    "__version__",
    "ContinuedFraction",
    "evaluate",
    "evaluate_with_tail",
    "negate",
    "expand_repetition",
    "enumerate_admissible",
    "all_even_expansion",
    "all_positive_expansion",
    "BranchedSurface",
    "SlopeDatum",
    "alternate_signs",
    "boundary_slope",
    "flip",
    "is_symmetric",
    "slope_report",
    "IdealPointClass",
    "ideal_point_classes",
    "ideal_point_count",
    "detected_slopes_with_counts",
    "KnotId",
    "knot_equivalent",
    "double_twist_to_two_bridge",
    "Slope",
    "PaperReport",
    "run_paper_suite",
]


def __getattr__(name):
    """PaperReport and run_paper_suite, from tbk.regression, which loads on
    first use rather than with the package (PEP 562)."""
    if name in ("PaperReport", "run_paper_suite"):
        from . import regression

        return getattr(regression, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
