"""Character-variety computations: presentations, Riley polynomial,
A-polynomials, Newton polygons and slope extraction."""

from .apoly import (
    APoly,
    EliminationError,
    a_polynomial,
    longitude_data,
    split_components,
)
from .newton import (
    DEFAULT_CONVENTION,
    NewtonPolygon,
    SlopeConvention,
    convex_hull,
    edge_slopes,
    finite_edge_slopes_as_ints,
    newton_polygon,
)
from .presentation import TwoBridgePresentation, presentation
from .riley import PresentationError, riley_polynomial, scaled_word_matrix

__all__ = [
    "TwoBridgePresentation",
    "presentation",
    "riley_polynomial",
    "scaled_word_matrix",
    "PresentationError",
    "APoly",
    "a_polynomial",
    "split_components",
    "longitude_data",
    "EliminationError",
    "NewtonPolygon",
    "newton_polygon",
    "convex_hull",
    "edge_slopes",
    "finite_edge_slopes_as_ints",
    "SlopeConvention",
    "DEFAULT_CONVENTION",
]
