"""Newton polygons of (L, M) polynomials and their edge slopes."""

from __future__ import annotations

from dataclasses import dataclass

from ..exactnum import MultiPoly
from ..slopes import Slope


@dataclass(frozen=True)
class NewtonPolygon:
    """Corners of the exponent hull, counterclockwise, starting at the
    lexicographically smallest corner.  Collinear support points are not
    corners.  A single point or a segment is allowed (0 or 1 edges)."""

    corners: tuple

    def edges(self):
        if len(self.corners) < 2:
            return []
        pts = list(self.corners) + [self.corners[0]]
        out = [(a, b) for a, b in zip(pts, pts[1:])]
        if len(self.corners) == 2:
            return out[:1]
        return out


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points):
    """Monotone-chain hull; strict turns only, so no collinear corners."""
    pts = sorted(set(points))
    if len(pts) <= 1:
        return pts
    lower = []
    for p in pts:
        while len(lower) > 1 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) > 1 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _support_LM(poly: MultiPoly):
    pts = []
    for exps, _ in poly.terms.items():
        e = dict(zip(poly.variables, exps))
        extra = [v for v in poly.variables
                 if v not in ("L", "M") and e.get(v, 0)]
        if extra:
            raise ValueError(f"polygon expects a polynomial in (L, M); saw {extra}")
        pts.append((e.get("L", 0), e.get("M", 0)))
    return pts


def newton_polygon(poly) -> NewtonPolygon:
    """Hull of the (L-exponent, M-exponent) support, counterclockwise."""
    if hasattr(poly, "poly"):  # APoly
        poly = poly.poly
    if poly.is_zero():
        raise ValueError("Newton polygon of the zero polynomial")
    hull = convex_hull(_support_LM(poly))
    if len(hull) > 2:
        start = hull.index(min(hull))
        hull = hull[start:] + hull[:start]
    return NewtonPolygon(tuple(hull))


@dataclass(frozen=True)
class SlopeConvention:
    """How polygon edge vectors are read as boundary slopes.

    axis='lm' reads an edge as dM/dL, 'ml' transposes; negate flips the
    sign; half divides by two.  The default (lm, no negation, no halving)
    is pinned by the figure-eight slopes +-4 and kept fixed everywhere.
    """

    axis: str = "lm"
    negate: bool = False
    half: bool = False

    def __post_init__(self):
        if self.axis not in ("lm", "ml"):
            raise ValueError("axis must be 'lm' or 'ml'")


DEFAULT_CONVENTION = SlopeConvention()


def edge_slopes(polygon: NewtonPolygon, convention=DEFAULT_CONVENTION) -> set:
    """Set of slopes dM/dL over the polygon edges; vertical edges are 1/0."""
    slopes = set()
    for (l0, m0), (l1, m1) in polygon.edges():
        dl, dm = l1 - l0, m1 - m0
        num, den = (dm, dl) if convention.axis == "lm" else (dl, dm)
        if den == 0:
            slopes.add(Slope.INFINITY)
            continue
        s = Slope(num, den)
        if convention.negate:
            s = -s
        if convention.half:
            s = s.half()
        slopes.add(s)
    return slopes


def finite_edge_slopes_as_ints(polygon, convention=DEFAULT_CONVENTION):
    """Convenience: integer slope set, failing if any slope is fractional
    or infinite (used by the regression checks)."""
    out = set()
    for s in edge_slopes(polygon, convention):
        if s.is_infinite or s.den != 1:
            raise ValueError(f"non-integral edge slope {s}")
        out.add(s.num)
    return out
