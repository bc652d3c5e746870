"""Regression suite over the symmetric double twist knots.

For each n the suite re-derives, from scratch, every quantitative claim
about J(2n, 2n): the four admissible expansions, their slopes
(0, -4n, -4n, -8n+2), the symmetric subset {0, -8n+2}, the flip exchange
of the two -4n surfaces, the n-1 residue classes per -4n expansion, the
aggregated detected-slope set, and (for n <= 3, where the elimination is
desk-sized) the A-polynomial edge-slope sets.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from fractions import Fraction

from .confrac import ContinuedFraction, enumerate_admissible, expand_repetition
from .idealpoints import (
    count_classes_by_orbits,
    detected_slopes_with_counts,
    ideal_point_classes,
    ideal_point_count,
)
from .knots import KnotId, double_twist_fraction
from .surfaces import BranchedSurface, boundary_slope, flip, is_symmetric

APOLY_MAX_N = 3  # exact elimination is run only at desk scale


def expected_expansions(n: int):
    """The four admissible expansions of 2n/(4n^2-1), by construction."""
    block = expand_repetition([-2, 2], n - 1)
    rev_block = expand_repetition([2, -2], n - 1)
    return [
        ContinuedFraction(tuple([2 * n, -2 * n])),
        ContinuedFraction(tuple([2 * n - 1, 2] + block)),
        ContinuedFraction(tuple(block + [-2, -2 * n + 1])),
        ContinuedFraction(tuple(block + [-3] + rev_block)),
    ]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    expected: str
    computed: str


@dataclass(frozen=True)
class KnotRecord:
    n: int
    p: int
    q: int
    checks: tuple
    notes: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass(frozen=True)
class PaperReport:
    n_min: int
    n_max: int
    records: tuple

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PaperReport":
        data = json.loads(text)
        records = tuple(
            KnotRecord(
                n=r["n"], p=r["p"], q=r["q"],
                checks=tuple(CheckResult(**c) for c in r["checks"]),
                notes=tuple(r["notes"]),
            )
            for r in data["records"]
        )
        return cls(n_min=data["n_min"], n_max=data["n_max"], records=records)


def _check(name, expected, computed) -> CheckResult:
    return CheckResult(name=name, passed=expected == computed,
                       expected=repr(expected), computed=repr(computed))


def _verify_knot(n: int, with_apoly: bool) -> KnotRecord:
    fraction = double_twist_fraction(n)
    knot = KnotId(fraction.numerator, fraction.denominator)
    checks = []
    notes = []

    expected = expected_expansions(n)
    computed = enumerate_admissible(fraction)
    checks.append(_check(
        "expansions",
        sorted(cf.entries for cf in expected),
        sorted(cf.entries for cf in computed)))

    surfaces = {cf.entries: BranchedSurface(cf, fraction) for cf in expected}
    slopes = {e: boundary_slope(s) for e, s in surfaces.items()}
    e1, e2, e3, e4 = (cf.entries for cf in expected)
    checks.append(_check(
        "slopes",
        {e1: 0, e2: -4 * n, e3: -4 * n, e4: -8 * n + 2},
        slopes))

    checks.append(_check(
        "symmetric-subset",
        sorted({-8 * n + 2, 0}),
        sorted({slopes[e] for e, s in surfaces.items() if is_symmetric(s)})))

    flips = {e: flip(s).expansion.entries for e, s in surfaces.items()}
    checks.append(_check(
        "flip-action",
        {e1: e1, e2: e3, e3: e2, e4: e4},
        flips))

    counts = {e: ideal_point_count(surfaces[e].expansion) for e in (e2, e3)}
    checks.append(_check(
        "ideal-points-per-minus-4n",
        {e2: n - 1, e3: n - 1},
        counts))
    # closed form against both enumerations: (classes, orbits) per expansion
    enumerated = {e: (len(ideal_point_classes(surfaces[e].expansion)),
                      count_classes_by_orbits(surfaces[e].expansion))
                  for e in (e2, e3)}
    checks.append(_check(
        "ideal-point-count-methods-agree",
        {e: (c, c) for e, c in counts.items()},
        enumerated))

    detected = detected_slopes_with_counts(fraction)
    checks.append(_check(
        "detected-slope-set",
        sorted({0, -4 * n, -8 * n + 2}),
        sorted(detected)))

    if with_apoly and n <= APOLY_MAX_N:
        from .charvar import (
            a_polynomial,
            finite_edge_slopes_as_ints,
            newton_polygon,
            split_components,
        )

        ap = a_polynomial(fraction)
        polygon = newton_polygon(ap)
        checks.append(_check(
            "apoly-edge-slopes",
            sorted({0, -4 * n, -8 * n + 2}),
            sorted(finite_edge_slopes_as_ints(polygon))))

        notes.append(f"computed full polygon corners: {list(polygon.corners)}")
        parts = split_components(ap, canonical_slopes={0, -8 * n + 2})
        if parts is None:
            notes.append("A-polynomial is irreducible over Z; no component split")
        else:
            for part in parts:
                corners = list(newton_polygon(part).corners)
                notes.append(
                    f"{part.component_tag} factor polygon corners: {corners}")

    return KnotRecord(n=n, p=knot.p, q=knot.q,
                      checks=tuple(checks), notes=tuple(notes))


def run_paper_suite(n_min: int = 2, n_max: int = 10,
                    with_apoly: bool = True) -> PaperReport:
    """Re-derive the double twist knot claims for n_min <= n <= n_max."""
    if not (2 <= n_min <= n_max):
        raise ValueError("need 2 <= n_min <= n_max")
    records = tuple(_verify_knot(n, with_apoly) for n in range(n_min, n_max + 1))
    return PaperReport(n_min=n_min, n_max=n_max, records=records)
