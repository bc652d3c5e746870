"""Command-line interface.

Exit codes: 0 success, 1 verification mismatch, 2 invalid input,
3 A-polynomial elimination failure, 4 a fraction whose all-even expansion
is not unique (an internal fault).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .confrac import (
    ContinuedFraction,
    ExpansionUniquenessError,
    InvalidFractionError,
    evaluate,
    format_cf,
    parse_cf,
)
from .knots import KnotId, double_twist_to_two_bridge
from .surfaces import all_slopes, slope_report, symmetric_slopes
from .valuation import (
    fixes_vertex,
    nontriviality_certificate,
    ord_at_zero,
    parse_matrix_line,
    translation_length,
)


def _parse_fraction(text: str, num=0, den=0) -> Fraction:
    """The knot fraction ``text`` (num/den if given): reduced p/q, q odd, 0 < p < q."""
    from math import gcd

    try:
        num, den = (num, den) if den else (int(part) for part in text.split("/"))
    except ValueError:
        num = den = 0
    if not (0 < num < den and den % 2 and gcd(num, den) == 1):
        raise InvalidFractionError(
            f"{text!r}: expected a reduced fraction p/q with q odd and 0 < p < q")
    return Fraction(num, den)


def _knot_record(fraction: Fraction) -> dict:
    knot = KnotId(fraction.numerator, fraction.denominator)
    report = slope_report(fraction)
    return {
        "knot": {"p": knot.p, "q": knot.q},
        "expansions": [
            {
                "entries": list(d.expansion.entries),
                "representative": str(evaluate(d.expansion)),
                "slope": d.slope,
                "symmetric": d.symmetric,
                "ideal_points": d.ideal_point_count,
            }
            for d in report
        ],
        "symmetric_slopes": symmetric_slopes(report),
        "all_slopes": all_slopes(report),
    }


def _cmd_expand(args) -> int:
    text = args.fraction
    if text.strip().startswith("["):
        value = evaluate(parse_cf(text)) % 1
        fraction = _parse_fraction(text, value.numerator, value.denominator)
    else:
        fraction = _parse_fraction(text)
    record = _knot_record(fraction)
    if args.json:
        print(json.dumps(record, indent=2))
        return 0
    for exp in record["expansions"]:
        print(f"{format_cf(ContinuedFraction(tuple(exp['entries'])))}"
              f"  = {exp['representative']}")
    return 0


def _cmd_slopes(args) -> int:
    fraction = _parse_fraction(args.fraction)
    record = _knot_record(fraction)
    if args.json:
        print(json.dumps(record, indent=2))
        return 0
    print(f"knot {record['knot']['p']}/{record['knot']['q']}")
    print(f"{'expansion':<28} {'slope':>6} {'symmetric':>10} {'ideal_points':>13}")
    for exp in record["expansions"]:
        cf = format_cf(ContinuedFraction(tuple(exp["entries"])))
        print(f"{cf:<28} {exp['slope']:>6} {str(exp['symmetric']):>10}"
              f" {exp['ideal_points']:>13}")
    print("symmetric slopes:", record["symmetric_slopes"])
    print("all slopes:      ", record["all_slopes"])
    return 0


def _cmd_jkl(args) -> int:
    knot = double_twist_to_two_bridge(args.k, args.l)
    print(f"J({args.k},{args.l}) = K({knot.p},{knot.q})  fraction {knot}")
    return 0


# Largest Riley polynomial u-degree (q-1)/2 that ``tbk apoly`` eliminates,
# refused before any elimination starts.  It admits q <= 101, so the
# double twist knot J(10,10) = 10/99 (degree 49) too.
MAX_RILEY_DEGREE = 50
# Largest n of J(2n,2n) that ``tbk verify --paper`` checks (50: about 1 s).
MAX_VERIFY_N = 50


def _cmd_apoly(args) -> int:
    from .charvar import a_polynomial
    from .exactnum import format_apoly, write_apoly

    fraction = _parse_fraction(args.fraction)
    degree = (fraction.denominator - 1) // 2
    if degree > MAX_RILEY_DEGREE:
        raise ValueError(f"{fraction}: Riley polynomial degree {degree} is above "
                         f"the limit {MAX_RILEY_DEGREE} of tbk apoly")
    ap = a_polynomial(fraction, keep_abelian=args.keep_abelian)
    if args.out:
        write_apoly(ap.poly, args.out)
    else:
        sys.stdout.write(format_apoly(ap.poly))
    return 0


def _cmd_polygon(args) -> int:
    from .charvar import SlopeConvention, edge_slopes, newton_polygon
    from .exactnum import read_apoly

    poly = read_apoly(args.file)
    convention = SlopeConvention(axis=args.convention, negate=args.negate,
                                 half=args.half)
    polygon = newton_polygon(poly)
    slopes = sorted(edge_slopes(polygon, convention))
    print(json.dumps({
        "corners": [list(c) for c in polygon.corners],
        "edge_slopes": [str(s) for s in slopes],
    }, indent=2))
    return 0


def _cmd_valuation(args) -> int:
    matrices = []
    with open(args.file) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                matrices.append(parse_matrix_line(line))
            except (ValueError, ZeroDivisionError) as exc:
                raise InvalidFractionError(f"line {lineno}: {exc}")
    if not matrices:
        raise InvalidFractionError(f"no matrices found in {args.file}")
    for i, m in enumerate(matrices):
        o = ord_at_zero(m.trace())
        print(f"matrix {i}: ord(trace) = {o}, fixes_vertex = {fixes_vertex(m)},"
              f" translation_length = {translation_length(m)}")
    cert = nontriviality_certificate(matrices)
    if cert is None:
        print("nontriviality certificate: none found (word length <= 3)")
    else:
        word = "*".join(f"g{i}" for i in cert)
        print(f"nontriviality certificate: {word} (indices {list(cert)})")
    return 0


def _cmd_verify(args) -> int:
    from .regression import run_paper_suite

    if not args.paper:
        print("nothing to verify: pass --paper", file=sys.stderr)
        return 2
    if args.n_min > args.n_max:
        print("--n-min must not exceed --n-max", file=sys.stderr)
        return 2
    if args.n_max > MAX_VERIFY_N:
        raise ValueError(f"--n-max {args.n_max} is above the limit {MAX_VERIFY_N} "
                         "of tbk verify --paper")
    report = run_paper_suite(args.n_min, args.n_max)
    if args.json:
        print(report.to_json())
    else:
        for record in report.records:
            for check in record.checks:
                status = "PASS" if check.passed else "FAIL"
                print(f"n={record.n} {check.name}: {status}")
                if not check.passed:
                    print(f"    expected {check.expected}")
                    print(f"    computed {check.computed}")
            for note in record.notes:
                print(f"n={record.n} note: {note}")
        print("RESULT:", "PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tbk",
        description="Exact boundary-slope and character-variety calculator "
                    "for two-bridge knots.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="admissible expansions of p/q")
    p.add_argument("fraction", help="fraction p/q, or a continued fraction like [4,-4]")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("slopes", help="slope table for p/q")
    p.add_argument("fraction")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_slopes)

    p = sub.add_parser("jkl", help="normalize a double twist knot J(k,l)")
    p.add_argument("k", type=int)
    p.add_argument("l", type=int)
    p.set_defaults(func=_cmd_jkl)

    p = sub.add_parser("apoly", help="A-polynomial of p/q in sparse text form")
    p.add_argument("fraction")
    p.add_argument("--keep-abelian", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_apoly)

    p = sub.add_parser("polygon", help="Newton polygon of a sparse polynomial file")
    p.add_argument("file")
    p.add_argument("--convention", choices=("lm", "ml"), default="lm")
    p.add_argument("--negate", action="store_true")
    p.add_argument("--half", action="store_true")
    p.set_defaults(func=_cmd_polygon)

    p = sub.add_parser("valuation", help="fixed-vertex diagnostics for matrices")
    p.add_argument("file")
    p.set_defaults(func=_cmd_valuation)

    p = sub.add_parser("verify", help="regression suite over double twist knots")
    p.add_argument("--paper", action="store_true",
                   help="re-derive the published double twist knot data")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ExpansionUniquenessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except RuntimeError as exc:
        # only the engine raises EliminationError, so charvar is loaded by
        # then; any other RuntimeError (RecursionError too) propagates
        from .charvar import EliminationError

        if not isinstance(exc, EliminationError):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
