"""Record perfbench/reference.json from the program in this checkout.

    python3 perfbench/make_reference.py

The reference pins what the benchmark compares every output against: a
digest of each apoly-ladder and apoly-sweep output, and the slopes-mix
input pool with, per input, a digest and the number of residue tuples its
ideal-point walk visits (or the exception the input raised).  Run it only
on the commit whose outputs are the reference; each recorded output must
pass the benchmark's own checks first.
"""

from __future__ import annotations

import json
import random
import sys
from math import floor, gcd, prod

import run

POOL_SEED = 20191101
# Tuple counts the continued-fraction pool is matched to, CF_PER_TARGET
# fractions within a factor TARGET_BAND of each.
POOL_TARGETS = (20, 50, 120, 300, 700, 1500, 3000, 4500, 6500, 9000, 13000,
                18000, 25000, 35000, 50000, 70000, 100000, 200000)
TARGET_BAND = 1.1
UNIFORM_POOL = 4000
CF_PER_TARGET = 8
CF_MAX_DRAWS = 400_000


def uniform_draws(rng):
    """Reduced p/q, q odd and at most 4001, p uniform in (0, q)."""
    seen = set()
    while len(seen) < UNIFORM_POOL:
        q = rng.randrange(3, 4002, 2)
        p = rng.randrange(1, q)
        if gcd(p, q) == 1:
            seen.add(f"{p}/{q}")
    return sorted(seen)


def cf_draws(rng):
    """Fractions from random continued fractions (length 2-7, entries 2-9
    in absolute value, random signs) reduced mod Z, CF_PER_TARGET of them
    per tuple-count target.  Even denominators are links, not knots."""
    from tbk.confrac import ContinuedFraction, enumerate_admissible, evaluate

    chosen = {t: set() for t in POOL_TARGETS}
    for _ in range(CF_MAX_DRAWS):
        entries = [rng.choice((-1, 1)) * rng.randint(2, 9) for _ in range(rng.randint(2, 7))]
        value = evaluate(ContinuedFraction(tuple(entries)))
        value -= floor(value)
        if value == 0 or value.denominator % 2 == 0:
            continue
        tuples = sum(prod(abs(a) - 1 for a in cf.entries)
                     for cf in enumerate_admissible(value))
        for target, found in chosen.items():
            if (target / TARGET_BAND <= tuples <= target * TARGET_BAND
                    and len(found) < CF_PER_TARGET):
                found.add(f"{value.numerator}/{value.denominator}")
        if all(len(found) == CF_PER_TARGET for found in chosen.values()):
            break
    else:
        sys.exit("make_reference: not enough continued-fraction draws per target")
    return sorted(set().union(*chosen.values()))


def tuple_count(record_text):
    """Residue tuples the ideal-point walk visits for a slopes record."""
    record = json.loads(record_text)
    return sum(prod(abs(a) - 1 for a in e["entries"]) for e in record["expansions"])


def record(workload_name, items, ref_of):
    """Run each item once, check it, and return {key: reference entry}."""
    workload = run.WORKLOADS[workload_name]
    result = run.run_pass(workload, items)
    out = {}
    for item, output in zip(items, result.outputs):
        key = workload.key(item)
        if isinstance(output, Exception):
            out[key] = "!" + type(output).__name__
            print(f"{workload_name} {key}: raised {out[key][1:]}", file=sys.stderr)
            continue
        reason = workload.check(item, output, None)
        if reason is not None:
            sys.exit(f"make_reference: {workload_name} {key}: {reason}")
        out[key] = ref_of(output)
    return out


def mix_ref(output):
    return [run.digest(output[1]), tuple_count(output[1])]


def ladder_ref(output):
    from tbk.exactnum import format_apoly

    ap, _, parts = output
    return {"apoly": run.digest(format_apoly(ap.poly)),
            "split": run.digest("".join(p.component_tag + "\n" + format_apoly(p.poly)
                                        for p in parts))}


def main():
    run.load_program()
    rng = random.Random(POOL_SEED)
    ladder = run.WORKLOADS["apoly-ladder"].inputs(0, None)
    reference = {
        "apoly-ladder": record("apoly-ladder", ladder, ladder_ref),
        "apoly-sweep": record("apoly-sweep", run.sweep_fractions(),
                              lambda out: run.digest(out[1])),
    }
    uniform = record("slopes-mix", uniform_draws(rng), mix_ref)
    cf = record("slopes-mix", cf_draws(rng), mix_ref)
    reference["slopes-mix"] = {"uniform": uniform, "cf": cf}
    with open(run.REFERENCE, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
