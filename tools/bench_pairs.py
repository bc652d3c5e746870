"""Benchmark a change against its parent commit in alternating pairs.

    python3 tools/bench_pairs.py --pr 29 --claim apoly-sweep:pass_s
    python3 tools/bench_pairs.py --pr 29 --parent HEAD~1   # change committed

Runs the unchanged perfbench/run.py on the parent's committed files and on
the working tree, each in a fresh process, for BENCHMARK.json's run_seconds:
per workload it lists, 10 pairs with one seed each (derived from ``--pr``),
the side that runs first alternating by pair, then one traced pass
(``--trace 1``) per side of every workload.  Writes BENCH_<pr>.json at the
root of the working tree once every run is done (BENCH_<pr>.json.partial
while they run), with each run's last output line, a per-workload summary
of every end-to-end metric (medians, quartiles, ranges, pairs the change
wins), every (workload, metric) pair whose change median is worse than the
parent's by more than the metric's BENCHMARK.json ``bound`` (also printed
at the end), and the traced passes' per-layer values side by side.  A pair
counts only when both of its runs read ``correct: true``.  With ``--claim
workload:metric`` it also applies the rule a claimed gain must meet: no
pair left out, no pair where the change fails more operations than the
parent, the change winning at least nine of ten pairs, and the medians
differing by more than the distance between the parent's quartiles.

The parent (``--parent``, default HEAD) is exported with ``git archive``
into a temporary directory, so it runs on its committed files alone.  The
tool stops before any run when BENCH_<pr>.json exists, when the working
tree does not differ from the parent, or when the parent's perfbench/ or
BENCHMARK.json differ from the working tree's.  Bytecode writing is off on
both sides, so every fresh process compiles the sources it imports.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = "perfbench/run.py"
SIDES = ("parent", "change")
PAIRS = 10  # per workload; a claim needs nine of ten won


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout


def export_parent(rev, into):
    """The committed files of rev, unpacked under ``into``."""
    archive = Path(into) / "parent.tar"
    subprocess.run(["git", "archive", "--format=tar", "-o", str(archive), rev],
                   cwd=ROOT, check=True)
    tree = Path(into) / "parent"
    tree.mkdir()
    with tarfile.open(archive) as tar:
        tar.extractall(tree)
    archive.unlink()
    return tree


def run_once(tree, workload, seed, seconds, trace):
    """The last output line of one benchmark run, parsed, or an error."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                          timeout=20 * seconds + 600)
    lines = proc.stdout.strip().splitlines()
    try:
        return {"last_line": json.loads(lines[-1])}
    except (IndexError, json.JSONDecodeError):
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}


def quartiles(values):
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def metric_values(last_line):
    return {name: m["value"] for name, m in last_line["metrics"].items()}


def pairs_of(runs, workload):
    """(kept, left out): the workload's pairs as {side: last line}, kept
    when both runs printed a last line reading correct: true."""
    pairs = {}
    for r in runs:
        if r["workload"] == workload:
            pairs.setdefault(r["seed"], {})[r["side"]] = r.get("last_line")
    kept = [p for p in pairs.values()
            if all(p.get(side) and p[side]["correct"] for side in SIDES)]
    return kept, len(pairs) - len(kept)


def summarize(runs, end_to_end):
    """{workload: {metric: medians, quartiles, ranges, pairs won}}."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = [{side: metric_values(p[side]) for side in SIDES}
                 for p in pairs_of(runs, workload)[0]]
        if not pairs:
            continue
        rows = {}
        for name, spec in end_to_end.items():
            parent = [p["parent"][name] for p in pairs]
            change = [p["change"][name] for p in pairs]
            sign = 1 if spec["better"] == "lower" else -1
            wins = sum(sign * (p["parent"][name] - p["change"][name]) > 0 for p in pairs)
            pm, cm = statistics.median(parent), statistics.median(change)
            rows[name] = {
                "unit": spec["unit"],
                "parent_median": pm,
                "change_median": cm,
                "change_vs_parent": (cm - pm) / pm if pm else None,
                "change_better_pairs": f"{wins}/{len(pairs)}",
                "parent_quartiles": quartiles(parent),
                "change_quartiles": quartiles(change),
                "parent_range": [min(parent), max(parent)],
                "change_range": [min(change), max(change)],
            }
        out[workload] = rows
    return out


def regressions(summary, end_to_end):
    """[{workload, metric, change_vs_parent, bound}] for every end-to-end
    median of the change that is worse than the parent's by more than the
    metric's bound, the relative change counted in the worse direction."""
    out = []
    for workload, rows in summary.items():
        for name, row in rows.items():
            bound, rel = end_to_end[name].get("bound"), row["change_vs_parent"]
            if bound is None or rel is None:
                continue
            worse = rel if end_to_end[name]["better"] == "lower" else -rel
            if worse > bound:
                out.append({"workload": workload, "metric": name,
                            "change_vs_parent": rel, "bound": bound})
    return out


def traced_layers(traced):
    """{workload: {metric: {unit, parent, change}}} of the traced passes."""
    out = {}
    for r in traced:
        for name, m in r.get("last_line", {}).get("metrics", {}).items():
            row = out.setdefault(r["workload"], {}).setdefault(name, {"unit": m["unit"]})
            row[r["side"]] = m["value"]
    return out


def judge_claim(claim, runs, end_to_end):
    """The claimed gain's test: every pair kept, none where the change
    fails more operations, nine tenths of at least PAIRS pairs won, and
    the median moved by more than the parent's quartile spread."""
    if claim is None:
        return None
    workload, metric = claim.split(":")
    row = summarize(runs, end_to_end).get(workload, {}).get(metric)
    if row is None:
        return {"workload": workload, "metric": metric, "met": False}
    kept, left_out = pairs_of(runs, workload)
    failed_more = sum(p["change"]["failed"] > p["parent"]["failed"] for p in kept)
    won, pairs = map(int, row["change_better_pairs"].split("/"))
    gain = row["parent_median"] - row["change_median"]
    if end_to_end[metric]["better"] != "lower":
        gain = -gain
    spread = row["parent_quartiles"][1] - row["parent_quartiles"][0]
    return {"workload": workload, "metric": metric,
            "change_better_pairs": row["change_better_pairs"],
            "pairs_left_out": left_out, "pairs_change_failed_more": failed_more,
            "median_gain": gain, "parent_quartile_spread": spread,
            "met": (not left_out and not failed_more and pairs >= PAIRS
                    and won >= 0.9 * pairs and gain > spread)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True,
                        help="number in the output name BENCH_<pr>.json; seeds start at 100 * pr")
    parser.add_argument("--parent", default="HEAD", help="commit to compare against")
    parser.add_argument("--claim", help="workload:metric of a claimed gain")
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(argv)

    out_path = ROOT / f"BENCH_{args.pr}.json"
    if out_path.exists():
        sys.exit(f"{out_path.name} exists; remove it to run again")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    end_to_end = {m["name"]: m for m in bench["end_to_end"]}
    parent_rev = git("rev-parse", args.parent).strip()
    if not git("diff", "--name-only", parent_rev).strip():
        sys.exit(f"the working tree does not differ from {args.parent}; "
                 f"pass the change's parent with --parent")
    changed = git("diff", "--name-only", parent_rev, "--", *bench["paths"], "BENCHMARK.json")
    if changed.strip():
        sys.exit(f"the benchmark differs from {args.parent}'s:\n{changed}")

    base = 100 * args.pr
    seeds = {w: [base + i * 20 + k + 1 for k in range(PAIRS)]
             for i, w in enumerate(workloads)}
    seeds["traced"] = [base + len(workloads) * 20 + i + 1 for i in range(len(workloads))]
    partial = out_path.with_name(out_path.name + ".partial")
    command = f"python3 {RUN} --workload <workload> --seed <seed> --seconds {seconds} --trace"
    result = {
        "what": (f"{RUN} end-to-end metrics, parent commit and this change, in "
                 f"alternating pairs (the side that runs first alternates by pair): "
                 f"{PAIRS} pairs per workload, and one traced pass per side "
                 f"of each workload"),
        "command": f"{command} 0",
        "traced_command": f"{command} 1",
        "command_line": " ".join(["python3", "tools/bench_pairs.py", *argv]),
        "host": (f"{os.cpu_count()}-core {platform.machine()}, "
                 f"Python {platform.python_version()}"),
        "parent": parent_rev,
        "seeds": seeds,
        "seeds_note": f"seeds derived from the change's number, {args.pr}",
        "summary": {}, "regressions": [], "runs": [], "traced": [], "traced_layers": {},
        "claim": None,
    }

    def save():
        result["summary"] = summarize(result["runs"], end_to_end)
        result["regressions"] = regressions(result["summary"], end_to_end)
        result["traced_layers"] = traced_layers(result["traced"])
        result["claim"] = judge_claim(args.claim, result["runs"], end_to_end)
        partial.write_text(json.dumps(result, indent=1) + "\n")

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {"parent": export_parent(parent_rev, tmp), "change": ROOT}
        schedule = [(w, seed, 0, SIDES[::-1] if k % 2 else SIDES)
                    for w in workloads for k, seed in enumerate(seeds[w])]
        schedule += [(w, seed, 1, SIDES[::-1] if i % 2 else SIDES)
                     for i, (w, seed) in enumerate(zip(workloads, seeds["traced"]))]
        for workload, seed, trace, order in schedule:
            for position, side in enumerate(order):
                run = {"workload": workload, "seed": seed, "side": side,
                       "trace": trace, "order": position}
                run.update(run_once(trees[side], workload, seed, seconds, trace))
                result["traced" if trace else "runs"].append(run)
                save()
                key = "trace.pass_s" if trace else "pass_s"
                print(workload, seed, side, key,
                      run.get("error") or metric_values(run["last_line"]).get(key), flush=True)
    os.replace(partial, out_path)
    for flag in result["regressions"]:
        print(f"REGRESSION {flag['workload']} {flag['metric']}: "
              f"{flag['change_vs_parent']:+.1%} against a bound of {flag['bound']:.0%}")
    if not result["regressions"]:
        print("no end-to-end median worse than its bound")
    print(f"wrote {out_path}")


if __name__ == "__main__":
    main()
