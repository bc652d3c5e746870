"""Benchmark for tbk: end-to-end metrics per workload, or per-layer metrics
from a separate traced run.

    python3 perfbench/run.py --workload apoly-ladder --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # every workload

Each run is one fresh process acting as one closed-loop client on one
thread: it sends the next operation only after the previous one returned.
Inputs come from ``--seed``.  A run repeats passes over its input list for
``--seconds`` seconds, scaling each latency by the host's speed around it
(see HostClock), then checks every output outside the timed region,
prints every metric with its unit, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import random
import resource
import signal
import statistics
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import gcd, log
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

SETUP_PROBES = 9  # fresh processes timed per run for setup_s
TAIL_BEYOND = 10  # op_tail_ms: highest percentile with this many samples beyond
# A shared host's speed can swing by 1.8x within seconds.  A fixed
# pure-Python probe round (PROBE_ITERATIONS steps) is timed PROBE_ROUNDS
# times between two inputs' turns and once every PROBE_INTERVAL_S inside an
# operation; latencies, less the rounds inside them, are scaled to a host
# on which a round takes PROBE_REF_S (about its time on an idle 2-core
# x86-64 virtual machine).  See HostClock.
PROBE_REF_S = 0.0025
PROBE_ROUNDS = 3
PROBE_ITERATIONS = 5000
PROBE_INTERVAL_S = 0.1

# slopes-mix: uniform draws per pass, one from each of as many strata of
# the pool ordered by residue-tuple count, and the continued-fraction
# family: for each target tuple count, the pool fractions nearest it (as
# many as the target is listed).  The targets span the tuple counts that
# random continued fractions (length 2-7, entries 2-9) give, up to 7e4;
# heavier ones would leave too few passes in a run.  The eleven from 9000
# up cost more than any uniform draw, so the exponential walk in
# idealpoints sets op_tail_ms, and always on the same input.  Stratified
# uniform draws and a fixed continued-fraction family keep a pass's cost
# from swinging with the seed.
UNIFORM_PER_PASS = 60
CF_TARGETS = (20, 50, 120, 300, 700, 1500, 3000, 9000, 13000, 13000,
              18000, 18000, 25000, 25000, 35000, 35000, 50000, 70000)


class SetupError(RuntimeError):
    """The program could not be loaded from this checkout."""


def load_program():
    """Import tbk from the checkout's src/ and nowhere else."""
    if not (SRC / "tbk" / "__init__.py").is_file():
        raise SetupError(f"no tbk sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tbk
    import tbk.charvar  # noqa: F401
    import tbk.cli  # noqa: F401

    if Path(tbk.__file__).resolve().parent != SRC / "tbk":
        raise SetupError(f"imported tbk from {tbk.__file__}, not from {SRC}")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_reference():
    with open(REFERENCE) as f:
        return json.load(f)


# -- operations -----------------------------------------------------------------
# Each operation calls into tbk through module attributes at call time, so
# the tracer's wrappers are used when installed.


def cli_call(argv):
    """tbk.cli.main(argv) in-process; (exit code, stdout text)."""
    cli = sys.modules["tbk.cli"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def ladder_op(item):
    """The A-polynomial block of run_paper_suite for one J(2n, 2n)."""
    cv = sys.modules["tbk.charvar"]
    fraction, canonical = item
    ap = cv.a_polynomial(Fraction(fraction))
    slopes = cv.finite_edge_slopes_as_ints(cv.newton_polygon(ap))
    parts = cv.split_components(ap, canonical_slopes=canonical)
    return ap, slopes, parts


def sweep_op(fraction):
    return cli_call(["apoly", fraction])


def slopes_op(fraction):
    return cli_call(["slopes", fraction, "--json"])


# -- checks ---------------------------------------------------------------------
# A check returns None for a correct output, or a one-line reason.


def boundary_slopes(fraction):
    from tbk.surfaces import slope_report

    return {d.slope for d in slope_report(Fraction(fraction))}


def check_ladder(item, output, ref):
    from tbk.exactnum import format_apoly

    fraction, canonical = item
    ap, slopes, parts = output
    n = Fraction(fraction).numerator // 2
    if ref is not None and digest(format_apoly(ap.poly)) != ref["apoly"]:
        return "A-polynomial differs from the reference"
    if parts is None:
        return "split_components found no factorization"
    split_text = "".join(p.component_tag + "\n" + format_apoly(p.poly) for p in parts)
    if ref is not None and digest(split_text) != ref["split"]:
        return "factor split differs from the reference"
    product = parts[0].poly
    for p in parts[1:]:
        product = product * p.poly
    if product.sign_normalized() != ap.poly.sign_normalized():
        return "factors do not multiply back to the A-polynomial"
    if slopes != {0, -4 * n, -8 * n + 2}:
        return f"edge slopes {sorted(slopes)} != {{0, -4n, -8n+2}}"
    if not slopes <= boundary_slopes(fraction):
        return f"edge slopes {sorted(slopes)} not all boundary slopes"
    return None


def check_sweep(fraction, output, ref):
    from tbk.charvar import edge_slopes, newton_polygon
    from tbk.exactnum import parse_apoly

    code, text = output
    if code != 0:
        return f"exit code {code}"
    if ref is not None and digest(text) != ref:
        return "apoly v1 text differs from the reference"
    slopes = edge_slopes(newton_polygon(parse_apoly(text)))
    if any(s.is_infinite or s.den != 1 for s in slopes):
        return f"non-integral edge slope in {sorted(map(str, slopes))}"
    ints = {s.num for s in slopes}
    if not ints <= boundary_slopes(fraction):
        return f"edge slopes {sorted(ints)} not all boundary slopes"
    return None


class SlopesChecker:
    """Checks a ``slopes --json`` record; orbit counts memoized per run."""

    def __init__(self):
        self._orbit_counts = {}

    def orbit_count(self, entries):
        from tbk.confrac import ContinuedFraction
        from tbk.idealpoints import count_classes_by_orbits

        if entries not in self._orbit_counts:
            self._orbit_counts[entries] = count_classes_by_orbits(
                ContinuedFraction(entries))
        return self._orbit_counts[entries]

    def __call__(self, fraction, output, ref):
        from tbk.confrac import ContinuedFraction, evaluate

        code, text = output
        if code != 0:
            return f"exit code {code}"
        if isinstance(ref, str) and not ref.startswith("!") and digest(text) != ref:
            return "slopes --json record differs from the reference"
        record = json.loads(text)
        target = Fraction(fraction)
        if (record["knot"]["p"], record["knot"]["q"]) != (target.numerator,
                                                          target.denominator):
            return f"knot {record['knot']} is not the input"
        if not record["expansions"]:
            return "no admissible expansion"
        for exp in record["expansions"]:
            entries = tuple(exp["entries"])
            if not all(abs(a) >= 2 for a in entries):
                return f"{list(entries)} is not admissible"
            value = evaluate(ContinuedFraction(entries))
            if (value - target).denominator != 1 or Fraction(exp["representative"]) != value:
                return f"{list(entries)} does not evaluate to {fraction} mod Z"
            if exp["slope"] % 2:
                return f"odd slope {exp['slope']}"
            if exp["ideal_points"] != self.orbit_count(entries):
                return f"ideal points of {list(entries)} != count_classes_by_orbits"
        slopes = {e["slope"] for e in record["expansions"]}
        symmetric = {e["slope"] for e in record["expansions"] if e["symmetric"]}
        if (record["all_slopes"], record["symmetric_slopes"]) != (sorted(slopes),
                                                                 sorted(symmetric)):
            return "slope summaries disagree with the expansions"
        return None


# -- workloads ------------------------------------------------------------------


class Workload:
    """Inputs, operation, reference and checks of one workload.  After the
    first pass, an input that took less than ``rep_seconds`` runs several
    times in a row per pass, for about that long, so that short inputs get
    enough samples for their median to repeat from run to run."""

    def __init__(self, name, op, warmup, check, rep_seconds):
        self.name, self.op, self.warmup, self.check = name, op, warmup, check
        self.rep_seconds = rep_seconds

    def inputs(self, seed, reference):
        raise NotImplementedError

    def reference_for(self, item, reference):
        raise NotImplementedError

    def known_failures(self, reference):
        """Inputs the reference program raised on; probed, not timed."""
        return []

    @staticmethod
    def key(item):
        return item if isinstance(item, str) else item[0]


class Ladder(Workload):
    def inputs(self, seed, reference):
        items = [(f"{2 * n}/{4 * n * n - 1}", frozenset({0, -8 * n + 2})) for n in (2, 3)]
        random.Random(seed).shuffle(items)
        return items

    def reference_for(self, item, reference):
        return reference["apoly-ladder"][item[0]]


def sweep_fractions():
    return [f"{p}/{q}" for q in range(3, 12, 2) for p in range(1, q) if gcd(p, q) == 1]


class Sweep(Workload):
    def inputs(self, seed, reference):
        items = sweep_fractions()
        random.Random(seed).shuffle(items)
        return items

    def reference_for(self, item, reference):
        return reference["apoly-sweep"][item]


class Mix(Workload):
    def inputs(self, seed, reference):
        rng = random.Random(seed)
        pool = reference["slopes-mix"]
        handled = sorted((entry[1], f) for f, entry in pool["uniform"].items()
                         if not isinstance(entry, str))
        bounds = [len(handled) * i // UNIFORM_PER_PASS
                  for i in range(UNIFORM_PER_PASS + 1)]
        items = [rng.choice(handled[lo:hi])[1] for lo, hi in zip(bounds, bounds[1:])]
        for target, count in Counter(CF_TARGETS).items():
            nearest = sorted(pool["cf"], key=lambda f: (abs(log(pool["cf"][f][1] / target)), f))
            items += nearest[:count]
        rng.shuffle(items)
        return items

    def reference_for(self, item, reference):
        pool = reference["slopes-mix"]
        return (pool["uniform"].get(item) or pool["cf"][item])[0]

    def known_failures(self, reference):
        return sorted(f for f, entry in reference["slopes-mix"]["uniform"].items()
                      if isinstance(entry, str))


WORKLOADS = {
    w.name: w for w in (
        Ladder("apoly-ladder", ladder_op, ("2/5", None), check_ladder, 0),
        Sweep("apoly-sweep", sweep_op, "2/5", check_sweep, 0.15),
        Mix("slopes-mix", slopes_op, "4/15", SlopesChecker(), 0.025),
    )
}


# -- metrics --------------------------------------------------------------------
# (name, unit, better).  The traced run reports self time for every span
# name in tracing.SPANS plus the counters below.

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("pass_s", "s", "lower"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

COUNTS = (
    "modp.resultant.calls", "modp.cauchy.calls", "modp.cauchy.failed",
    "modp.is_prime.calls", "charvar.modular.calls", "charvar.direct.calls",
    "exactnum.resultant.calls", "charvar.split.calls", "charvar.split.found",
    "idealpoints.classes.calls", "idealpoints.tuples", "confrac.enumerate.calls",
    "confrac.all_even.calls", "surfaces.slope.calls",
)
# Counters that must repeat exactly from one traced pass to the next.
REPEATING = ("modp.resultant.calls", "charvar.modular.slices",
             "charvar.modular.primes_tried", "idealpoints.tuples",
             "confrac.all_even.calls")


def per_layer_specs():
    from tracing import SPAN_NAMES

    specs = [(f"{name}.self_s", "s", "lower") for name in SPAN_NAMES]
    specs += [(name, "count", "higher" if name == "charvar.split.found" else "lower")
              for name in COUNTS]
    specs += [
        ("charvar.modular.primes_tried", "count", "lower"),
        ("charvar.modular.primes_useful_ratio", "ratio", "higher"),
        ("charvar.modular.slices", "count", "lower"),
        ("charvar.modular.slices_useful_ratio", "ratio", "higher"),
        ("charvar.modular.cache.points", "count", "lower"),
        ("charvar.modular.cache.mb", "MB", "lower"),
        ("modp.resultant.share", "ratio", "lower"),
        ("idealpoints.useful_ratio", "ratio", "higher"),
        ("confrac.all_even.useful_ratio", "ratio", "higher"),
        ("confrac.depth_failures", "count", "lower"),
        ("trace.pass_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.unattributed_s", "s", "lower"),
        ("trace.overhead_est_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.counts_repeat", "flag", "higher"),
    ]
    return specs


def ratio(num, den):
    return num / den if den else 0.0


def layer_values(tracer):
    """Per-layer values of the pass just traced, before the trace.* entries."""
    from tracing import SPAN_NAMES

    counts = tracer.counts
    self_times = tracer.self_times()
    values = {f"{name}.self_s": self_times.get(name, 0.0) for name in SPAN_NAMES}
    values.update({name: counts.get(name, 0) for name in COUNTS})
    tried = counts.get("charvar.modular.prime.calls", 0)
    slices = counts.get("charvar.modular.slice.calls", 0)
    values.update({
        "charvar.modular.primes_tried": tried,
        "charvar.modular.primes_useful_ratio":
            ratio(counts.get("charvar.modular.primes_useful", 0), tried),
        "charvar.modular.slices": slices,
        "charvar.modular.slices_useful_ratio":
            ratio(counts.get("charvar.modular.slices_useful", 0), slices),
        "charvar.modular.cache.points": tracer.cache_points,
        "charvar.modular.cache.mb": tracer.cache_bytes / 2**20,
        "idealpoints.useful_ratio":
            ratio(counts.get("idealpoints.classes.found", 0),
                  counts.get("idealpoints.tuples", 0)),
        "confrac.all_even.useful_ratio":
            ratio(len(tracer.distinct_even), counts.get("confrac.all_even.calls", 0)),
        "confrac.depth_failures": counts.get("confrac.enumerate.recursion_errors", 0),
        "trace.spans": len(tracer.spans),
    })
    return values


# -- measurement ----------------------------------------------------------------


class PassResult:
    """Timing and outputs of one pass; a traced pass adds its layer values
    and, per input, (operation seconds, modp.resultant self seconds)."""

    def __init__(self, seconds, latencies, outputs, layers=None, resultant_by_op=None):
        self.seconds, self.latencies, self.outputs = seconds, latencies, outputs
        self.layers, self.resultant_by_op = layers, resultant_by_op


def run_pass(workload, items, tracer=None):
    """One pass over ``items``; outputs hold the exception where an op raised."""
    latencies, outputs = [], []
    call = workload.op if tracer is None else (lambda item: tracer.root(workload.op, item))
    start = perf_counter()
    for item in items:
        t0 = perf_counter()
        try:
            out = call(item)
        except Exception as exc:  # an operation that raises is a failure
            out = exc
        latencies.append(perf_counter() - t0)
        outputs.append(out)
    seconds = perf_counter() - start
    if tracer is None:
        return PassResult(seconds, latencies, outputs)
    result = PassResult(seconds, latencies, outputs, layer_values(tracer),
                        tracer.root_shares("modp.resultant"))
    tracer.reset()
    return result


def probe_round():
    """A fixed pure-Python workload: tuples, sets, dicts and big-integer
    arithmetic, the kinds of work tbk does."""
    seen, counts, x = set(), {}, 12345678901234567890
    for i in range(PROBE_ITERATIONS):
        key = (i % 7, i % 11, i % 13)
        seen.add(key)
        counts[key] = counts.get(key, 0) + 1
        x = (x * 6364136223846793005 + i) % (1 << 127)


class HostClock:
    """The host's speed, sampled by timed probe rounds: PROBE_ROUNDS of them
    between two inputs' turns, and, while the clock is entered, one on
    SIGALRM every PROBE_INTERVAL_S, so that a long operation is scaled by
    the speed the host had while it ran.  Rounds are kept as (start, end)."""

    def __init__(self):
        self.rounds = []
        self._busy = False

    def probe(self):
        for _ in range(PROBE_ROUNDS):
            self._round()

    def _round(self, *_):
        if self._busy:  # the timer fired during a round
            return
        self._busy = True
        t0 = perf_counter()
        probe_round()
        self.rounds.append((t0, perf_counter()))
        self._busy = False

    def __enter__(self):
        self._handler = signal.signal(signal.SIGALRM, self._round)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)


def timed_turn(workload, item, reps, clock):
    """``reps`` operations on ``item``, then a full garbage collection, so
    that each turn starts on a clean heap, and a probe of ``clock``; the
    probe that ended the previous turn began this one.  Returns each
    operation's latency less the probe rounds inside it, the same scaled by
    PROBE_REF_S over the mean probe round of the turn, and the outputs."""
    first = len(clock.rounds) - PROBE_ROUNDS
    spans, outputs = [], []
    for _ in range(reps):
        t0 = perf_counter()
        try:
            out = workload.op(item)
        except Exception as exc:  # an operation that raises is a failure
            out = exc
        spans.append((t0, perf_counter()))
        outputs.append(out)
    gc.collect()
    clock.probe()
    rounds = clock.rounds[first:]
    mean_round = statistics.fmean(end - start for start, end in rounds)
    latencies = [t1 - t0 - sum(end - start for start, end in rounds if t0 <= start and end <= t1)
                 for t0, t1 in spans]
    return latencies, [t * PROBE_REF_S / mean_round for t in latencies], outputs


def timed_passes(workload, items, seconds, start, rng):
    """Passes over ``items`` until ``seconds`` after ``start``, the first
    two complete, the last one cut at the deadline.  The first pass runs
    each input once, in the given order; later ones take a fresh order
    from ``rng`` and run an input faster than ``workload.rep_seconds`` on
    the first pass several times in a row.  Returns each input's latencies
    and scaled latencies (see ``timed_turn``), the (input, output) of every
    operation in run order, and each pass's wall time."""
    raw, scaled = [[] for _ in items], [[] for _ in items]
    ran, outputs, pass_seconds = [], [], []
    order, reps = range(len(items)), [1] * len(items)
    with HostClock() as clock:
        gc.collect()
        clock.probe()
        while True:
            pass_start = perf_counter()
            for i in order:
                latencies, scaled_latencies, outs = timed_turn(
                    workload, items[i], reps[i], clock)
                raw[i] += latencies
                scaled[i] += scaled_latencies
                ran += [items[i]] * reps[i]
                outputs += outs
                if len(pass_seconds) >= 2 and perf_counter() - start > seconds:
                    pass_seconds.append(perf_counter() - pass_start)
                    return raw, scaled, (ran, outputs), pass_seconds
            pass_seconds.append(perf_counter() - pass_start)
            if len(pass_seconds) == 1:
                reps = [max(1, round(workload.rep_seconds / t[0])) for t in raw]
            order = rng.sample(range(len(items)), len(items))


def alternating_passes(workload, items, seconds, start, tracer):
    """Untraced and traced passes in turn, at least two of each, so that
    both kinds see the same machine; returns (untraced, traced)."""
    plain, traced = [], []
    while True:
        plain.append(run_pass(workload, items))
        tracer.install()
        try:
            traced.append(run_pass(workload, items, tracer))
        finally:
            tracer.uninstall()
        elapsed = perf_counter() - start
        if len(traced) >= 2 and elapsed + plain[-1].seconds + traced[-1].seconds > seconds:
            return plain, traced


def measure_setup(workload_name):
    """Median seconds, over fresh processes, to import tbk and warm up.
    Not scaled: the host probe does not track process start-up and imports
    (scaled by a probe next to it, setup_s spread more, not less)."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", workload_name],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SetupError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def setup_probe(workload_name):
    """Time, inside a fresh process, import of tbk plus one warm-up op."""
    start = perf_counter()
    load_program()
    workload = WORKLOADS[workload_name]
    workload.op(workload.warmup)
    print(perf_counter() - start)


def percentile_tail(values):
    """(value, percentile, samples beyond) for the highest percentile with
    TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


class Outcomes:
    """Failures and checks over every output of a run.  Checks run after
    the timed passes; each distinct (input, output) is checked once."""

    def __init__(self, workload, reference):
        self.workload, self.reference = workload, reference
        self.attempted = 0
        self.failures = []  # (input, exception name): the operation raised
        self.wrong = []  # (input, reason): the output failed a check
        self._verdicts = {}

    def add(self, items, outputs):
        for item, out in zip(items, outputs):
            self.attempted += 1
            key = self.workload.key(item)
            if isinstance(out, Exception):
                self.failures.append((key, type(out).__name__))
                continue
            fingerprint = (key, self.fingerprint(out))
            if fingerprint not in self._verdicts:
                ref = self.workload.reference_for(item, self.reference)
                self._verdicts[fingerprint] = self.workload.check(item, out, ref)
            if self._verdicts[fingerprint] is not None:
                self.wrong.append((key, self._verdicts[fingerprint]))

    @staticmethod
    def fingerprint(out):
        if len(out) == 2:  # (exit code, stdout)
            return out
        from tbk.exactnum import format_apoly

        ap, slopes, parts = out
        parts_text = None if parts is None else tuple(
            (p.component_tag, format_apoly(p.poly)) for p in parts)
        return format_apoly(ap.poly), tuple(sorted(slopes)), parts_text

    @property
    def failed(self):
        return len(self.failures) + len(self.wrong)


def probe_known_failures(workload, reference):
    """Run, untimed, each input the reference program raised on; map it to
    the exception it raises now, or to "ok" or "wrong: <reason>"."""
    found = {}
    for item in workload.known_failures(reference):
        try:
            out = workload.op(item)
        except Exception as exc:
            found[item] = type(exc).__name__
            continue
        reason = workload.check(item, out, None)
        found[item] = "ok" if reason is None else f"wrong: {reason}"
    return found


def run(workload_name, seed, seconds, trace):
    workload = WORKLOADS[workload_name]
    reference = load_reference()
    setup_s = None if trace else measure_setup(workload_name)
    load_program()
    workload.op(workload.warmup)
    items = workload.inputs(seed, reference)

    outcomes = Outcomes(workload, reference)
    start = perf_counter()
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        plain, traced = alternating_passes(workload, items, seconds, start, tracer)
        for result in plain + traced:
            outcomes.add(items, result.outputs)
        pass_seconds = [r.seconds for r in plain + traced]
    else:
        raw, scaled, (ran, outputs), pass_seconds = timed_passes(
            workload, items, seconds, start, random.Random(f"{seed}/order"))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        outcomes.add(ran, outputs)

    detail = {
        "workload": workload_name, "seed": seed,
        "pass_seconds": pass_seconds,
        "inputs_per_pass": len(items),
        "fail_rate": outcomes.failed / outcomes.attempted,
        "failing_inputs": sorted(set(outcomes.failures)),
        "wrong_outputs": sorted(set(outcomes.wrong)),
        "known_failures": probe_known_failures(workload, reference),
    }
    if trace:
        metrics, extra = traced_metrics(plain, traced, items)
        detail.update(extra, not_traced=tracer.missing)
        specs = per_layer_specs()
    else:
        # Each input's median scaled latency; pass_s adds them up.
        per_item = [statistics.median(t) for t in scaled]
        tail, pct, beyond = percentile_tail(per_item)
        metrics = {
            "setup_s": setup_s,
            "pass_s": sum(per_item),
            "op_p50_ms": 1000 * statistics.median(per_item),
            "op_tail_ms": 1000 * tail,
            "peak_rss_mb": peak_rss_mb,
        }
        detail["op_tail"] = {"percentile": pct, "samples": len(per_item),
                             "beyond": beyond}
        fastest = [min(t) for t in raw]
        detail["unscaled_fastest"] = {
            "pass_s": sum(fastest), "op_p50_ms": 1000 * statistics.median(fastest),
            "op_tail_ms": 1000 * percentile_tail(fastest)[0]}
        counts = [len(t) for t in raw]
        detail["samples_per_input"] = {"min": min(counts), "median": statistics.median(counts)}
        if len(items) <= 30:
            detail["op_ms_by_input"] = {workload.key(item): 1000 * t
                                        for item, t in zip(items, per_item)}
        specs = END_TO_END

    for name, unit, _ in specs:
        print(f"{workload_name:<13} {name:<40} {metrics[name]:>16.6f} {unit}")
    print("detail " + json.dumps(detail))
    return {
        "correct": not outcomes.wrong,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _ in specs},
    }


def traced_metrics(plain, traced, items):
    """Per-layer metrics of the fastest traced pass, whose self times add up
    to its wall time less ``trace.unattributed_s``."""
    from tracing import estimated_overhead

    fastest = min(traced, key=lambda r: r.seconds)
    untraced_s = min(r.seconds for r in plain)
    metrics = dict(fastest.layers)
    repeat = all(r.layers[name] == fastest.layers[name] for r in traced for name in REPEATING)
    self_sum = sum(v for k, v in fastest.layers.items() if k.endswith(".self_s"))
    metrics.update({
        "modp.resultant.share": ratio(metrics["modp.resultant.self_s"], fastest.seconds),
        "trace.pass_s": fastest.seconds,
        "trace.overhead_ratio": fastest.seconds / untraced_s,
        "trace.overhead_s": fastest.seconds - untraced_s,
        "trace.unattributed_s": fastest.seconds - self_sum,
        "trace.overhead_est_s": estimated_overhead(metrics["trace.spans"],
                                                   metrics["idealpoints.tuples"]),
        "trace.counts_repeat": 1.0 if repeat else 0.0,
    })
    extra = {
        "traced_passes": len(traced),
        "modp_resultant_share_by_input": {
            Workload.key(item): share / duration
            for item, (duration, share) in zip(items, fastest.resultant_by_op) if share},
    }
    return metrics, extra


# -- entry point ----------------------------------------------------------------


def run_all(args):
    """Every workload, each in its own fresh process; prints a summary."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=sorted(WORKLOADS), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args.setup_probe)
            return 0
        if args.workload == "all":
            return run_all(args)
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except (SetupError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
