"""Per-layer tracing of tbk from outside the program.

The tracer replaces module-level functions of tbk with wrappers that
record one span per call: (name, start, end, parent span index).  This
works because tbk looks its functions up in module globals at call time,
so a wrapper bound under every name that held the original is the one the
program calls.  Counters are recorded at the same boundaries.  Nothing
under ``src/`` is edited; ``uninstall`` restores every original binding.

A layer's self time is its span durations minus the durations of its
direct child spans, so self times over all names add up to the time
covered by the root spans.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Span name for each traced function, as (module, attribute, span name).
# Several functions may share a span name (one layer, several entries).
SPANS = (
    ("tbk.cli", "main", "cli"),
    ("tbk.surfaces", "slope_report", "surfaces.report"),
    ("tbk.surfaces", "boundary_slope", "surfaces.slope"),
    ("tbk.surfaces", "flip", "surfaces.flip"),
    ("tbk.confrac", "enumerate_admissible", "confrac.enumerate"),
    ("tbk.confrac", "all_even_expansion", "confrac.all_even"),
    ("tbk.idealpoints", "ideal_point_classes", "idealpoints.classes"),
    ("tbk.charvar.apoly", "a_polynomial", "charvar.apoly"),
    ("tbk.charvar.presentation", "presentation", "charvar.presentation"),
    ("tbk.charvar.riley", "riley_polynomial", "charvar.riley"),
    ("tbk.charvar.apoly", "longitude_data", "charvar.longitude"),
    ("tbk.charvar.apoly", "_apoly_direct", "charvar.direct"),
    ("tbk.charvar.apoly", "_apoly_modular", "charvar.modular"),
    ("tbk.charvar.apoly", "_ahat_mod_p", "charvar.modular.prime"),
    ("tbk.charvar.apoly", "_slice_squarefree", "charvar.modular.slice"),
    ("tbk.charvar.apoly", "_verify_vanishing", "charvar.modular.verify"),
    ("tbk.charvar.apoly", "split_components", "charvar.split"),
    ("tbk.charvar.apoly", "_int_poly_factors", "charvar.split.int_factor"),
    ("tbk.charvar.apoly", "_hensel_bivariate", "charvar.split.hensel"),
    ("tbk.charvar._modp", "resultant_scalar", "modp.resultant"),
    ("tbk.charvar._modp", "cauchy_interpolate", "modp.cauchy"),
    ("tbk.charvar._modp", "newton_interp", "modp.interp"),
    ("tbk.charvar._modp", "crt_pair", "modp.crt"),
    ("tbk.charvar._modp", "rational_reconstruct", "modp.ratrecon"),
    ("tbk.charvar._modp", "is_prime", "modp.is_prime"),
    ("tbk.exactnum.resultants", "poly_resultant", "exactnum.resultant"),
    ("tbk.exactnum.multipoly", "poly_squarefree_part", "exactnum.squarefree"),
    ("tbk.exactnum.textio", "format_apoly", "exactnum.format"),
    ("tbk.charvar.newton", "newton_polygon", "charvar.newton"),
    ("tbk.charvar.newton", "edge_slopes", "charvar.newton"),
    ("tbk.charvar.newton", "finite_edge_slopes_as_ints", "charvar.newton"),
)

SPAN_NAMES = ["bench.op"] + list(dict.fromkeys(name for _, _, name in SPANS))


class Tracer:
    """Spans and counters for one traced pass; ``reset`` starts the next."""

    def __init__(self):
        self._patches = []
        self._stack = []
        self.missing = []
        self.reset()

    def reset(self):
        self.spans = []
        self.counts = Counter()
        self.distinct_even = set()
        self.caches = []
        self.cache_points = 0
        self.cache_bytes = 0
        self._signatures = []

    # -- span recording ------------------------------------------------------

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except RecursionError:
                tracer.counts[name + ".recursion_errors"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
                tracer.counts[name + ".calls"] += 1
            tracer._after(name, args, result)
            return result

        return traced

    def counted(self, name, generator_fn):
        """Wrap a generator function to count the items it yields."""
        tracer = self

        def counting(*args, **kwargs):
            n = 0
            try:
                for item in generator_fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                tracer.counts[name] += n

        return counting

    def root(self, fn, *args):
        """Call fn(*args) under a root span named ``bench.op``."""
        return self.wrap("bench.op", fn)(*args)

    def _after(self, name, args, result):
        counts = self.counts
        if name == "modp.cauchy" and result is None:
            counts["modp.cauchy.failed"] += 1
        elif name == "charvar.modular.slice" and result is not None:
            counts["charvar.modular.slices_useful"] += 1
        elif name == "charvar.modular.prime" and result is not None:
            # images with the call's final (largest) signature are the
            # ones the CRT lift keeps; see _apoly_modular
            self._signatures.append(result[:2])
        elif name == "charvar.modular":
            sigs = self._signatures
            if sigs:
                counts["charvar.modular.primes_useful"] += sigs.count(max(sigs))
            self._signatures = []
            self._measure_caches()
        elif name == "charvar.split" and result is not None:
            counts["charvar.split.found"] += 1
        elif name == "idealpoints.classes":
            counts["idealpoints.classes.found"] += len(result)
        elif name == "confrac.all_even":
            self.distinct_even.add(args[0])

    def _measure_caches(self):
        for cache in self.caches:
            data = getattr(cache, "_data", {})
            points = len(data)
            size = 0
            for phim, pm, c in data.values():
                size += sys.getsizeof(phim) + sys.getsizeof(pm) + sys.getsizeof(c)
                size += sum(sys.getsizeof(x) for x in phim)
                size += sum(sys.getsizeof(x) for x in pm)
            self.cache_points = max(self.cache_points, points)
            self.cache_bytes = max(self.cache_bytes, size)
        self.caches = []

    # -- installation ----------------------------------------------------------

    def _rebind(self, original, replacement):
        """Bind ``replacement`` under every tbk module name that holds
        ``original`` (covers ``from x import f`` copies)."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "tbk" or modname.startswith("tbk.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _lookup(self, modname, attr):
        """tbk's ``modname.attr``, or None (noted in ``missing``) when a later
        version has moved or removed it; its metrics then read 0."""
        found = getattr(sys.modules.get(modname), attr, None)
        if found is None:
            self.missing.append(f"{modname}.{attr}")
        return found

    def install(self):
        self.missing = []
        for modname, attr, name in SPANS:
            original = self._lookup(modname, attr)
            if original is not None:
                self._rebind(original, self.wrap(name, original))

        valid_tuples = self._lookup("tbk.idealpoints", "_valid_tuples")
        if valid_tuples is not None:
            self._rebind(valid_tuples, self.counted("idealpoints.tuples", valid_tuples))

        cache_cls = self._lookup("tbk.charvar.apoly", "_PointCache")
        if cache_cls is None:
            return
        tracer = self
        cache_init = cache_cls.__init__

        def recorded_init(cache, *args, **kwargs):
            cache_init(cache, *args, **kwargs)
            tracer.caches.append(cache)

        self._patches.append((cache_cls, "__init__", cache_init))
        cache_cls.__init__ = recorded_init

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- aggregation -----------------------------------------------------------

    def _child_times(self):
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return child

    def self_times(self):
        """Self time per span name over the recorded spans."""
        child = self._child_times()
        out = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def root_shares(self, name):
        """(root span duration, self time of ``name`` under it) per root."""
        child = self._child_times()
        root_of = list(range(len(self.spans)))
        shares = {}
        for i, (span_name, start, end, parent) in enumerate(self.spans):
            if parent < 0:
                shares[i] = [end - start, 0.0]
            else:
                root_of[i] = root_of[parent]
            if span_name == name:
                shares[root_of[i]][1] += (end - start) - child[i]
        return [tuple(v) for v in shares.values()]


def estimated_overhead(spans, items, samples=20000):
    """Seconds that ``spans`` wrapped calls and ``items`` counted
    generator items cost over plain calls, timed on no-op stand-ins."""
    probe = Tracer()

    def noop():
        return None

    def items_of(n):
        yield from range(n)

    def cost(fn, plain):
        start = perf_counter()
        fn()
        traced = perf_counter() - start
        start = perf_counter()
        plain()
        return max(traced - (perf_counter() - start), 0.0) / samples

    wrapped = probe.wrap("probe", noop)
    per_span = cost(lambda: [wrapped() for _ in range(samples)],
                    lambda: [noop() for _ in range(samples)])
    counting = probe.counted("probe", items_of)
    per_item = cost(lambda: sum(1 for _ in counting(samples)),
                    lambda: sum(1 for _ in items_of(samples)))
    return spans * per_span + items * per_item
