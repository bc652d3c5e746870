"""The benchmark tracer wraps tbk functions by (module, attribute) name.

A refactor that moves or renames one of them leaves its per-layer rows
reading 0 without any error, so every target must resolve.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_span_targets_resolve():
    spans = _load_tracing().SPANS
    targets = [(modname, attr) for modname, attr, _ in spans]
    targets += [("tbk.idealpoints", "_valid_tuples"),
                ("tbk.charvar.apoly", "_PointCache")]
    missing = [f"{modname}.{attr}" for modname, attr in targets
               if not callable(getattr(importlib.import_module(modname), attr, None))]
    assert not missing, missing


def test_tracer_records_a_traced_elimination():
    # a traced a_polynomial on 4/15 (direct engine) and 6/35 (modular):
    # every span target resolves, the slices are counted, and the point
    # caches are measured, which reads each _PointCache._data value as
    # (phi(m), R(m), c); a change to that shape fails here
    from fractions import Fraction

    from tbk.charvar import a_polynomial

    tracing = _load_tracing()
    for modname, _, _ in tracing.SPANS:  # the tracer binds in loaded modules only
        importlib.import_module(modname)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for pq in (Fraction(4, 15), Fraction(6, 35)):
            a_polynomial(pq)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert tracer.counts["charvar.modular.slice.calls"] > 0
    assert tracer.cache_points > 0
