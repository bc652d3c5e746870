"""tools/bench_pairs.py's summary and claim rule, on made-up runs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = {"pass_s": {"name": "pass_s", "unit": "s", "better": "lower"},
              "found": {"name": "found", "unit": "count", "better": "higher"}}


def runs(parent, change):
    out = []
    for seed, pair in enumerate(zip(parent, change)):
        for side, value in zip(bench_pairs.SIDES, pair):
            out.append({"workload": "w", "seed": seed, "side": side, "last_line": {
                "correct": True, "failed": 0,
                "metrics": {"pass_s": {"value": value, "unit": "s"},
                            "found": {"value": value, "unit": "count"}}}})
    return out


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
FASTER = [0.80 + i / 1000 for i in range(10)]


def test_claim_needs_nine_tenths_of_the_pairs_and_more_than_the_parent_spread():
    both = runs(PARENT, FASTER)
    summary = bench_pairs.summarize(both, END_TO_END)
    row = summary["w"]["pass_s"]
    assert row["change_better_pairs"] == "10/10"
    assert row["parent_range"] == [0.97, 1.03]
    assert summary["w"]["found"]["change_better_pairs"] == "0/10"  # higher is better
    assert bench_pairs.judge_claim("w:pass_s", both, END_TO_END)["met"]
    assert not bench_pairs.judge_claim("w:found", both, END_TO_END)["met"]

    # two pairs lost: 8/10 is below nine tenths
    mixed = runs(PARENT, FASTER[:8] + [1.10, 1.10])
    assert bench_pairs.summarize(mixed, END_TO_END)["w"]["pass_s"]["change_better_pairs"] == "8/10"
    assert not bench_pairs.judge_claim("w:pass_s", mixed, END_TO_END)["met"]

    # every pair won, by less than the parent's quartile spread
    close = runs(PARENT, [p - 0.001 for p in PARENT])
    claim = bench_pairs.judge_claim("w:pass_s", close, END_TO_END)
    assert claim["change_better_pairs"] == "10/10"
    assert claim["median_gain"] < claim["parent_quartile_spread"]
    assert not claim["met"]

    # every pair won by far, but fewer pairs than a claim needs
    few = runs(PARENT[:5], FASTER[:5])
    assert not bench_pairs.judge_claim("w:pass_s", few, END_TO_END)["met"]


def test_a_run_without_output_is_left_out_of_its_pair():
    both = runs([1.0, 1.0], [0.9, 0.9])
    both[-1] = {"workload": "w", "seed": 1, "side": "change", "error": "exit 1"}
    summary = bench_pairs.summarize(both, END_TO_END)
    assert summary["w"]["pass_s"]["change_better_pairs"] == "1/1"


def test_an_incorrect_run_leaves_its_pair_out_and_fails_the_claim():
    both = runs(PARENT, FASTER)
    both[3]["last_line"]["correct"] = False  # seed 1, the change's run
    assert bench_pairs.summarize(both, END_TO_END)["w"]["pass_s"]["change_better_pairs"] == "9/9"
    claim = bench_pairs.judge_claim("w:pass_s", both, END_TO_END)
    assert claim["pairs_left_out"] == 1
    assert not claim["met"]


def test_a_claim_fails_where_the_change_fails_more_operations():
    both = runs(PARENT, FASTER)
    both[5]["last_line"]["failed"] = 2  # seed 2, the change's run
    claim = bench_pairs.judge_claim("w:pass_s", both, END_TO_END)
    assert claim["change_better_pairs"] == "10/10"
    assert claim["pairs_change_failed_more"] == 1
    assert not claim["met"]
    both[4]["last_line"]["failed"] = 2  # the parent fails as many
    assert bench_pairs.judge_claim("w:pass_s", both, END_TO_END)["met"]


def test_an_existing_bench_file_is_not_overwritten(tmp_path, monkeypatch):
    (tmp_path / "BENCH_7.json").write_text("{}\n")
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    with pytest.raises(SystemExit, match="exists"):
        bench_pairs.main(["--pr", "7"])
    assert (tmp_path / "BENCH_7.json").read_text() == "{}\n"


def test_a_median_worse_than_its_bound_is_flagged():
    # a slopes-mix setup_s 26% above the parent's against a bound of 0.25
    # (a refused change read exactly this, with every other metric flat),
    # and a peak_rss_mb 8.3% above it against 0.2, which is within bounds
    end_to_end = {
        "setup_s": {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        "peak_rss_mb": {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.2},
        "found": {"name": "found", "unit": "count", "better": "higher", "bound": 0.1},
    }
    out = []
    for seed in range(10):
        for side, (setup, rss, found) in zip(bench_pairs.SIDES, ((0.100, 24.0, 10),
                                                                 (0.126, 26.0, 8))):
            out.append({"workload": "slopes-mix", "seed": seed, "side": side, "last_line": {
                "correct": True, "failed": 0, "metrics": {
                    "setup_s": {"value": setup, "unit": "s"},
                    "peak_rss_mb": {"value": rss, "unit": "MB"},
                    "found": {"value": found, "unit": "count"}}}})
    summary = bench_pairs.summarize(out, end_to_end)
    assert summary["slopes-mix"]["peak_rss_mb"]["change_vs_parent"] == pytest.approx(1 / 12)
    flags = bench_pairs.regressions(summary, end_to_end)
    assert [(f["workload"], f["metric"]) for f in flags] == [
        ("slopes-mix", "setup_s"), ("slopes-mix", "found")]
    assert flags[0]["change_vs_parent"] == pytest.approx(0.26)
    assert flags[0]["bound"] == 0.25
    # the end-to-end specs without a bound flag nothing
    assert bench_pairs.regressions(bench_pairs.summarize(runs(PARENT, FASTER), END_TO_END),
                                   END_TO_END) == []
