import json
from math import gcd

import pytest

from tbk.cli import main
from tbk.knots import (
    KnotId,
    NotHyperbolicError,
    TwoComponentLinkError,
    double_twist_to_two_bridge,
    knot_equivalent,
)
from tbk.regression import PaperReport, run_paper_suite

from childproc import run_python


def limit_memory():
    """Cap a child process's address space at 1 GiB."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def test_knot_id_validation():
    with pytest.raises(ValueError):
        KnotId(2, 4)
    with pytest.raises(ValueError):
        KnotId(3, 9)
    with pytest.raises(ValueError):
        KnotId(7, 5)


def test_canonicalization_idempotent_and_respects_equivalence():
    for q in range(3, 40, 2):
        for p in range(1, q):
            if gcd(p, q) != 1:
                continue
            a = KnotId.canonical(p, q)
            assert KnotId.canonical(a.p, a.q) == a
            b = KnotId.canonical(pow(p, -1, q), q)
            assert a == b
            assert knot_equivalent(KnotId(p, q), KnotId(pow(p, -1, q), q))


def test_knot_equivalent_examples():
    assert knot_equivalent(KnotId(4, 15), KnotId(4, 15))  # 4*4 = 16 = 1 mod 15
    assert not knot_equivalent(KnotId(4, 15), KnotId(7, 15))
    assert knot_equivalent(KnotId(3, 7), KnotId(5, 7))  # 3*5 = 15 = 1 mod 7


def test_double_twist_examples():
    assert double_twist_to_two_bridge(4, 4) == KnotId(4, 15)
    assert double_twist_to_two_bridge(6, 6) == KnotId(6, 35)
    assert double_twist_to_two_bridge(2, -2) == KnotId(2, 5)
    with pytest.raises(TwoComponentLinkError):
        double_twist_to_two_bridge(3, 3)
    with pytest.raises(NotHyperbolicError):
        double_twist_to_two_bridge(1, 0)
    with pytest.raises(NotHyperbolicError):
        double_twist_to_two_bridge(2, 1)  # unknot


def test_double_twist_symmetric_in_arguments():
    for k in range(-6, 7):
        for l in range(-6, 7):
            if (k * l) % 2 or (abs(k) <= 1 and abs(l) <= 1):
                continue
            try:
                a = double_twist_to_two_bridge(k, l)
            except (NotHyperbolicError, ValueError):
                continue
            assert a == double_twist_to_two_bridge(l, k), (k, l)


def test_paper_report_json_roundtrip():
    # with the A-polynomial block: its check and its notes round-trip too
    report = run_paper_suite(2, 3)
    assert report.passed
    for record in report.records:
        assert "apoly-edge-slopes" in [c.name for c in record.checks]
        assert record.notes
    assert PaperReport.from_json(report.to_json()) == report


# -- CLI ---------------------------------------------------------------------


def test_cli_expand_json(capsys):
    assert main(["expand", "4/15", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["knot"] == {"p": 4, "q": 15}
    entries = [tuple(e["entries"]) for e in data["expansions"]]
    assert (4, -4) in entries and (3, 2, -2, 2) in entries
    reps = {tuple(e["entries"]): e["representative"] for e in data["expansions"]}
    assert reps[(4, -4)] == "4/15"
    assert reps[(-2, 2, -2, -3)] == "-11/15"


def test_cli_expand_accepts_cf_text(capsys):
    assert main(["expand", "[4,-4]", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["knot"] == {"p": 4, "q": 15}


def test_cli_slopes_json_schema(capsys):
    assert main(["slopes", "4/15", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"knot", "expansions", "symmetric_slopes", "all_slopes"}
    for e in data["expansions"]:
        assert set(e) == {"entries", "representative", "slope", "symmetric",
                          "ideal_points"}
    assert data["symmetric_slopes"] == [-14, 0]
    assert data["all_slopes"] == [-14, -8, 0]


def test_cli_jkl(capsys):
    assert main(["jkl", "4", "4"]) == 0
    assert "4/15" in capsys.readouterr().out
    assert main(["jkl", "3", "3"]) == 2  # two-component link


def test_cli_invalid_fraction_exit_code(capsys):
    # one message for every command, quoting the argument as typed
    for argv in (["expand", "1/4"], ["slopes", "nonsense"], ["apoly", "1/1"],
                 ["apoly", "0/5"], ["slopes", "7/3"], ["apoly", "5/3"],
                 ["expand", "3/9"], ["apoly", "1/-3"], ["expand", "[2]"]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == (
            f"error: {argv[1]!r}: expected a reduced fraction p/q"
            " with q odd and 0 < p < q\n")


def test_cli_slopes_long_expansion_exit_code():
    # 3200/3203 has an admissible expansion of about 1,070 entries
    proc = run_python(["-m", "tbk.cli", "slopes", "3200/3203", "--json"])
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["knot"] == {"p": 3200, "q": 3203}
    assert max(len(e["entries"]) for e in data["expansions"]) > 1000


def test_cli_elimination_error_exit_code(monkeypatch, capsys):
    from tbk.charvar import apoly

    def fail(*args):
        raise apoly.EliminationError("u-elimination produced the zero polynomial")

    monkeypatch.setattr(apoly, "_apoly_direct", fail)
    assert main(["apoly", "2/5"]) == 3
    assert capsys.readouterr().err == (
        "error: u-elimination produced the zero polynomial"
        " (in the engine's variable s = M^2)\n")

    def overflow(*args):
        raise RecursionError("maximum recursion depth exceeded")

    # other RuntimeErrors are not elimination failures and still propagate
    monkeypatch.setattr(apoly, "_apoly_direct", overflow)
    with pytest.raises(RecursionError):
        main(["apoly", "2/5"])


def test_cli_non_unique_all_even_expansion_exit_code(monkeypatch, capsys):
    from tbk import confrac

    # both representatives equal: the all-even expansion is found twice
    monkeypatch.setattr(confrac, "_representatives", lambda x: (x, x))
    assert main(["slopes", "4/15"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: all-even expansion of 4/15 is not unique")
    assert "Traceback" not in err

    def overflow(x):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(confrac, "_representatives", overflow)
    with pytest.raises(RecursionError):
        main(["slopes", "4/15"])


def test_cli_apoly_polygon_pipeline(tmp_path, capsys):
    out = tmp_path / "fig8.apoly"
    assert main(["apoly", "2/5", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("# apoly v1\nvars L M\n")
    assert main(["polygon", str(out)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert sorted(data["edge_slopes"]) == ["-4", "4"]
    assert main(["polygon", str(out), "--negate", "--half"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert sorted(data["edge_slopes"]) == ["-2", "2"]


def test_cli_apoly_keep_abelian(tmp_path, capsys):
    out = tmp_path / "trefoil.apoly"
    assert main(["apoly", "1/3", "--keep-abelian", "--out", str(out)]) == 0
    assert main(["polygon", str(out)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert "0" in data["edge_slopes"] and "6" in data["edge_slopes"]


def test_cli_valuation(tmp_path, capsys):
    f = tmp_path / "mats.txt"
    f.write_text("# sample matrices\nt ; 0 ; 0 ; 1/t\n1 ; 1/t ; 0 ; 1\n")
    assert main(["valuation", str(f)]) == 0
    out = capsys.readouterr().out
    assert "matrix 0: ord(trace) = -1, fixes_vertex = False" in out
    assert "certificate: g0" in out
    bad = tmp_path / "bad.txt"
    bad.write_text("t ; 0 ; 0 ; t\n")
    assert main(["valuation", str(bad)]) == 2
    negative = tmp_path / "negative.txt"
    negative.write_text("t ; 0 ; 0 ; t^-1\n")
    assert main(["valuation", str(negative)]) == 0
    assert "matrix 0: ord(trace) = -1" in capsys.readouterr().out


def test_cli_valuation_refuses_huge_power(tmp_path):
    # t^100000000 would be a dense polynomial of that degree without the
    # power cap; the address-space limit and the timeout turn a missing
    # cap into a failure, not a hang
    from tbk.valuation import MAX_POWER

    f = tmp_path / "huge.txt"
    f.write_text("t ; 0 ; 0 ; 1/t\nt^100000000 ; 0 ; 0 ; 1/t^100000000\n")
    proc = run_python(["-m", "tbk.cli", "valuation", str(f)],
                      timeout=60, preexec_fn=limit_memory)
    assert proc.returncode == 2, proc.stderr
    assert "line 2:" in proc.stderr
    assert f"passes MAX_POWER = {MAX_POWER}" in proc.stderr


@pytest.mark.parametrize("terms", (1200, 3000))
def test_cli_valuation_refuses_long_entry(tmp_path, terms):
    # a sum of 1,200 t's overflowed the evaluator's recursion and 3,000
    # the parser's; the length cap refuses both as invalid input
    from tbk.valuation import MAX_ENTRY_LENGTH

    f = tmp_path / "long.txt"
    f.write_text("t ; 0 ; 0 ; 1/t\n" + " + ".join(["t"] * terms) + " ; 0 ; 0 ; 1/t\n")
    proc = run_python(["-m", "tbk.cli", "valuation", str(f)], timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "line 2:" in proc.stderr
    assert f"passes MAX_ENTRY_LENGTH = {MAX_ENTRY_LENGTH}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_verify_small(capsys):
    assert main(["verify", "--paper", "--n-min", "2", "--n-max", "2"]) == 0
    out = capsys.readouterr().out
    assert "RESULT: PASS" in out
    assert "note:" in out  # polygon comparison printed in report mode


def test_cli_verify_usage_errors(capsys):
    assert main(["verify"]) == 2
    assert main(["verify", "--paper", "--n-min", "5", "--n-max", "3"]) == 2


def test_cli_verify_n_cap(capsys, monkeypatch):
    # n past the cap is refused before the suite runs; the default
    # --n-max 10 and n = 5 are admitted
    from tbk import cli, regression

    def refused(*args):
        raise AssertionError("the suite ran past the cap")

    monkeypatch.setattr(regression, "run_paper_suite", refused)
    assert main(["verify", "--paper", "--n-min", "5000", "--n-max", "5000"]) == 2
    err = capsys.readouterr().err
    assert f"--n-max 5000 is above the limit {cli.MAX_VERIFY_N}" in err
    assert "Traceback" not in err
    assert main(["verify", "--paper", "--n-max", str(cli.MAX_VERIFY_N + 1)]) == 2
    assert 10 <= cli.MAX_VERIFY_N


def test_cli_module_entry_point():
    proc = run_python(["-m", "tbk.cli", "expand", "4/15", "--json"])
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["knot"] == {"p": 4, "q": 15}
    proc = run_python(["-m", "tbk.cli", "jkl", "3", "3"])
    assert proc.returncode == 2
    assert "link" in proc.stderr


def test_cli_verify_json(capsys):
    assert main(["verify", "--paper", "--n-min", "2", "--n-max", "2",
                 "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["records"][0]["n"] == 2
    assert all(c["passed"] for c in data["records"][0]["checks"])


def test_cli_slopes_stress_fraction(capsys):
    # 166408/1845493 has an expansion [11,11,11,11,11,11]: 10^6 residue
    # tuples, counted in closed form
    assert main(["slopes", "166408/1845493", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["expansions"]) == 21
    assert sum(e["ideal_points"] for e in data["expansions"]) == 461669
    assert data["all_slopes"] == [-66, -44, -22, 0, 22, 44, 66]
    assert data["symmetric_slopes"] == []


def test_cli_expand_refuses_huge_repetition():
    # (2)_100000000 would be built in memory without the entry cap; the
    # address-space limit turns a missing cap into a failure, not a hang
    proc = run_python(["-m", "tbk.cli", "expand", "[(2)_100000000]"],
                      timeout=60, preexec_fn=limit_memory)
    assert proc.returncode == 2, proc.stderr
    assert "100000 entries" in proc.stderr


@pytest.mark.parametrize("text", ["[1,-1]", "[2,-1,2]"])
def test_cli_expand_refuses_a_zero_partial_denominator(text):
    # text that names no number is invalid input: exit 2 and one error
    # line, not a ZeroDenominatorError traceback
    proc = run_python(["-m", "tbk.cli", "expand", text], timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"error: zero partial denominator in {text}\n"


def test_cli_expand_refuses_long_walk():
    # [(2)_30] is 30 entries, but the admissible walk of its fraction
    # (q = 259717522849) runs far past the walk cap, which refuses it
    proc = run_python(["-m", "tbk.cli", "expand", "[(2)_30]"], timeout=30)
    assert proc.returncode == 2, proc.stderr
    assert "more than 100000 nodes" in proc.stderr


def test_cli_expand_walk_cap_names_huge_fraction(capsys, monkeypatch):
    # [(3)_8400] denotes a fraction of over 4,300 digits, past Python's
    # int-to-str limit, so the cap's message names it by its size
    from tbk import confrac

    monkeypatch.setattr(confrac, "MAX_WALK_NODES", 10)
    assert main(["expand", "[(3)_8400]"]) == 2
    err = capsys.readouterr().err
    assert "more than 10 nodes" in err
    assert "-bit denominator" in err


def test_cli_apoly_riley_degree_cap(capsys):
    # 1/4001 has Riley degree 2000; without the cap it would start an
    # elimination that does not finish
    from tbk import cli

    proc = run_python(["-m", "tbk.cli", "apoly", "1/4001"], timeout=30)
    assert proc.returncode == 2, proc.stderr
    assert "degree 2000" in proc.stderr
    assert f"limit {cli.MAX_RILEY_DEGREE}" in proc.stderr
    assert (99 - 1) // 2 <= cli.MAX_RILEY_DEGREE  # 10/99 = J(10,10) is admitted
    assert main(["apoly", "2/5"]) == 0
    assert capsys.readouterr().out.startswith("# apoly v1\n")


# -- one parser per process ----------------------------------------------------


def test_cli_parser_is_built_once():
    from tbk import cli

    assert cli.build_parser() is cli.build_parser()


def test_cli_options_do_not_leak_between_calls(tmp_path, capsys):
    out = tmp_path / "fig8.apoly"
    assert main(["apoly", "2/5", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["apoly", "2/5"]) == 0
    assert capsys.readouterr().out == out.read_text()
    assert main(["slopes", "4/15", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["knot"] == {"p": 4, "q": 15}
    assert main(["slopes", "4/15"]) == 0
    assert capsys.readouterr().out.startswith("knot 4/15\n")


def test_cli_runs_after_a_usage_error(capsys):
    for argv in (["apoly"], ["jkl", "4", "x"], ["nonsense"], ["slopes", "4/15", "--out", "f"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "usage: tbk" in capsys.readouterr().err
        assert main(["jkl", "4", "4"]) == 0
        assert "K(4,15)" in capsys.readouterr().out


def test_cli_runs_the_current_command_function(monkeypatch, capsys):
    # dispatch looks the command function up when main runs, so a patched
    # or traced one is called even though the parser was built before
    from tbk import cli

    assert main(["jkl", "4", "4"]) == 0
    calls = []

    def fake_jkl(args):
        calls.append((args.k, args.l))
        return 7

    monkeypatch.setattr(cli, "_cmd_jkl", fake_jkl)
    assert main(["jkl", "6", "6"]) == 7
    assert calls == [(6, 6)]
    monkeypatch.undo()
    assert main(["jkl", "6", "6"]) == 0
    assert "K(6,35)" in capsys.readouterr().out


def test_cli_shared_parser_output_matches_a_fresh_parser(monkeypatch, capsys):
    # the 28 fractions with q odd and at most 11, as the apoly-sweep
    # benchmark runs them: byte-identical text with the shared parser and
    # with a new parser on every call
    from tbk import cli

    fractions = [f"{p}/{q}" for q in range(3, 12, 2) for p in range(1, q) if gcd(p, q) == 1]
    assert len(fractions) == 28

    def texts():
        found = []
        for fraction in fractions:
            assert main(["apoly", fraction]) == 0
            found.append(capsys.readouterr().out)
        return found

    shared = texts()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert cli.build_parser() is not cli.build_parser()
    assert texts() == shared
    assert all(text.startswith("# apoly v1\n") for text in shared)


def test_benchmark_imports_leave_regression_and_valuation_unloaded():
    # the modules a benchmark run loads before its first timed call; the
    # two below load on first use, and the package still exports their names
    proc = run_python(["-c", (
        "import sys\n"
        "import tbk, tbk.charvar, tbk.cli\n"
        "print(sorted(m for m in ('tbk.regression', 'tbk.valuation') if m in sys.modules))\n"
        "from tbk import *\n"
        "print(PaperReport.__module__, run_paper_suite.__module__)\n")],
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "tbk.regression tbk.regression"]
