import csv
import functools
import hashlib
import io
import json
import re
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gradus import checks, rootsys, weyl
from gradus import ideals as ideals_mod
from gradus.arrangement import (
    char_poly, char_poly_points, coxeter_arrangement, ideal_count_formula,
)
from gradus.cli import UsageError, _json_text, main, parse_root, parse_root_list
from gradus.grading import Grading, extra_special
from gradus.polys import from_int_roots
from gradus.rootsys import BUDGET, build


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as e:  # argparse errors
        code = e.code
    out, err = capsys.readouterr()
    return code, out, err


def test_show_json_payload(capsys):
    code, out, err = run_cli(["show", "A2:1,0", "--json"], capsys)
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["grading"] == "A2:1,0"
    assert data["marks"] == [1, 0]
    assert data["coxeter_number"] == 3
    assert data["abelian"] is True
    assert data["positive_slice_sizes"] == [1, 2]
    assert data["theta"] == "a1+a2"


def test_show_walks_only_the_levels_that_occur(capsys, monkeypatch):
    # Level 0 and the levels that occur, so a huge mark costs nothing per
    # level; a gap between levels is left out rather than listed empty.
    calls = []
    real = Grading.level_mask

    def counted(self, i):
        calls.append(i)
        return real(self, i)

    monkeypatch.setattr(Grading, "level_mask", counted)
    code, out, _ = run_cli(["show", "A2:1000000,1", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert list(data["positive_slices"]) == ["0", "1", "1000000", "1000001"]
    assert data["positive_slice_sizes"] == [0, 1, 1, 1]
    assert len(calls) < 20


def test_show_human_output(capsys):
    code, out, _ = run_cli(["show", "B2:es"], capsys)
    assert code == 0
    assert out.startswith("grading: B2:0,1\n")
    assert "extra_special: True" in out


def test_show_rejects_zero_marks(capsys):
    code, out, err = run_cli(["show", "A2:0,0"], capsys)
    assert code == 2
    assert "marks" in err


def test_ideals_json(capsys):
    code, out, _ = run_cli(["ideals", "A2:1,0", "--json", "--poly"], capsys)
    data = json.loads(out)
    assert code == 0
    assert data["count"] == 3
    assert data["antichain_count"] == 3
    assert data["m_polynomial"] == [1, 1, 1]


def test_ideals_csv_listing(capsys):
    code, out, _ = run_cli(["ideals", "A2:1,0", "--csv", "--list"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 3
    assert rows[0]["size"] == "0"
    assert rows[-1]["roots"] == "a1 a1+a2"


def test_weyl_counts(capsys):
    code, out, _ = run_cli(["weyl", "B2:es", "--json", "--min", "--max"], capsys)
    data = json.loads(out)
    assert code == 0
    assert data["coset_count"] == 4
    assert data["min_count"] == 3 and data["max_count"] == 3
    assert data["ideal_polynomial"] == [1, 1, 1]
    words = [row["word"] for row in data["minimal"]]
    assert words == ["e", "s2", "s2 s1 s2"]


@pytest.mark.parametrize("spec", ["A3:0,1,0", "B3:0,1,0", "D4:0,1,0,0"])
def test_weyl_prints_each_element_with_one_word(capsys, spec):
    # every w_min and w_max is a coset too, and its eta row spells it the same
    code, out, _ = run_cli(["weyl", spec, "--min", "--max", "--eta", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    extremes = {row["word"] for key in ("minimal", "maximal") for row in data[key]}
    assert extremes <= {row["word"] for row in data["eta"]}


def test_weyl_eta_rejects_a_grading_before_any_work(capsys, monkeypatch):
    def no_table(g):
        raise AssertionError("coset table built before --eta was checked")

    monkeypatch.setattr(weyl, "CosetTable", no_table)
    code, out, err = run_cli(["weyl", "E6:1,1,1,1,1,1", "--eta"], capsys)
    assert (code, out) == (2, "")
    assert err == "gradus weyl: --eta needs a grading with a single marked node\n"


def test_element_pinned(capsys):
    code, out, _ = run_cli(["element", "B2:es", "--ideal", "a2", "--json"], capsys)
    data = json.loads(out)
    assert code == 0
    assert data["w_min"]["word"] == "s2"
    assert data["w_max"]["word"] == "s1 s2"
    assert data["max_of_ideal"] == ["a2"]
    assert data["min_of_complement"] == ["a1+a2"]
    assert data["fiber_size"] == 2


def test_element_walks_its_fiber_without_a_coset_table(capsys, monkeypatch):
    def no_table(g):
        raise AssertionError("coset table built for one fiber")

    monkeypatch.setattr(weyl, "CosetTable", no_table)
    code, out, _ = run_cli(["element", "B2:es", "--ideal", "a2", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["fiber_size"] == 2


def test_element_is_bounded_by_its_fiber_not_its_cosets(capsys):
    # 2,903,040 cosets, far over the budget, but this fiber has 125 elements
    code, out, err = run_cli(["element", "E7:1,1,1,1,1,1,1", "--ideal", "a1", "--json"],
                             capsys)
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert (data["fiber_size"], data["w_max"]["length"]) == (125, 33)


def test_element_is_refused_when_its_fiber_exceeds_the_budget(capsys, monkeypatch):
    build("E7")  # its 882 reflection images are over the lowered budget too
    argv = ["element", "E7:1,1,1,1,1,1,1", "--ideal", "a1"]
    monkeypatch.setattr(rootsys, "BUDGET", 100)
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err == ("gradus element: the fiber of {a1} in E7:1,1,1,1,1,1,1 "
                   "exceeds the budget of 100 elements\n")
    monkeypatch.setattr(rootsys, "BUDGET", 125)
    assert run_cli(argv, capsys)[0] == 0


def test_element_empty_ideal(capsys):
    code, out, _ = run_cli(["element", "B2:es", "--ideal", "", "--json"], capsys)
    data = json.loads(out)
    assert code == 0
    assert data["w_min"]["word"] == "e"
    assert data["fiber_size"] == 1


def test_element_rejects_non_ideal(capsys):
    code, _, err = run_cli(["element", "B2:es", "--ideal", "a1+a2"], capsys)
    assert code == 2
    assert "not a lower ideal" in err


def test_arrangement_report(capsys):
    code, out, _ = run_cli(["arrangement", "G2:es", "--json"], capsys)
    data = json.loads(out)
    assert code == 0
    assert data["region_count"] == 5
    assert data["ideal_count"] == 5
    assert data["char_poly"] == [4, -5, 1]
    assert data["exponents_match"] is True


def test_verify_scoped(capsys):
    code, out, _ = run_cli(["verify", "--suite", "ideals", "B2:es"], capsys)
    assert code == 0
    assert "0 failures" in out


def test_verify_json(capsys):
    code, out, _ = run_cli(
        ["verify", "--suite", "rootsys", "--json", "A2"], capsys)
    data = json.loads(out)
    assert code == 0
    assert data["failures"] == 0
    assert data["total"] == len(data["checks"])
    assert all(row["ok"] for row in data["checks"])


def test_verify_exit_one_on_failure(capsys):
    @checks.suite("zz-always-red", per="type")
    def _always_red(rs):
        yield "forced", False, "boom"

    try:
        code, out, _ = run_cli(["verify", "--suite", "zz-always-red", "A2"], capsys)
        assert code == 1
        assert "FAIL" in out
    finally:
        del checks.SUITES["zz-always-red"]


def test_parser_is_built_once_and_reads_the_live_suite_registry(capsys):
    from gradus.cli import _build_parser

    parser = _build_parser()
    assert _build_parser() is parser

    @checks.suite("zz-late", per="type")
    def _late(rs):
        yield "late", True, ""

    try:
        code, out, _ = run_cli(["verify", "--suite", "zz-late", "A2"], capsys)
        assert code == 0 and out.endswith("1 checks, 0 failures, 0 skipped\n")
    finally:
        del checks.SUITES["zz-late"]


def test_verify_csv_with_no_rows_prints_the_header(capsys):
    code, out, err = run_cli(["verify", "--suite", "e7", "A3", "--csv"], capsys)
    assert (code, out, err) == (0, "suite,subject,name,ok,status,detail\n", "")


def test_non_essential_arrangement_matches_its_exponents(capsys):
    code, out, _ = run_cli(["arrangement", "A2:2,1", "--json"], capsys)
    data = json.loads(out)
    assert code == 0
    assert data["char_poly"] == [0, -1, 1] and data["exponents_match"] is True
    code, out, _ = run_cli(["verify", "A2:2,1", "--suite", "charpoly"], capsys)
    assert code == 0 and out.endswith(" 0 failures, 0 skipped\n")


def test_verify_reports_skip_above_bound(capsys):
    # fibers has a grading body only, which walks each coset table: E6's
    # sweep is refused by its cosets summed, before any table is walked
    code, out, _ = run_cli(["verify", "E6", "--suite", "fibers"], capsys)
    assert code == 0
    assert out == ("[ skip ] fibers     E6               budget -- "
                   "486,396 cosets over 63 gradings of E6 exceed the budget of 51,840\n"
                   "1 checks, 0 failures, 1 skipped\n")
    code, out, _ = run_cli(["verify", "E6", "--suite", "fibers", "--json"], capsys)
    data = json.loads(out)
    assert code == 0
    assert (data["total"], data["failures"], data["skipped"]) == (1, 0, 1)
    assert data["checks"][0]["status"] == "skip"


def test_verify_shows_info_detail(capsys):
    code, out, _ = run_cli(["verify", "--suite", "ideals", "B2:es"], capsys)
    assert code == 0
    assert ("[ info ] ideals     B2:0,1           self-dual-count-report"
            " -- self-dual 1, M(-1) 1 (compared, not asserted)\n") in out
    assert out.endswith("5 checks, 0 failures, 0 skipped\n")
    code, out, _ = run_cli(["verify", "--suite", "counting", "F4:1,0,0,0"], capsys)
    assert code == 0
    assert out == ("[  ok  ] counting   F4:1,0,0,0       height-product-formula\n"
                   "1 checks, 0 failures, 0 skipped\n")


@pytest.mark.parametrize("argv", [
    ["show", "A2:1,0", "--allow-huge"],
    ["verify", "--allow-huge", "--suite", "rootsys", "A2"],
    ["arrangement", "A2:1,0", "--charpoly"],
    ["show", "A2:1,0", "--max-rank", "8"],
])
def test_removed_flags_are_usage_errors(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert "unrecognized arguments" in err


def test_verify_runs_rank_8_without_a_flag(capsys):
    # A rank-8 type is a sweep of 255 gradings, well within the budget;
    # --max-rank bounds --all and nothing else.
    code, out, _ = run_cli(["verify", "--suite", "rootsys", "E8"], capsys)
    assert code == 0
    assert out.endswith("5 checks, 0 failures, 0 skipped\n")
    code, out, err = run_cli(["verify", "--suite", "rootsys", "E8", "--max-rank", "8"], capsys)
    assert code == 2 and out == ""
    assert "--all" in err


def test_verify_grading_token_needs_no_flag_at_rank_8(capsys):
    for spec in ["E6:1,0,0,0,0,0", "E8:1,0,0,0,0,0,0,0"]:
        code, out, _ = run_cli(["verify", "--suite", "rootsys", spec], capsys)
        assert code == 0
        assert out.endswith("5 checks, 0 failures, 0 skipped\n")


def test_verify_refuses_a_sweep_by_its_number_of_gradings(capsys, monkeypatch):
    # 2^16 - 1 gradings: refused before the first one is built, however
    # cheap the rank-16 root system itself is.
    def no_grading(self, rs, marks):
        raise AssertionError("a grading was built before the sweep was refused")

    monkeypatch.setattr(Grading, "__init__", no_grading)
    start = time.perf_counter()
    code, out, err = run_cli(["verify", "A16"], capsys)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == "gradus verify: 65,535 gradings of A16 exceed the budget of 51,840\n"


def test_verify_all_refuses_the_largest_sweep_before_building_any(capsys, monkeypatch):
    # Every type up to rank 16 is resolved first and the sweeps are built
    # from the highest rank down, so A16's 65,535 gradings are refused
    # before a grading of a smaller sweep is built.
    def no_grading(self, rs, marks):
        raise AssertionError("a grading was built before the sweep was refused")

    monkeypatch.setattr(Grading, "__init__", no_grading)
    code, out, err = run_cli(["verify", "--all", "--max-rank", "16"], capsys)
    assert (code, out) == (2, "")
    assert err == "gradus verify: 65,535 gradings of A16 exceed the budget of 51,840\n"


def test_a_type_only_suite_computes_no_levels_of_its_sweep(capsys, monkeypatch):
    # A sweep builds its gradings but a type body reads none of them: only
    # the extra-special grading computes its levels, to test its level 1.
    computed = []
    real = Grading.levels.func

    def counted(self):
        computed.append(self.marks)
        return real(self)

    levels = functools.cached_property(counted)
    levels.__set_name__(Grading, "levels")
    monkeypatch.setattr(Grading, "levels", levels)
    for scope in ["E8", "B5", "D6"]:
        code, out, _ = run_cli(["verify", "--suite", "rootsys", scope], capsys)
        assert code == 0 and out.endswith("5 checks, 0 failures, 0 skipped\n")
        assert set(computed) <= {extra_special(build(scope)).marks}, scope
        computed.clear()


def test_verify_with_no_scope_has_nothing_to_verify(capsys):
    assert run_cli(["verify"], capsys) == (
        2, "", "gradus verify: nothing to verify: pass types/gradings or --all\n")


def test_verify_e7_alone_runs_the_paper_grading_without_a_sweep(capsys, monkeypatch):
    def no_sweep(rs):
        raise AssertionError(f"the sweep of {rs.cartan_type} was built")

    monkeypatch.setattr(checks, "sweep_gradings", no_sweep)
    code, out, err = run_cli(["verify", "--suite", "e7"], capsys)
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "[  ok  ] e7         E7:0,1,0,0,0,0,0 height-partition",
        "[  ok  ] e7         E7:0,1,0,0,0,0,0 counts-internally-consistent",
        "[ info ] e7         E7:0,1,0,0,0,0,0 stated-count-verdict -- direct enumeration "
        "352 vs 252 quoted in the source example (reported, not asserted)",
        "3 checks, 0 failures, 0 skipped",
    ]


def test_show_csv_is_one_key_value_row_per_field(capsys):
    code, out, err = run_cli(["show", "B2:es", "--csv"], capsys)
    assert (code, err) == (0, "")
    assert out == (
        'key,value\n'
        'grading,"B2:0,1"\n'
        'rank,2\n'
        'marks,"[0, 1]"\n'
        'coxeter_number,4\n'
        'theta,a1+2a2\n'
        'exponents,"[1, 3]"\n'
        'long_simple,"[""a1""]"\n'
        'standard,True\n'
        'abelian,False\n'
        'extra_special,True\n'
        'max_level,2\n'
        'positive_slice_sizes,"[1, 2, 1]"\n'
        'marked_simples_by_level,"{""0"": [""a1""], ""1"": [""a2""]}"\n'
        'positive_slices,"{""0"": [""a1""], ""1"": [""a2"", ""a1+a2""], ""2"": [""a1+2a2""]}"\n'
    )


def test_verify_refuses_a_grading_with_an_empty_level_1(capsys):
    for spec, name in [("B2:2,0", "B2:2,0"), ("A1:es", "A1:2")]:
        for command in ["verify", "ideals"]:
            assert run_cli([command, spec], capsys) == (
                2, "", f"gradus {command}: slice 1 of {name} is empty\n")


def test_verify_runs_one_target_per_type(capsys):
    totals = []
    for scope in [["A3"], ["A3", "A3:0,1,0"], ["A3:0,1,0", "A3", "A3:0,1,0"]]:
        code, out, _ = run_cli(["verify", *scope, "--json"], capsys)
        data = json.loads(out)
        assert code == 0 and data["targets"] == ["A3"]
        totals.append(data["total"])
    assert totals == [268, 268, 268]
    # a mixed scope is grouped per type, in the order first named
    code, out, _ = run_cli(["verify", "--suite", "grading", "A2:0,1", "B2:es", "A2:1,0",
                            "A2:0,1", "--json"], capsys)
    data = json.loads(out)
    assert code == 0 and data["targets"] == ["A2", "B2"]
    subjects = list(dict.fromkeys(r["subject"] for r in data["checks"]))
    assert subjects == ["A2:0,1", "A2:1,0", "B2:0,1"]
    # the sweeps are built from the highest rank down, the targets kept
    # in the order first named
    code, out, _ = run_cli(["verify", "--suite", "rootsys", "A2", "E6", "B3:es", "A4",
                            "--json"], capsys)
    assert code == 0 and json.loads(out)["targets"] == ["A2", "E6", "B3", "A4"]


def test_input_checks_run_before_any_build(capsys, monkeypatch):
    # Building A120 takes about 20 s; a wrong mark count, or --max-rank
    # without --all, is refused before anything is built.
    def no_build(cartan_type):
        raise AssertionError(f"{cartan_type} built before its input was checked")

    monkeypatch.setattr(rootsys, "_build", no_build)
    refusal = "gradus verify: --max-rank bounds the types of --all; pass --all or drop it\n"
    for argv, err in [
        (["show", "A120:1"], "gradus show: expected 120 marks, got 1\n"),
        (["verify", "--suite", "rootsys", "E8", "--max-rank", "8"], refusal),
        (["verify", "--suite", "rootsys", "E8:1,0,0,0,0,0,0,0", "--max-rank", "8"], refusal),
    ]:
        assert run_cli(argv, capsys) == (2, "", err)


def test_where_the_budget_falls(capsys, monkeypatch):
    # chi is admitted for exactly the types of rank <= 5, A6 (19,839 fibre
    # points at q = 2 ... 11) and B6, C6 and D6 (50,749 at q = 3 ... 13) ...
    assert [n for n in checks.default_types(8) if char_poly_points(build(n)) <= BUDGET] == (
        checks.default_types(5) + ["A6", "B6", "C6", "D6"])
    a6 = build("A6")
    assert char_poly_points(a6) == 19_839
    assert char_poly_points(build("B6")) == 50_749
    assert char_poly(coxeter_arrangement(a6)) == from_int_roots(a6.exponents)
    # ... every coset table and ideal count of a rank <= 5 sweep is within it ...
    for name in checks.default_types(5):
        rs = build(name)
        for g in checks.sweep_gradings(rs):
            assert weyl.km_order(rs) / weyl.levi_order(g) <= BUDGET
            assert ideal_count_formula(g) <= BUDGET
    # ... and a rank-8 query within it answers.
    assert run_cli(["show", "E8:es"], capsys)[0] == 0

    class Walked(Exception):
        pass

    def walk(u, v):
        raise Walked

    monkeypatch.setattr(weyl, "_compose", walk)
    with pytest.raises(Walked):  # all-marked E6, |W(E6)| = BUDGET, is admitted
        main(["weyl", "E6:1,1,1,1,1,1"])
    start = time.perf_counter()
    code, out, err = run_cli(["weyl", "D7:1,1,1,1,1,1,1"], capsys)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == ("gradus weyl: 322,560 cosets of D7:1,1,1,1,1,1,1 "
                   "exceed the budget of 51,840\n")


def test_a_build_over_the_budget_is_refused_at_once(capsys):
    spec = "A80:" + ",".join(["1"] + ["0"] * 79)
    start = time.perf_counter()
    code, out, err = run_cli(["show", spec], capsys)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == ("gradus show: 518,400 reflection images of A80 "
                   "exceed the budget of 51,840\n")


def test_ideals_refuses_over_the_budget_before_enumerating(capsys, monkeypatch):
    # The walk refuses itself: the refusal comes from the poset, not the CLI.
    def no_walk(down_masks):
        raise AssertionError("ideals walked before the budget was checked")

    build("A3")  # its 36 reflection images are over the lowered budget too
    monkeypatch.setattr(rootsys, "BUDGET", 5)
    monkeypatch.setattr(ideals_mod, "iter_downclosed", no_walk)
    code, out, err = run_cli(["ideals", "A3:0,1,0", "--list"], capsys)
    assert (code, out) == (2, "")
    assert err == "gradus ideals: 6 lower ideals of A3:0,1,0 exceed the budget of 5\n"


def test_verify_passes_a_non_standard_grading(capsys):
    code, out, _ = run_cli(["verify", "A2:3,1"], capsys)
    assert code == 0
    assert out.endswith("46 checks, 0 failures, 0 skipped\n")


def test_verify_runs_a_repeated_suite_once(capsys):
    code, out, _ = run_cli(["verify", "--suite", "rootsys", "--suite", "rootsys", "A2"], capsys)
    assert code == 0
    assert out.endswith("5 checks, 0 failures, 0 skipped\n")
    argv = ["verify", "--suite", "km", "--suite", "rootsys", "--suite", "km", "A2", "--json"]
    code, out, _ = run_cli(argv, capsys)
    data = json.loads(out)
    assert code == 0 and data["suites"] == ["km", "rootsys"]
    assert [r["suite"] for r in data["checks"]] == ["km"] * 4 + ["rootsys"] * 5


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(["verify", "--suite", "nope", "A2"], capsys)
    assert code == 2


def test_json_and_csv_conflict(capsys):
    code, _, err = run_cli(["show", "A2:1,0", "--json", "--csv"], capsys)
    assert code == 2


def test_out_writes_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(["show", "A3:0,1,0", "--json", "--out", str(path)], capsys)
    assert code == 0 and out == ""
    code2, direct, _ = run_cli(["show", "A3:0,1,0", "--json"], capsys)
    assert path.read_text() == direct


def test_json_double_run_identical(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run_cli(["arrangement", "B3:0,1,0", "--json"], capsys)
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
    assert runs[0].endswith("\n")


def test_parse_root():
    rs = build("B2")
    assert parse_root(rs, "a1+2a2").coords == (1, 2)
    assert parse_root(rs, "2a2 + a1").coords == (1, 2)
    assert parse_root(rs, "A2").coords == (0, 1)
    with pytest.raises(UsageError):
        parse_root(rs, "a5")
    with pytest.raises(UsageError):
        parse_root(rs, "2a1")
    with pytest.raises(UsageError):
        parse_root(rs, "zz")


def test_parse_root_list():
    rs = build("B2")
    assert parse_root_list(rs, "") == []
    got = parse_root_list(rs, "a2, a1+a2")
    assert [r.coords for r in got] == [(0, 1), (1, 1)]


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gradus.cli", "ideals", "G2:es", "--json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 5


# sha256 of `gradus verify --all --max-rank 5 --json`: every row name,
# verdict and detail string of every suite over every type up to rank 5.
VERIFY_ALL_RANK_5_SHA256 = "f4c8f057c3a997b1ab30fb1f8cf3fed5a9006e4a6c109a7f3e98a074a98c4a9a"


@pytest.mark.slow
def test_verify_all_rank_5_json_is_pinned():
    proc = subprocess.run(
        [sys.executable, "-m", "gradus.cli", "verify", "--all", "--max-rank", "5", "--json"],
        capture_output=True)
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == VERIFY_ALL_RANK_5_SHA256


# sha256 of `gradus verify --all --max-rank 4 --json`: the 4,273 rows of
# every suite over every type up to rank 4, cheap enough to run in process.
VERIFY_ALL_RANK_4_SHA256 = "86a7e89c6d245319ccca38e09555b11b5664403a4f96e4c509a2b803ca631da3"


def test_verify_all_rank_4_json_is_pinned(capsys):
    code, out, err = run_cli(["verify", "--all", "--max-rank", "4", "--json"], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["total"] == 4273
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_RANK_4_SHA256


# A skip row is a budget refusal: it names a size and the budget.
SKIP_DETAIL = re.compile(r"[1-9][\d,]* .+ exceed the budget of ([\d,]+)")


def _skips_name_a_size(data):
    skips = [r for r in data["checks"] if r["status"] == "skip"]
    assert len(skips) == data["skipped"]
    for r in skips:
        m = SKIP_DETAIL.fullmatch(r["detail"])
        assert m and r["name"] == "budget" and m.group(1) == f"{BUDGET:,}", r
    return skips


def test_every_skip_names_a_size_or_a_swept_rank(capsys):
    # A sum over a sweep is refused in one row about the type, and only by a
    # suite with a grading body; a named grading is refused by its own walk.
    for argv in (["--all", "--max-rank", "5"], ["E6", "--suite", "fibers"],
                 ["E7:0,1,0,0,0,0,0"], ["E6:1,0,0,0,0,0"]):
        code, out, _ = run_cli(["verify", *argv, "--json"], capsys)
        data = json.loads(out)
        assert code == 0 and data["failures"] == 0
        skips = _skips_name_a_size(data)
        assert skips, argv
        for r in skips:
            if " over " in r["detail"]:
                assert ("grading" in checks.SUITES[r["suite"]].bodies
                        and r["subject"] == "E6"), r


def test_verify_runs_the_paper_grading_through_every_suite(capsys):
    # Only the budget refuses anything on E7:0,1,0,0,0,0,0: W(E7), its 2^63
    # masks and chi's fibre points.  Three suites count its 352 ideals.
    code, out, _ = run_cli(["verify", "E7:0,1,0,0,0,0,0", "--json"], capsys)
    data = json.loads(out)
    assert code == 0
    assert (data["total"], data["failures"], data["skipped"]) == (50, 0, 6)
    assert {r["name"] for r in _skips_name_a_size(data)} == {"budget"}
    detail = {(r["suite"], r["name"]): r["detail"] for r in data["checks"]}
    assert detail["ideals", "count-three-ways"] == "M(1)=352, ideals=352, antichains=352"
    assert detail["regions", "region-ideal-bijection"] == "352 regions, 352 ideals"
    assert detail["counting", "height-product-formula"] == "product 352, enumeration 352"


# sha256 of `gradus verify SPEC --json` where it is pinned: on
# E8:0,1,0,0,0,0,0,0, 47 rows, 0 failures, 6 skipped.
VERIFY_RANK_8_SHA256 = {
    "E8:0,1,0,0,0,0,0,0": "22cc410f5cb10694fd17580058be3762dd404a2edc5c83afdde2ca4e76fc3a07",
}


@pytest.mark.slow
@pytest.mark.parametrize("spec", ["E8:0,0,0,0,0,0,0,1", "E8:0,1,0,0,0,0,0,0"])
def test_verify_runs_a_rank_8_grading_through_every_suite(spec, capsys):
    code, out, _ = run_cli(["verify", spec, "--json"], capsys)
    data = json.loads(out)
    assert code == 0 and data["failures"] == 0
    assert {r["name"] for r in _skips_name_a_size(data)} == {"budget"}
    if spec in VERIFY_RANK_8_SHA256:
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_RANK_8_SHA256[spec]


# sha256 of `gradus verify E7 --json`: every suite over E7's 127 gradings,
# 1,929 rows, 0 failures and 139 budget rows.  The coset suites give one row
# each for their summed cosets; the ideal suites check all 26,297 ideals.
VERIFY_E7_SHA256 = "ae9e71efaf5bbd4f085ed4f81e662db11ade28fb2a27d2ad16e6b74184264bd5"


@pytest.mark.slow
def test_verify_e7_sweeps_every_suite_within_the_budget(capsys):
    code, out, _ = run_cli(["verify", "E7", "--json"], capsys)
    data = json.loads(out)
    assert code == 0
    assert (data["total"], data["failures"], data["skipped"]) == (1929, 0, 139)
    assert {r["name"] for r in _skips_name_a_size(data)} == {"budget"}
    assert sum(r["name"] == "sweep" for r in data["checks"]) == 0
    assert sum(r["suite"] == "biconvex" for r in data["checks"]) == 2 * 127
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_E7_SHA256


def test_ideals_formats_csv_rows_only_for_csv(capsys, monkeypatch):
    import gradus.cli as cli

    code, out_csv, _ = run_cli(["ideals", "B3:0,1,0", "--list", "--csv"], capsys)
    assert code == 0
    assert out_csv.startswith("index,size,roots\n0,0,\n")

    def refuse(roots):
        raise AssertionError("root strings formatted for output that drops them")

    monkeypatch.setattr(cli, "_root_strs", refuse)
    code, out, _ = run_cli(["ideals", "B3:0,1,0", "--list", "--json"], capsys)
    assert code == 0
    assert len(json.loads(out)["ideals"]) == json.loads(out)["count"]
    code, _, _ = run_cli(["ideals", "B3:0,1,0", "--list"], capsys)
    assert code == 0


def test_python_dash_m_gradus_runs_the_cli():
    argv = ["show", "B2:0,1", "--json"]
    by_package = subprocess.run([sys.executable, "-m", "gradus", *argv], capture_output=True)
    by_module = subprocess.run([sys.executable, "-m", "gradus.cli", *argv], capture_output=True)
    assert by_package.returncode == by_module.returncode == 0
    assert by_package.stdout == by_module.stdout != b""


_TRICKY = st.sampled_from(['"', "\\", 'a"b\\c', "\n", "\u00e9t\u00e9", "\U0001d400", ""])
_SCALARS = (
    st.integers(-10**30, 10**30) | st.booleans() | st.none()
    | st.floats(allow_nan=False) | st.text() | _TRICKY
)
_KEYS = st.text() | _TRICKY
_JSON_TREES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.lists(st.integers(-5, 5), max_size=4)
    | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=40,
)


def _nested(depth, leaf):
    """leaf under `depth` levels of alternating dicts and lists, each with
    an int list and an empty container beside it."""
    for k in range(depth):
        leaf = [leaf, k, {}] if k % 2 else {"level": leaf, "n": [k, -k], "e": []}
    return leaf


@settings(max_examples=300, deadline=None)
@given(_JSON_TREES)
def test_json_writer_matches_the_stdlib(obj):
    assert _json_text(obj) == json.dumps(obj, indent=1)
    assert _json_text(_nested(5, obj)) == json.dumps(_nested(5, obj), indent=1)


@pytest.mark.parametrize("obj", [
    _nested(7, [1, True, None, 2.5, 'q"uote\\back\u00e9']),
    _nested(6, [[1, 2], [True, False], [0, -1, 3], []]),
    {"ints": [1, -2, 3], "bools": [True, False], "mixed": [1, True], "tuple": (4, 5)},
    {"float": float("inf"), "nan": float("nan"), 1: "int key", None: [True]},
    # a list of ints is rendered once per values and indent in a call: the
    # same values at other depths, as a tuple, or as bools (hash-equal to
    # the ints) must not take another's text
    {"a": [1, 2], "b": [[1, 2], {"c": [1, 2], "d": [[[1, 2]]]}], "e": [[1, 2], [1, 2]]},
    [[3, 4], (3, 4), [[3, 4], (3, 4)], ((3, 4), [3, 4])],
    [[1, 0], [True, False], [0], [False], {"x": [False], "y": [0]}, [True, False], [1, 0]],
    [[False], [0], [[True, 0], [1, False], [1, 0]]],
    {"big": [2 ** 64 + 1, -(2 ** 70)], "again": [[2 ** 64 + 1, -(2 ** 70)]], "one": 2 ** 64},
])
def test_json_writer_matches_the_stdlib_on_fixed_trees(obj):
    assert _json_text(obj) == json.dumps(obj, indent=1)


_BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_pool_queries_give_the_reference_bytes():
    # Every distinct query of the session benchmark, through cli.main with
    # stdout captured: the exit code and the SHA-256 of stdout recorded in
    # bench/reference.json.
    pool = json.loads((_BENCH / "pool.json").read_text())
    expected = json.loads((_BENCH / "reference.json").read_text())["session"]
    assert len(pool) == len(expected) == 306
    for argv in pool:
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(argv)
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        assert f"exit {code} sha256 {digest}" == expected[" ".join(argv)], argv
