import csv
import hashlib
import io
import json
import subprocess
import sys
import time

import pytest

from gradus import checks, rootsys, weyl
from gradus import ideals as ideals_mod
from gradus.arrangement import char_poly_points, ideal_count_formula
from gradus.cli import UsageError, main, parse_root, parse_root_list
from gradus.grading import Grading
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
    @checks.suite("zz-always-red")
    def _always_red(rs, gradings):
        yield checks.CheckResult("zz-always-red", "unit", "forced", False, "boom")

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

    @checks.suite("zz-late")
    def _late(rs, gradings):
        yield checks.CheckResult("zz-late", "unit", "late", True)

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
    code, out, _ = run_cli(["verify", "E6", "--suite", "appendix"], capsys)
    assert code == 0
    assert out == ("[ skip ] appendix   E6               sweep -- rank 6 exceeds the bound 5\n"
                   "1 checks, 0 failures, 1 skipped\n")
    code, out, _ = run_cli(["verify", "E6", "--suite", "appendix", "--json"], capsys)
    data = json.loads(out)
    assert code == 0
    assert (data["total"], data["failures"], data["skipped"]) == (1, 0, 1)
    assert data["checks"][0]["status"] == "skip"


def test_verify_shows_info_detail(capsys):
    code, out, _ = run_cli(["verify", "--suite", "ideals", "B2:es"], capsys)
    assert code == 0
    assert ("[ info ] ideals     B2:0,1           self-dual-count-report"
            " -- self-dual 1, M(-1) 1 (compared, not asserted)\n") in out
    assert out.endswith("7 checks, 0 failures, 0 skipped\n")
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


def test_verify_rank_8_reads_max_rank(capsys):
    code, out, _ = run_cli(["verify", "--suite", "rootsys", "E8", "--max-rank", "8"], capsys)
    assert code == 0
    assert out.endswith("6 checks, 0 failures, 0 skipped\n")
    code, out, err = run_cli(["verify", "--suite", "rootsys", "E8"], capsys)
    assert code == 2 and out == ""
    assert "--max-rank" in err


def test_verify_grading_token_follows_the_type_rule(capsys):
    code, out, _ = run_cli(["verify", "--suite", "rootsys", "E6:1,0,0,0,0,0"], capsys)
    assert code == 0
    assert out.endswith("6 checks, 0 failures, 0 skipped\n")
    code, out, err = run_cli(["verify", "--suite", "rootsys", "E8:1,0,0,0,0,0,0,0"], capsys)
    assert code == 2 and out == ""
    assert "need --max-rank 8" in err


def test_input_checks_run_before_any_build(capsys, monkeypatch):
    # Building A120 takes about 20 s; a wrong mark count or a rank-8 type
    # without --max-rank 8 is refused from the parsed type alone.
    def no_build(cartan_type):
        raise AssertionError(f"{cartan_type} built before its input was checked")

    monkeypatch.setattr(rootsys, "_build", no_build)
    for argv, err in [
        (["show", "A120:1"], "gradus show: expected 120 marks, got 1\n"),
        (["verify", "--suite", "rootsys", "E8"],
         "gradus verify: E8: rank-8 sweeps need --max-rank 8\n"),
        (["verify", "--suite", "rootsys", "E8:1,0,0,0,0,0,0,0"],
         "gradus verify: E8:1,0,0,0,0,0,0,0: rank-8 sweeps need --max-rank 8\n"),
    ]:
        assert run_cli(argv, capsys) == (2, "", err)


def test_where_the_budget_falls(capsys, monkeypatch):
    # chi is admitted for exactly the types of rank <= 5 ...
    assert [n for n in checks.default_types(8)
            if char_poly_points(build(n)) <= BUDGET] == checks.default_types(5)
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
    def no_poset(g, i=1):
        raise AssertionError("weight poset built before the budget was checked")

    build("A3")  # its 36 reflection images are over the lowered budget too
    monkeypatch.setattr(rootsys, "BUDGET", 5)
    monkeypatch.setattr(ideals_mod, "weight_poset", no_poset)
    code, out, err = run_cli(["ideals", "A3:0,1,0", "--list"], capsys)
    assert (code, out) == (2, "")
    assert err == "gradus ideals: 6 lower ideals of A3:0,1,0 exceed the budget of 5\n"


def test_verify_passes_a_non_standard_grading(capsys):
    code, out, _ = run_cli(["verify", "A2:3,1"], capsys)
    assert code == 0
    assert out.endswith("52 checks, 0 failures, 1 skipped\n")


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
VERIFY_ALL_RANK_5_SHA256 = "9baa0ff50fe4889106e2debe1b95f8008a7247e6641c28f003a171479a082250"


@pytest.mark.slow
def test_verify_all_rank_5_json_is_pinned():
    proc = subprocess.run(
        [sys.executable, "-m", "gradus.cli", "verify", "--all", "--max-rank", "5", "--json"],
        capture_output=True)
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == VERIFY_ALL_RANK_5_SHA256
