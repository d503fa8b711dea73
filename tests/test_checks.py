"""The rank gate of the check suites and the status of their rows."""

import inspect

import pytest

from gradus import arrangement, checks, ideals, weyl
from gradus.checks import CheckResult, sweep_gradings
from gradus.grading import grade
from gradus.rootsys import RootSystem, build

# The rank above which each suite yields one skip row instead of running.
BOUNDS = {
    "rootsys": None, "threeroot": 4, "grading": None, "ideals": 5,
    "weylcore": 3, "km": 5, "biconvex": 5, "fibers": 5, "minmax": 5,
    "involution": 5, "extreme": 5, "eta": 5, "classes": 5, "regions": 5,
    "signs": 5, "counting": 5, "charpoly": arrangement.CHAR_POLY_MAX_RANK,
    "appendix": arrangement.UPPER_IDEAL_MAX_RANK, "e7": None,
}

REPORT_ROWS = {"self-dual-count-report", "stated-count-verdict"}


def test_bounds_are_declared_at_registration():
    assert {name: s.max_rank for name, s in checks.SUITES.items()} == BOUNDS


def test_gated_suites_are_generator_functions():
    # A tracer that wraps generator functions step by step sees their rows
    # and the time spent making them, not just the call that starts them.
    assert all(inspect.isgeneratorfunction(s) for s in checks.SUITES.values())


def test_status_follows_ok_unless_given():
    assert CheckResult("s", "x", "n", True).status == "pass"
    assert CheckResult("s", "x", "n", False).status == "fail"
    assert CheckResult("s", "x", "n", True, "", "info").ok
    with pytest.raises(ValueError, match="contradicts"):
        CheckResult("s", "x", "n", False, "", "skip")


@pytest.mark.parametrize("name", sorted(n for n, b in BOUNDS.items() if b is not None))
def test_direct_call_above_bound_skips_without_work(name, monkeypatch):
    bound = BOUNDS[name]
    rs = build(f"A{bound + 1}")
    gradings = [grade(rs, (1,) + (0,) * bound)]

    def no_work(*args):
        raise AssertionError(f"{name} entered its body above rank {bound}")

    for module, attr in ((weyl, "enumerate_W0"), (weyl, "weyl_elements"),
                         (ideals, "weight_poset"), (arrangement, "char_poly"),
                         (arrangement, "upper_ideal_partition_check"),
                         (RootSystem, "three_root_witness")):
        monkeypatch.setattr(module, attr, no_work)
    rows = list(checks.SUITES[name](rs, gradings))
    assert rows == [CheckResult(name, f"A{bound + 1}", "sweep", True,
                                f"rank {bound + 1} exceeds the bound {bound}", "skip")]


def test_no_pass_above_bound_at_rank_6():
    rows = checks.run(checks.targets_for(["A6", "E6"]))
    low = {n for n, b in BOUNDS.items() if b is not None and b < 6}
    assert [r for r in rows if r.suite in low and r.status != "skip"] == []
    assert sum(r.status == "skip" for r in rows) == 2 * len(low)
    assert all(r.ok for r in rows)


def test_report_rows_are_info():
    rs = build("F4")
    rows = checks.run([(rs, [grade(rs, (1, 0, 0, 0))])], ["ideals", "counting", "charpoly"])
    rows += checks.SUITES["e7"](build("E7"), [])
    assert {r.name for r in rows if r.status == "info"} == REPORT_ROWS
    assert {r.status for r in rows if r.name not in REPORT_ROWS} == {"pass"}
    assert {r.name for r in rows if r.suite in ("counting", "charpoly")} >= {
        "height-product-formula", "dual-partition-factorisation"}


def test_level_01_is_ideal_arrangement_row_per_grading(monkeypatch):
    rs = build("F4")
    gradings = sweep_gradings(rs)
    rows = [r for r in checks.SUITES["grading"](rs, gradings)
            if r.name == "level-01-is-ideal-arrangement"]
    assert [r.subject for r in rows] == [g.spec_string() for g in gradings]
    assert {r.status for r in rows} == {"pass"}
    # the row compares against the walls the arrangement layer picks
    monkeypatch.setattr(arrangement, "sub_arrangement_01",
                        lambda g: arrangement.coxeter_arrangement(g.rs))
    (row,) = [r for r in checks.SUITES["grading"](rs, [grade(rs, (1, 0, 0, 0))])
              if r.name == "level-01-is-ideal-arrangement"]
    assert row.status == "fail" and row.detail == "24 normals"


def test_row_bounds_skip_through_the_shared_helper():
    rs = build("A4")
    rows = list(checks.SUITES["signs"](rs, [grade(rs, (1, 0, 0, 0))]))
    assert rows[0] == checks.rank_skip("signs", rs, "oracle-matches-inversions", 3)
    assert rows[0].status == "skip" and rows[0].detail == "rank 4 exceeds the bound 3"
    assert {r.status for r in rows[1:]} == {"pass"}
    rs = build("A5")
    (km,) = [r for r in checks.SUITES["km"](rs, []) if r.name == "length-generating-identity"]
    assert km.status == "skip" and km.detail == "rank 5 exceeds the bound 4"


# The witness-sweep detail of the threeroot suite, as the coordinate-tuple
# sweep reported it.
WITNESS_SWEEP = {
    "A1": "0 triples, 0 degenerate rejected",
    "A2": "0 triples, 24 degenerate rejected",
    "B2": "32 triples, 48 degenerate rejected",
    "C2": "32 triples, 48 degenerate rejected",
    "G2": "192 triples, 120 degenerate rejected",
    "A3": "96 triples, 96 degenerate rejected",
    "B3": "576 triples, 240 degenerate rejected",
    "C3": "624 triples, 240 degenerate rejected",
    "D3": "96 triples, 96 degenerate rejected",
    "A4": "480 triples, 240 degenerate rejected",
    "B4": "2880 triples, 672 degenerate rejected",
    "C4": "3072 triples, 672 degenerate rejected",
    "D4": "1152 triples, 384 degenerate rejected",
    "F4": "12672 triples, 1632 degenerate rejected",
}


@pytest.mark.parametrize("name", checks.default_types(4))
def test_witness_sweep_detail_pinned(name):
    (row,) = checks.SUITES["threeroot"](build(name), [])
    assert row.status == "pass" and row.detail == WITNESS_SWEEP[name]


@pytest.mark.parametrize("name", ["B2", "G2", "A3", "B3", "C3"])
def test_witness_sweep_visits_the_coordinate_triples_in_order(name, monkeypatch):
    rs = RootSystem(build(name).cartan_type)  # a private instance to patch
    roots = rs.roots()
    expected = [
        (mu, nu1, nu2)
        for nu1 in roots
        for nu2 in roots
        if rs.is_root(tuple(a + b for a, b in zip(nu1.coords, nu2.coords)))
        for mu in roots
        if rs.is_root(tuple(a + b + c for a, b, c in
                            zip(mu.coords, nu1.coords, nu2.coords)))
    ]
    seen = []
    real = rs.three_root_witness

    def recording(mu, nu1, nu2):
        seen.append((mu, nu1, nu2))
        return real(mu, nu1, nu2)

    monkeypatch.setattr(rs, "three_root_witness", recording)
    (row,) = checks.SUITES["threeroot"](rs, [])
    assert row.status == "pass"
    assert seen == expected


def test_witness_sweep_reports_a_wrong_witness(monkeypatch):
    rs = RootSystem(build("B2").cartan_type)
    real = rs.three_root_witness
    monkeypatch.setattr(rs, "three_root_witness",
                        lambda mu, nu1, nu2: real(mu, nu1, nu2) and rs.theta)
    (row,) = checks.SUITES["threeroot"](rs, [])
    assert row.status == "fail" and row.detail.startswith("bad witness a1+2a2 for ")


def test_witness_sweep_reports_a_tie_not_resolved_to_nu1(monkeypatch):
    rs = RootSystem(build("C3").cartan_type)  # C3 has triples where both do
    real = rs.three_root_witness

    def second_choice(mu, nu1, nu2):
        w = real(mu, nu1, nu2)
        return nu2 if rs.add_roots(mu, nu2) is not None else w

    monkeypatch.setattr(rs, "three_root_witness", second_choice)
    (row,) = checks.SUITES["threeroot"](rs, [])
    assert row.status == "fail"
    assert row.detail.startswith("tie not resolved to first choice: ")


def test_sign_rows_fail_on_a_flipped_sign(monkeypatch):
    real = arrangement.geometric_signs

    def flipped(g, elements, normals=None):
        signs = real(g, elements, normals).copy()
        signs[-1, -1] *= -1
        return signs

    monkeypatch.setattr(arrangement, "geometric_signs", flipped)
    rs = build("B2")
    gradings = sweep_gradings(rs)
    rows = list(checks.SUITES["signs"](rs, gradings))
    assert rows and all(r.status == "fail" for r in rows)
    assert rows[0].detail == "s2 s1 s2 s1 at a1+2a2: sign 1, inversion True"
    rows = list(checks.SUITES["regions"](rs, gradings))
    bad = [r for r in rows if r.status == "fail"]
    assert {r.name for r in bad} == {"distance-is-length"}
    assert len(bad) == len(gradings)
