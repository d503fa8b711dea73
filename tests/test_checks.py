"""The rank gate of the check suites and the status of their rows."""

import inspect
from itertools import product

import pytest

from gradus import arrangement, checks, ideals, weyl
from gradus.checks import CheckResult, sweep_gradings
from gradus.grading import Grading, grade
from gradus.rootsys import RootSystem, build

# The rank above which each suite yields one skip row instead of running.
BOUNDS = {
    "rootsys": None, "threeroot": None, "grading": None, "ideals": 5,
    "weylcore": 3, "km": 5, "biconvex": 5, "fibers": 5, "minmax": 5,
    "involution": 5, "extreme": 5, "eta": 5, "classes": 5, "regions": 5,
    "signs": 5, "counting": 5, "charpoly": 5, "appendix": 5, "e7": None,
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
                         (RootSystem, "three_root_witness_index")):
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


def test_whole_group_rows_run_wherever_their_suite_runs():
    # The km and signs rows that walk all of W have no bound of their own.
    rs = build("A4")
    rows = list(checks.SUITES["signs"](rs, [grade(rs, (1, 0, 0, 0))]))
    assert rows[0].name == "oracle-matches-inversions"
    assert {r.status for r in rows} == {"pass"}
    rs = build("A5")
    (km,) = [r for r in checks.SUITES["km"](rs, []) if r.name == "length-generating-identity"]
    assert km.status == "pass"


def test_one_walk_of_w_serves_every_suite(monkeypatch):
    rs = RootSystem(build("B3").cartan_type)  # a private instance, nothing cached
    walks = []
    real = weyl.CosetTable

    def counting(g):
        if all(g.marks):
            walks.append(g.marks)
        return real(g)

    monkeypatch.setattr(weyl, "CosetTable", counting)
    rows = checks.run([(rs, [grade(rs, (1, 0, 0))])], ["weylcore", "km", "signs"])
    assert {r.status for r in rows} == {"pass"}
    assert walks == [(1, 1, 1)]
    assert weyl.weyl_elements(rs) is weyl.weyl_elements(rs)


def _default_types_by_hand(max_rank):
    """The list of types default_types wrote out by hand before it read the
    Cartan-type rules of rootsys."""
    out = []
    for n in range(1, max_rank + 1):
        out.append(f"A{n}")
        if n >= 2:
            out.append(f"B{n}")
            out.append(f"C{n}")
        if n >= 3:
            out.append(f"D{n}")
        if n == 2:
            out.append("G2")
        if n == 4:
            out.append("F4")
        if n in (6, 7, 8):
            out.append(f"E{n}")
    return out


@pytest.mark.parametrize("max_rank", range(10))
def test_default_types_match_the_hand_written_list(max_rank):
    assert checks.default_types(max_rank) == _default_types_by_hand(max_rank)


def test_e7_paper_grading_is_the_single_node_with_an_a6_level_0():
    # The search e7_paper_grading made before it named its spec: the one
    # marked node whose six unmarked neighbours form a connected diagram
    # (so type A6), with 21 positive roots at level 0 and 35 at level 1.
    rs = build("E7")
    found = []
    for i in range(7):
        g = grade(rs, tuple(1 if j == i else 0 for j in range(7)))
        if g.delta1_mask.bit_count() != 35 or g.delta0_mask.bit_count() != 21:
            continue
        nodes = list(g.pi0)
        reach = {nodes[0]}
        grew = True
        while grew:
            grew = False
            for a in nodes:
                if a not in reach and any(rs.gram[a][b] != 0 for b in reach):
                    reach.add(a)
                    grew = True
        if len(reach) == len(nodes):
            found.append(g.spec_string())
    assert found == [checks.e7_paper_grading().spec_string()] == ["E7:0,1,0,0,0,0,0"]


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
    real = rs.three_root_witness_index

    def recording(m, a, b):
        seen.append((roots[m], roots[a], roots[b]))
        return real(m, a, b)

    monkeypatch.setattr(rs, "three_root_witness_index", recording)
    (row,) = checks.SUITES["threeroot"](rs, [])
    assert row.status == "pass"
    assert seen == expected


def test_witness_sweep_reports_a_wrong_witness(monkeypatch):
    rs = RootSystem(build("B2").cartan_type)
    real = rs.three_root_witness_index
    theta = rs.index[rs.theta.coords]

    def wrong(m, a, b):
        real(m, a, b)
        return theta

    monkeypatch.setattr(rs, "three_root_witness_index", wrong)
    (row,) = checks.SUITES["threeroot"](rs, [])
    assert row.status == "fail" and row.detail.startswith("bad witness a1+2a2 for ")


def test_witness_sweep_reports_a_tie_not_resolved_to_nu1(monkeypatch):
    rs = RootSystem(build("C3").cartan_type)  # C3 has triples where both do
    real = rs.three_root_witness_index

    def second_choice(m, a, b):
        w = real(m, a, b)
        return b if b in rs.sums[m] else w

    monkeypatch.setattr(rs, "three_root_witness_index", second_choice)
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


def test_slice_row_walks_only_the_levels_that_occur(monkeypatch):
    # A2:1000000,1 has levels 1, 1000000 and 1000001: a walk over every
    # level up to the top would ask for a million empty masks.
    calls = []
    real = Grading.level_mask

    def counted(self, i):
        calls.append(i)
        return real(self, i)

    monkeypatch.setattr(Grading, "level_mask", counted)
    g = grade(build("A2"), (1000000, 1))
    rows = list(checks.SUITES["grading"](g.rs, [g]))
    (row,) = [r for r in rows if r.name == "slices-partition-positives"]
    assert row.status == "pass" and row.detail == "3 vs 3"
    assert len(calls) < 20


def test_no_row_fails_on_non_standard_gradings():
    # Marks in 0..3 with a level-1 simple root, neither standard nor
    # extra-special: 102 gradings over six types.  Where Delta(2) is empty
    # below a higher level (A2:3,1) M(t) is the min polynomial, so the
    # nonabelian-proper-distinct row skips on every such grading.
    gradings = [
        g
        for name in ["A2", "B2", "G2", "A3", "B3", "C3"]
        for marks in product(range(4), repeat=build(name).rank)
        if 1 in marks and not set(marks) <= {0, 1}
        and not (g := grade(build(name), marks)).is_extra_special
    ]
    assert len(gradings) == 102
    for g in gradings:
        rows = checks.run([(g.rs, [g])])
        assert [r for r in rows if not r.ok] == [], g
        (row,) = [r for r in rows if r.name == "nonabelian-proper-distinct"]
        assert row.status == "skip"
        assert row.detail == "asserted for standard and extra-special gradings only"
