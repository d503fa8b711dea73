"""The gate of the check suites (the budget summed over a call's gradings,
raises as rows) and the status of their rows."""

import ast
import inspect
import json
from itertools import product

import pytest

from gradus import arrangement, checks, ideals, rootsys, weyl
from gradus.checks import CheckResult, sweep_gradings
from gradus.cli import main
from gradus.grading import Grading, grade
from gradus.polys import value
from gradus.rootsys import RootSystem, build, parse_cartan_type

# The size each grading body declares: a call over several gradings is
# refused by its sum.  grading and e7 enumerate neither cosets nor ideals,
# and charpoly's chi has no sweep unit yet.  A type body declares nothing:
# only the budget of what it enumerates refuses it.
SIZED = {"biconvex": "lower ideals", "classes": "cosets", "counting": "lower ideals",
         "eta": "cosets", "extreme": "lower ideals", "fibers": "cosets",
         "ideals": "lower ideals", "involution": "cosets", "km": "cosets",
         "minmax": "cosets", "regions": "cosets", "signs": "cosets"}
UNSIZED = {"grading", "e7", "charpoly"}

REPORT_ROWS = {"self-dual-count-report", "stated-count-verdict"}


def test_bounds_are_declared_at_registration():
    assert {name: s.size for name, s in checks.SUITES.items()
            if "grading" in s.bodies} == SIZED | dict.fromkeys(UNSIZED)
    assert {s.size for s in checks.SUITES.values() if "grading" not in s.bodies} == {None}


@pytest.mark.parametrize("name", checks.default_types(3))
def test_a_declared_size_is_what_its_enumeration_holds(name):
    for g in sweep_gradings(build(name)):
        assert checks.SIZES["cosets"](g) == len(weyl.enumerate_W0(g))
        assert checks.SIZES["lower ideals"](g) == len(ideals.weight_poset(g, 1).ideal_masks)


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


@pytest.mark.parametrize("name", sorted(SIZED))
def test_direct_call_above_bound_skips_without_work(name, monkeypatch):
    # On B3's 7 gradings, with the budget one short of what they sum to, the
    # grading body is never entered; the type body, if the suite has one,
    # still runs first.
    rs = build("B3")
    gradings = sweep_gradings(rs)
    size = SIZED[name]
    total = int(sum(map(checks.SIZES[size], gradings)))
    bodies = checks.SUITES[name].bodies

    def no_work(g):
        raise AssertionError(f"{name} entered its grading body on {len(gradings)} gradings")

    def type_row(rs):
        yield "of-the-type", True, ""

    monkeypatch.setitem(bodies, "grading", no_work)
    if "type" in bodies:
        monkeypatch.setitem(bodies, "type", type_row)
    expected = [CheckResult(name, "B3", "of-the-type", True)] if "type" in bodies else []
    expected.append(CheckResult(
        name, "B3", "budget", True,
        f"{total:,} {size} over 7 gradings of B3 exceed the budget of {total - 1:,}", "skip"))
    monkeypatch.setattr(rootsys, "BUDGET", total - 1)
    assert list(checks.SUITES[name](rs, gradings)) == expected


@pytest.mark.parametrize("size, counts", [("cosets", [4, 4, 8]), ("lower ideals", [3, 4, 4])],
                         ids=["cosets", "ideals"])
def test_the_summed_budget_counts_every_grading(size, counts, monkeypatch):
    # A sized grading body runs on B2's three gradings when what they
    # enumerate sums to the budget, and not at one less, where the type body
    # still runs first and one budget row about the type follows it.  A
    # single grading is not summed: it meets the budget of its own walk.
    @checks.suite("zz-sum", per="type")
    def _of_type(rs):
        yield "of-the-type", True, ""

    @checks.suite("zz-sum", size=size)
    def _per_grading(g):
        yield "per-grading", True, ""

    rs = build("B2")
    gradings = sweep_gradings(rs)
    of_type = CheckResult("zz-sum", "B2", "of-the-type", True)
    try:
        assert [checks.SIZES[size](g) for g in gradings] == counts
        monkeypatch.setattr(rootsys, "BUDGET", sum(counts))
        rows = list(checks.SUITES["zz-sum"](rs, gradings))
        assert rows == [of_type] + [
            CheckResult("zz-sum", g.spec_string(), "per-grading", True) for g in gradings]
        monkeypatch.setattr(rootsys, "BUDGET", sum(counts) - 1)
        assert list(checks.SUITES["zz-sum"](rs, gradings)) == [of_type, CheckResult(
            "zz-sum", "B2", "budget", True,
            f"{sum(counts)} {size} over 3 gradings of B2 exceed the budget of {sum(counts) - 1}",
            "skip")]
        monkeypatch.setattr(rootsys, "BUDGET", 1)
        assert list(checks.SUITES["zz-sum"](rs, gradings[-1:])) == [
            of_type, CheckResult("zz-sum", "B2:1,1", "per-grading", True)]
    finally:
        del checks.SUITES["zz-sum"]


# A type-only suite that lost its rank bound: a type above the old bound
# that it now checks, and the size that refuses a larger type.
TYPE_BODY_REACH = {
    "weylcore": ("D4", "B4", "65,536 positive-root masks of B4 exceed the budget of 51,840"),
    "appendix": ("E6", "A10",
                 "58,786 upper ideals of the A10 root poset exceed the budget of 51,840"),
}


@pytest.mark.parametrize("name", sorted(TYPE_BODY_REACH))
def test_a_type_body_answers_to_its_budget_alone(name):
    runs, refused, detail = TYPE_BODY_REACH[name]
    rows = list(checks.SUITES[name](build(runs), []))
    assert rows and {r.status for r in rows} == {"pass"}
    assert list(checks.SUITES[name](build(refused), [])) == [
        CheckResult(name, refused, "budget", True, detail, "skip")]


def test_no_pass_above_bound_at_rank_6():
    # A coset suite gives no row about a grading of E6's sweep: its type
    # rows, each a pass, then one budget row that names the summed cosets.
    coset_suites = sorted(n for n, size in SIZED.items() if size == "cosets")
    rows = checks.run(checks.targets_for(["E6"]), coset_suites + ["appendix"])
    assert {r.subject for r in rows} == {"E6"}
    for n in coset_suites:
        assert [r for r in rows if r.suite == n][-1] == CheckResult(
            n, "E6", "budget", True,
            "486,396 cosets over 63 gradings of E6 exceed the budget of 51,840", "skip")
    assert all(r.status == "pass" for r in rows if r.name != "budget")
    assert {(r.suite, r.name) for r in rows if r.status == "pass"} == {
        ("km", "length-generating-identity"), ("signs", "oracle-matches-inversions"),
        ("appendix", "complement-heights-partition"), ("appendix", "upper-ideal-count")}


def test_report_rows_are_info():
    rs = build("F4")
    rows = checks.run([(rs, [grade(rs, (1, 0, 0, 0))])], ["ideals", "counting", "charpoly"])
    rows += checks.SUITES["e7"](build("E7"), [checks.e7_paper_grading()])
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


def test_levi_order_row_fails_on_a_wrong_height_product(monkeypatch):
    # The row counts W0 in W itself, so a wrong levi_order reaches its
    # verdict instead of the coset table's order check.
    rs = RootSystem(build("B3").cartan_type)  # a private instance, nothing cached
    weyl.weyl_elements(rs)  # walked with the true levi_order
    real = weyl.levi_order
    monkeypatch.setattr(weyl, "levi_order", lambda g: real(g) + 1)
    g = grade(rs, (1, 0, 0))
    (row,) = [r for r in checks.SUITES["km"](rs, [g]) if r.name == "levi-order-product"]
    assert row.status == "fail" and row.detail == "#W/#W0 = 8, height product 9"


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
    real = arrangement.geometric_inversions

    def flipped(rs, elements):
        walls = real(rs, elements)
        walls[-1] ^= (1 << len(rs.positive_roots)) - 1  # every wall of the last chamber
        return walls

    monkeypatch.setattr(arrangement, "geometric_inversions", flipped)
    rs = build("B2")
    gradings = sweep_gradings(rs)
    rows = list(checks.SUITES["signs"](rs, gradings))
    assert rows and all(r.status == "fail" for r in rows)
    assert rows[0].detail == "s1 s2 s1 s2 at a1+2a2: sign 1, inversion True"
    rows = list(checks.SUITES["regions"](rs, gradings))
    bad = [r for r in rows if r.status == "fail"]
    assert {r.name for r in bad} == {"distance-is-length"}
    assert len(bad) == len(gradings)


def test_grading_suite_walks_only_the_levels_that_occur(monkeypatch):
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
    assert rows and {r.status for r in rows} == {"pass"}
    assert len(calls) < 20


def test_no_row_fails_on_non_standard_gradings():
    # Marks in 0..3 with a level-1 simple root, neither standard nor
    # extra-special: 102 gradings over six types.  Where Delta(2) is empty
    # below a higher level (A2:3,1) M(t) is the min polynomial, and the
    # nonabelian-proper-distinct row asserts exactly that.
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
        assert row.status == "pass"


RANK_3 = checks.default_types(3)
RANK_4 = [n for n in checks.default_types(4) if n not in RANK_3]


@pytest.mark.parametrize("name", RANK_3 + [pytest.param(n, marks=pytest.mark.slow) for n in RANK_4])
def test_every_suite_asserts_on_the_non_standard_family(name):
    # Every grading with marks in 0..2, some mark 2 and a nonempty Delta(1)
    # (at most 50, their cosets and ideals summed within the budget): every
    # suite checks it, with no fail row and no skip row about a grading.  A type body may be refused
    # by its budget (weylcore's 2^N masks at B4, C4 and F4).
    rs = build(name)
    gradings = [g for marks in product(range(3), repeat=rs.rank)
                if 2 in marks and (g := grade(rs, marks)).level_mask(1)]
    rows = checks.run([(rs, gradings)])
    assert [r for r in rows if r.status == "fail"
            or r.status == "skip" and (r.subject, r.name) != (name, "budget")] == []
    assert len({r.subject for r in rows} - {name}) == len(gradings)


def _involution_rows_by_element(rs, gradings):
    """The involution suite as it was before it worked on table positions:
    one involution and one tau per coset, and one dual per coset; kept as
    the oracle for it."""
    for g in gradings:
        sub = g.spec_string()
        table = weyl.enumerate_W0(g)
        p = ideals.weight_poset(g, 1)
        wt0 = weyl.longest_element(rs, g.pi0)
        ok_levels = all(
            g.level(wt0.apply(r)) == g.levels[j]
            for j, r in enumerate(rs.positive_roots)
        ) and all(not wt0.apply(r).is_positive for r in rs.roots_of(g.delta0_mask))
        yield CheckResult(
            "involution", sub, "parabolic-longest-fixes-levels", ok_levels, "",
        )
        image = {w: weyl.involution(g, w) for w in table.elements()}
        ideal_of = {w: weyl.tau(g, w) for w in table.elements()}
        bad = ""
        fixed = 0
        for w, iw in image.items():
            if iw not in image:
                bad = bad or f"image of {w} leaves the coset set"
                continue
            if image[iw] != w:
                bad = bad or f"not involutive at {w}"
            if ideal_of[iw] != ideals.dual_ideal(p, ideal_of[w]):
                bad = bad or f"dual ideal mismatch at {w}"
            if (w in table.minimal) != (iw in table.maximal):
                bad = bad or f"minimal flag not swapped at {w}"
            if iw == w:
                fixed += 1
        yield CheckResult("involution", sub, "involution-swaps-duality", not bad, bad)
        bad = ""
        for ideal in ideals.iter_lower_ideals(p):
            lhs = weyl.involution(g, weyl.w_min(g, ideal))
            if lhs != weyl.w_max(g, ideals.dual_ideal(p, ideal)):
                bad = f"min/max exchange fails at {ideal}"
                break
        yield CheckResult("involution", sub, "min-to-max-of-dual", not bad, bad)
        if g.is_abelian:
            w0poly = weyl.poincare(w.length for w in table.elements())
            yield CheckResult(
                "involution", sub, "fixed-points-alternating-sum",
                fixed == value(w0poly, -1),
                f"fixed {fixed}, W0(-1) {value(w0poly, -1)}",
            )


@pytest.mark.parametrize("name", checks.default_types(4))
def test_involution_rows_match_the_per_element_route(name):
    rs = build(name)
    gradings = sweep_gradings(rs)
    assert (list(checks.SUITES["involution"](rs, gradings))
            == list(_involution_rows_by_element(rs, gradings)))


def test_involution_rows_match_the_per_element_route_off_standard():
    # every grading with marks in 0..2 and a nonempty Delta(1), rank <= 3
    gradings = [
        g
        for name in checks.default_types(3)
        for marks in product(range(3), repeat=build(name).rank)
        if any(marks) and (g := grade(build(name), marks)).delta1_mask
    ]
    assert len(gradings) == 97
    for g in gradings:
        assert (list(checks.SUITES["involution"](g.rs, [g]))
                == list(_involution_rows_by_element(g.rs, [g]))), g.spec_string()


def test_involution_reports_the_first_failure_of_the_per_element_route(monkeypatch):
    # With duality broken, both routes name the same first coset.
    monkeypatch.setattr(ideals, "dual_ideal", lambda p, ideal: ideal)
    failed = 0
    for name in ["A2", "B2", "G2", "A3", "B3"]:
        rs = build(name)
        gradings = sweep_gradings(rs)
        new = list(checks.SUITES["involution"](rs, gradings))
        assert new == list(_involution_rows_by_element(rs, gradings)), name
        failed += sum(1 for r in new if r.name == "involution-swaps-duality"
                      and r.detail.startswith("dual ideal mismatch at "))
    assert failed > 0


# -- a raise inside a suite is a row -------------------------------------


def test_a_raise_in_a_suite_is_a_fail_row(monkeypatch, capsys):
    def not_an_inversion_set(rs, mask):
        raise ValueError("not an inversion set (injected)")

    monkeypatch.setattr(weyl, "element_from_inversions", not_an_inversion_set)
    assert main(["verify", "B2", "--suite", "minmax"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines() == [
        f"[ FAIL ] minmax     {spec:<16} raised -- "
        "ValueError: not an inversion set (injected)"
        for spec in ("B2:0,1", "B2:1,0", "B2:1,1")
    ] + ["3 checks, 3 failures, 0 skipped"]


def test_a_raise_costs_one_grading(monkeypatch, capsys):
    # W0_max broken on one grading of B3: that grading gets one raised row
    # and every other grading the rows of an unbroken run.
    def minmax_rows(code):
        assert main(["verify", "B3", "--suite", "minmax", "--json"]) == code
        return json.loads(capsys.readouterr().out)["checks"]

    clean = minmax_rows(0)
    real = weyl.W0_max

    def broken(g):
        if g.spec_string() == "B3:0,1,0":
            raise ValueError("injected")
        return real(g)

    monkeypatch.setattr(weyl, "W0_max", broken)
    rows = minmax_rows(1)
    assert [r for r in rows if r["name"] == "raised"] == [{
        "suite": "minmax", "subject": "B3:0,1,0", "name": "raised", "ok": False,
        "status": "fail", "detail": "ValueError: injected",
    }]
    others = [r for r in clean if r["subject"] != "B3:0,1,0"]
    assert [r for r in rows if r["subject"] != "B3:0,1,0"] == others
    assert len({r["subject"] for r in others}) == len(sweep_gradings(build("B3"))) - 1


def test_rows_yielded_before_a_raise_are_kept():
    @checks.suite("zz-flaky", per="type")
    def _flaky(rs):
        yield "first", True, ""
        raise KeyError("lost")

    try:
        rows = checks.run([(build("A2"), [])], ["zz-flaky"])
    finally:
        del checks.SUITES["zz-flaky"]
    assert rows == [
        CheckResult("zz-flaky", "A2", "first", True),
        CheckResult("zz-flaky", "A2", "raised", False, "KeyError: 'lost'"),
    ]


def test_a_suite_takes_one_body_of_each_kind_under_one_bound():
    # The one size is the grading body's, a unit of SIZES: a type body
    # declares none.
    def no_rows(on):
        yield from ()

    for per, size in (("type", "cosets"), ("grading ", None), ("grading", "roots")):
        with pytest.raises(ValueError, match="zz-pair"):
            checks.suite("zz-pair", per=per, size=size)
    assert "zz-pair" not in checks.SUITES
    checks.suite("zz-pair", per="type")(no_rows)
    try:
        with pytest.raises(ValueError, match="zz-pair"):
            checks.suite("zz-pair", per="type")(no_rows)
        assert checks.SUITES["zz-pair"].size is None
        checks.suite("zz-pair", size="cosets")(no_rows)
        assert checks.SUITES["zz-pair"].size == "cosets"
        with pytest.raises(ValueError, match="zz-pair"):
            checks.suite("zz-pair")(no_rows)
        assert checks.SUITES["zz-pair"].bodies == {"type": no_rows, "grading": no_rows}
        assert checks.SUITES["zz-pair"].size == "cosets"
    finally:
        del checks.SUITES["zz-pair"]


def test_a_failed_self_check_of_chi_is_a_row(monkeypatch, capsys):
    # Off by q - 1 at A2's one count, the verification prime q = 2.
    real = arrangement._point_count
    monkeypatch.setattr(arrangement, "_point_count",
                        lambda normals, n, q: real(normals, n, q) + (q - 1) * (q == 2))
    arrangement.char_poly.cache_clear()  # count again; a raise is not stored
    assert main(["verify", "A2", "--suite", "charpoly", "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert (data["total"], data["failures"]) == (5, 4)
    raised = {
        "name": "raised", "ok": False, "status": "fail",
        "detail": "AssertionError: interpolated polynomial fails at the verification prime",
    }
    # every chi of A2 is counted at q = 2: the type's, then each grading's
    # after the one row that needs no chi (extra-special gradings only)
    assert data["checks"] == [
        {"suite": "charpoly", "subject": subject} | raised for subject in ("A2", "A2:0,1", "A2:1,0")
    ] + [
        {"suite": "charpoly", "subject": "A2:1,1", "name": "extraspecial-drops-highest-wall",
         "ok": True, "status": "pass", "detail": ""},
        {"suite": "charpoly", "subject": "A2:1,1"} | raised,
    ]


@pytest.mark.parametrize("name, q", [("B3", 3), ("A4", 3)])
def test_a_fault_at_an_interpolation_prime_is_a_row(name, q, monkeypatch, capsys):
    # Off by q - 1 at a prime chi is interpolated at (B3 counts at 3 and then
    # confirms at 5; A4 counts at 2 and 3 and then confirms at 5): the
    # interpolant is still an integer polynomial, and the confirming count
    # refuses it on every chi of the sweep.
    real = arrangement._point_count
    monkeypatch.setattr(arrangement, "_point_count",
                        lambda normals, n, p: real(normals, n, p) + (p - 1) * (p == q))
    arrangement.char_poly.cache_clear()  # count again; a raise is not stored
    assert main(["verify", name, "--suite", "charpoly", "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    subjects = [name] + [g.spec_string() for g in sweep_gradings(build(name))]
    assert [(r["subject"], r["name"], r["detail"])
            for r in data["checks"] if r["status"] != "pass"] == [
        (s, "raised", "AssertionError: interpolated polynomial fails at the verification prime")
        for s in subjects]
    assert {r["name"] for r in data["checks"] if r["status"] == "pass"} <= {
        "extraspecial-drops-highest-wall"}


def test_a_budget_refusal_in_a_suite_is_a_skip_row(monkeypatch, capsys):
    # A sweep is refused by the cosets of its gradings summed, in one row
    # about the type; each named grading by its own table, in a row about it.
    build("B2")  # its 16 reflection images are over the lowered budget too
    monkeypatch.setattr(rootsys, "BUDGET", 3)
    assert main(["verify", "B2", "--suite", "fibers"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines() == [
        "[ skip ] fibers     B2               budget -- "
        "16 cosets over 3 gradings of B2 exceed the budget of 3",
        "1 checks, 0 failures, 1 skipped"]
    assert main(["verify", "B2:0,1", "B2:1,0", "B2:1,1", "--suite", "fibers"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "[ skip ] fibers     B2               budget -- "
        "16 cosets over 3 gradings of B2 exceed the budget of 3")
    for spec, cosets in (("B2:0,1", 4), ("B2:1,1", 8)):
        assert main(["verify", spec, "--suite", "fibers"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"[ skip ] fibers     {spec:<16} budget -- "
            f"{cosets} cosets of {spec} exceed the budget of 3",
            "1 checks, 0 failures, 1 skipped"]


def test_a_budget_refusal_keeps_its_cli_message():
    with pytest.raises(rootsys.BudgetExceeded) as info:
        rootsys.check_budget(rootsys.BUDGET + 1, "things")
    assert isinstance(info.value, ValueError)
    assert str(info.value) == "51,841 things exceed the budget of 51,840"


def test_exponents_row_checks_the_classification(monkeypatch):
    # A height partition whose dual (1, 3, 9, 11) starts at 1, ends at h - 1
    # and sums to N, so only the classification tells it from F4's.
    rs = RootSystem(parse_cartan_type("F4"))
    monkeypatch.setattr(rs, "height_partition",
                        lambda mask=None: (4, 3, 3, 2, 2, 2, 2, 2, 2, 1, 1))
    (row,) = [r for r in checks.SUITES["rootsys"](rs, [])
              if r.name == "exponents-from-heights"]
    assert row.status == "fail" and row.detail == "exponents (1, 3, 9, 11)"
    (row,) = [r for r in checks.SUITES["rootsys"](build("F4"), [])
              if r.name == "exponents-from-heights"]
    assert row.status == "pass" and row.detail == "exponents (1, 5, 7, 11)"


def test_group_order_row_checks_the_classification(monkeypatch):
    # The same patched F4: its height product and the product over the dual
    # partition of its heights agree (960) for any height partition, so the
    # row reads the exponent product off the classification (1,152).
    rs = RootSystem(parse_cartan_type("F4"))
    monkeypatch.setattr(rs, "height_partition",
                        lambda mask=None: (4, 3, 3, 2, 2, 2, 2, 2, 2, 1, 1))
    (row,) = [r for r in checks.SUITES["rootsys"](rs, [])
              if r.name == "group-order-two-ways"]
    assert row.status == "fail" and row.detail == "height product 960, exponent product 1152"
    (row,) = [r for r in checks.SUITES["rootsys"](build("F4"), [])
              if r.name == "group-order-two-ways"]
    assert row.status == "pass" and row.detail == "height product 1152, exponent product 1152"


def test_no_asserted_row_is_the_literal_true():
    # A row whose verdict is the constant True cannot fail; only a row that
    # reports ("info") or did not run ("skip") may carry one.
    tree = ast.parse(inspect.getsource(checks))
    constant = [
        ast.unparse(row.elts[0])
        for node in ast.walk(tree)
        if isinstance(node, ast.Yield) and isinstance(row := node.value, ast.Tuple)
        and len(row.elts) > 1 and isinstance(row.elts[1], ast.Constant)
        and row.elts[1].value is True
        and not (len(row.elts) > 3 and isinstance(row.elts[3], ast.Constant)
                 and row.elts[3].value in ("info", "skip"))
    ]
    assert constant == []


def test_a_short_coset_walk_is_a_raised_row(monkeypatch, capsys):
    # weylcore has no row comparing |W| with the order formula: the coset
    # table checks its size as it is built, and the gate makes that a row.
    real = weyl._walk
    monkeypatch.setattr(weyl, "_walk", lambda *args: list(real(*args))[:-1])
    weyl.weyl_elements.cache_clear()
    assert main(["verify", "A2", "--suite", "weylcore", "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["checks"] == [{
        "suite": "weylcore", "subject": "A2", "name": "raised", "ok": False, "status": "fail",
        "detail": "AssertionError: coset count disagrees with the order formula",
    }]


def test_a_missing_cover_step_is_a_raised_row():
    # ideals has no row comparing the cover closure with the order: the
    # weight poset checks it as it is built.  Without the level-0 simple
    # root a3 among the steps, a2+a3 covers nothing.
    rs = build("B3")
    g = Grading(rs, (0, 1, 0))
    g.pi0 = (0,)
    assert list(checks.SUITES["ideals"](rs, [g])) == [CheckResult(
        "ideals", "B3:0,1,0", "raised", False,
        "AssertionError: cover closure disagrees with the arithmetic order at a2+a3")]


def test_a_fiber_past_its_interval_fails_only_the_interval_row(monkeypatch, capsys):
    # With w_max read as w_min every fiber of more than one coset reaches
    # past its interval [w_min, w_min], while tau(w_min) is still the ideal.
    monkeypatch.setattr(weyl, "w_max", weyl.w_min)
    assert main(["verify", "B3:0,1,0", "--suite", "fibers", "--json"]) == 1
    rows = json.loads(capsys.readouterr().out)["checks"]
    assert [(r["name"], r["ok"]) for r in rows] == [
        ("min-max-hit-the-ideal", True), ("fiber-is-weak-interval", False),
        ("extremes-unique", True), ("fibers-partition", True)]


def test_a_fiber_missing_from_the_table_fails_its_rows():
    rs = RootSystem(build("B3").cartan_type)  # a private instance, nothing cached
    g = grade(rs, (0, 1, 0))
    table = weyl.enumerate_W0(g)
    del table.by_tau[max(table.by_tau)]
    rows = [r for name in ("fibers", "regions") for r in checks.SUITES[name](rs, [g])]
    assert {(r.suite, r.name) for r in rows if not r.ok} == {
        ("fibers", "fiber-is-weak-interval"),
        ("fibers", "fibers-partition"),
        ("regions", "region-ideal-bijection"),
    }


@pytest.mark.parametrize("name", checks.default_types(4))
def test_each_fiber_is_the_interval_the_table_scan_finds(name):
    # The scan of the whole table per ideal that the fibers suite made
    # before it read each coset once, kept as its oracle: the positions of
    # the cosets whose masks lie between N(w_min) and N(w_max).
    for g in sweep_gradings(build(name)):
        table = weyl.enumerate_W0(g)
        elements = table.elements()
        masks = [w.inversion_mask for w in elements]
        position = {w: k for k, w in enumerate(elements)}
        for ideal in ideals.weight_poset(g, 1).lower_ideals:
            a = weyl.w_min(g, ideal).inversion_mask
            b = weyl.w_max(g, ideal).inversion_mask
            interval = [k for k, m in enumerate(masks) if m & a == a and m | b == b]
            assert interval == [position[w] for w in table.by_tau[ideal.mask]], (g, ideal)
