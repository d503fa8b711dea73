"""Acceptance battery.

One test per criterion; each prints a single `[criterion N] PASS` line
(visible with `pytest -s` or in the captured-output section).  Time
budgets are asserted where the criterion carries one.
"""

import itertools
import json
import time
from fractions import Fraction

from gradus import checks
from gradus.arrangement import ideal_count_formula
from gradus.cli import main as cli_main
from gradus.grading import extra_special, grade, parse_grading_spec
from gradus.ideals import (
    count_antichains,
    count_lower_ideals,
    m_polynomial,
    self_dual_count,
    weight_poset,
)
from gradus.polys import value
from gradus.rootsys import build
from gradus.weyl import enumerate_W0, km_order, km_poly, poincare, weyl_elements

THEOREM_SUITES = ["biconvex", "fibers", "minmax", "involution", "extreme",
                  "eta", "regions"]


def _passed(n, msg):
    print(f"[criterion {n}] PASS: {msg}")


def _failures(results):
    return [r for r in results if not r.ok]


def test_criterion_01_theorem_suite_rank_3():
    t0 = time.monotonic()
    targets = checks.targets_for(["A1", "A2", "A3", "B2", "B3", "C3", "G2"])
    results = checks.run(targets, THEOREM_SUITES)
    dt = time.monotonic() - t0
    assert _failures(results) == []
    assert dt < 10.0
    _passed(1, f"{len(results)} theorem checks at rank <= 3, {dt:.2f}s")


def test_criterion_02_theorem_suite_rank_4():
    t0 = time.monotonic()
    targets = checks.targets_for(["A4", "B4", "C4", "D4", "F4"])
    results = checks.run(targets, THEOREM_SUITES)
    dt = time.monotonic() - t0
    assert _failures(results) == []
    assert dt < 300.0
    _passed(2, f"{len(results)} theorem checks at rank 4, {dt:.2f}s")


def test_criterion_03_counting_formula_exact():
    checked = 0
    for name in ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
                 "D3", "D4", "G2", "F4"]:
        rs = build(name)
        top = 3 if rs.rank <= 3 else 2
        for marks in itertools.product(range(top + 1), repeat=rs.rank):
            if not any(marks):
                continue
            g = grade(rs, marks)
            if g.level_mask(1) == 0:
                continue
            enumerated = count_lower_ideals(weight_poset(g))
            assert Fraction(enumerated) == ideal_count_formula(g), g.spec_string()
            checked += 1
    _passed(3, f"height-product formula exact on {checked} gradings of rank <= 4")


EXTRA_SPECIAL_IDEALS = {
    "A2": 4, "B2": 3, "C2": 3, "G2": 5,
    "A3": 9, "B3": 10, "C3": 5, "D3": 9,
    "A4": 16, "B4": 21, "C4": 7, "D4": 20, "F4": 22,
}


def test_criterion_04_extra_special_closed_form():
    for name, expect in EXTRA_SPECIAL_IDEALS.items():
        rs = build(name)
        g = extra_special(rs)
        enumerated = count_lower_ideals(weight_poset(g))
        assert enumerated == expect, name
        assert enumerated == len(rs.long_simple) * (rs.coxeter_number - 1), name
    _passed(4, f"#Pi_l*(h-1) matches enumeration for {len(EXTRA_SPECIAL_IDEALS)} types")


def test_criterion_05_abelian_identities():
    seen = 0
    for name in checks.default_types(4):
        rs = build(name)
        for g in checks.sweep_gradings(rs):
            if not g.is_abelian:
                continue
            p = weight_poset(g)
            table = enumerate_W0(g)
            n_ideals = count_lower_ideals(p)
            assert n_ideals == len(table.elements())
            assert Fraction(n_ideals) == km_order(rs) / km_order(
                rs, [r for r in rs.positive_roots if g.level(r) == 0])
            mp = m_polynomial(p)
            assert poincare(w.length for w in table.elements()) == mp
            assert value(mp, -1) == self_dual_count(p)
            seen += 1
    assert count_lower_ideals(weight_poset(parse_grading_spec("A3:0,1,0"))) == 6
    _passed(5, f"abelian count/polynomial/self-dual identities on {seen} gradings")


def test_criterion_06_length_generating_identity():
    for name in checks.default_types(4):
        rs = build(name)
        lengths = [w.length for w in weyl_elements(rs)]
        assert poincare(lengths) == km_poly(rs), name
    _passed(6, "Poincare polynomial equals the height product for rank <= 4")


def test_criterion_07_characteristic_polynomials():
    t0 = time.monotonic()
    results = checks.run(checks.targets_for(checks.default_types(4)), ["charpoly"])
    dt = time.monotonic() - t0
    assert _failures(results) == []
    assert dt < 120.0
    _passed(7, f"{len(results)} finite-field characteristic polynomial checks, {dt:.2f}s")


def test_criterion_08_upper_ideal_partitions():
    t0 = time.monotonic()
    results = checks.run(checks.targets_for(checks.default_types(4) + ["A5"]),
                         ["appendix"])
    dt = time.monotonic() - t0
    assert _failures(results) == []
    from gradus.arrangement import upper_ideal_partition_check
    assert upper_ideal_partition_check(build("A3"))["upper_ideals"] == 14
    assert dt < 60.0
    _passed(8, f"partition shape holds for every upper ideal, rank <= 4 and A5, {dt:.2f}s")


def test_criterion_09_rank7_example():
    t0 = time.monotonic()
    rep = checks.e7_example_report()
    dt = time.monotonic() - t0
    assert rep["positive_level_sizes"] == [21, 35, 7]
    assert rep["partition"] == [7, 6, 6, 6, 6, 5, 5, 4, 4, 3, 2, 1, 1]
    assert rep["dual_partition"] == [13, 11, 10, 9, 7, 5, 1]
    n = rep["ideal_count"]
    assert n == rep["antichain_count"] == rep["region_count"]
    assert Fraction(rep["formula_value"]) == n
    assert n == 352
    assert rep["stated_count_in_source"] == 252  # reported, not reproduced
    assert dt < 300.0
    _passed(9, f"35-weight example: enumeration=regions=formula={n}; "
               f"source states {rep['stated_count_in_source']}; {dt:.2f}s")


def test_criterion_10_deterministic_json(capsys):
    commands = [
        ["show", "B2:es", "--json"],
        ["ideals", "F4:es", "--json", "--list"],
        ["weyl", "A3:0,1,0", "--json", "--min", "--max"],
        ["arrangement", "G2:es", "--json"],
        ["verify", "--suite", "ideals", "--json", "B3:0,1,0"],
    ]
    for argv in commands:
        outs = []
        for _ in range(2):
            assert cli_main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1], argv
        json.loads(outs[0])
    with capsys.disabled():
        _passed(10, f"{len(commands)} commands byte-identical across runs")
