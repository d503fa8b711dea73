from itertools import product

import pytest

from gradus.checks import default_types
from gradus.grading import extra_special, grade, parse_grading_spec
from gradus.rootsys import build


def test_levels_are_additive_on_root_sums():
    g = parse_grading_spec("B3:1,0,2")
    rs = g.rs
    for a in rs.roots():
        for b in rs.roots():
            c = rs.add_roots(a, b)
            if c is not None:
                assert g.level(c) == g.level(a) + g.level(b)


def test_slices_partition_the_roots():
    g = parse_grading_spec("C3:0,1,0")
    rs = g.rs
    seen = []
    for i in range(-g.max_level, g.max_level + 1):
        seen.extend(g.slice(i))
    assert sorted(seen, key=lambda r: r.coords) == \
        sorted(rs.roots(), key=lambda r: r.coords)
    # slice(0) carries both signs, slice(i) for i > 0 only positives
    assert any(not r.is_positive for r in g.slice(0))
    assert all(r.is_positive for r in g.slice(1))


def test_level_is_marked_coefficient_sum():
    g = parse_grading_spec("A3:1,0,1")
    for r in g.rs.roots():
        assert g.level(r) == r.coords[0] + r.coords[2]


@pytest.mark.parametrize("name,marks", [
    ("A2", (1, 1)),
    ("B2", (0, 1)),
    ("C2", (1, 0)),
    ("G2", (0, 1)),
    ("A3", (1, 0, 1)),
    ("B3", (0, 1, 0)),
    ("C3", (1, 0, 0)),
    ("B4", (0, 1, 0, 0)),
    ("F4", (1, 0, 0, 0)),
])
def test_extra_special_marks(name, marks):
    g = extra_special(build(name))
    assert g.marks == marks
    assert g.is_extra_special
    assert g.slice(2) == (g.rs.theta,)


def test_extra_special_A1_is_degenerate():
    g = extra_special(build("A1"))
    assert g.marks == (2,)
    assert g.level_mask(1) == 0


def test_abelian_flags():
    assert parse_grading_spec("B2:1,0").is_abelian
    assert not parse_grading_spec("B2:0,1").is_abelian
    assert parse_grading_spec("A3:0,1,0").is_abelian
    assert not parse_grading_spec("G2:1,0").is_abelian


def test_abelian_iff_unit_theta_coefficient():
    # single marked node: abelian exactly when theta has coefficient 1 there
    for name in ["A3", "B3", "C3", "D4", "G2", "F4"]:
        rs = build(name)
        for i in range(rs.rank):
            marks = tuple(int(j == i) for j in range(rs.rank))
            g = grade(rs, marks)
            assert g.is_abelian == (rs.theta.coords[i] == 1)


def test_standard_and_k_standard():
    assert parse_grading_spec("A2:1,1").k_standard == 2
    assert parse_grading_spec("B2:0,1").k_standard == 1
    g = parse_grading_spec("B3:1,0,2")
    assert not g.is_standard
    assert g.k_standard is None


def test_pi_sets():
    g = parse_grading_spec("A3:0,1,0")
    assert g.pi0 == (0, 2)
    assert g.pi(1) == (1,)
    g2 = parse_grading_spec("B3:1,0,2")
    assert g2.pi(2) == (2,)


def test_spec_string_round_trip():
    for spec in ["A2:1,0", "B3:0,1,0", "G2:2,1", "F4:1,0,0,0"]:
        g = parse_grading_spec(spec)
        assert g.spec_string() == spec
        assert parse_grading_spec(g.spec_string()).marks == g.marks
    # es alias normalizes to explicit marks
    assert parse_grading_spec("B2:es").spec_string() == "B2:0,1"


def test_parse_std_node_list():
    assert parse_grading_spec("A3:std=1,3").marks == (1, 0, 1)
    assert parse_grading_spec("B3:std=2").marks == (0, 1, 0)


def test_parse_grading_spec_errors():
    for bad in ["A2", "A2:", "A2:1", "A2:1,0,0", "A2:0,0", "A2:-1,0",
                "H2:1,0", "A2:x,y", "A2:std=", "A2:std=5", "A2:std=x"]:
        with pytest.raises(ValueError):
            parse_grading_spec(bad)


def test_positive_slice_sizes():
    g = parse_grading_spec("G2:0,1")
    sizes = [sum(1 for r in g.slice(i) if r.is_positive)
             for i in range(g.max_level + 1)]
    assert sizes == [1, 4, 1]
    g2 = parse_grading_spec("B3:0,1,0")
    sizes2 = [sum(1 for r in g2.slice(i) if r.is_positive)
              for i in range(g2.max_level + 1)]
    assert sizes2 == [2, 6, 1]


def test_simple_components_split_and_minima():
    g = parse_grading_spec("A3:1,0,1")
    comps = g.simple_components()[1]
    assert len(comps) == 2
    shapes = sorted(tuple(sorted(r.coords for r in c)) for c in comps)
    assert shapes == [
        (((0, 0, 1)), ((0, 1, 1))),
        (((1, 0, 0)), ((1, 1, 0))),
    ]
    # each component has a unique minimal element: the marked simple root
    mins = sorted(min(c, key=lambda r: r.height).coords for c in comps)
    assert mins == [(0, 0, 1), (1, 0, 0)]


def test_simple_components_connected_case():
    g = parse_grading_spec("B3:0,1,0")
    comps = g.simple_components()
    assert len(comps[1]) == 1 and len(comps[1][0]) == 6
    assert len(comps[2]) == 1 and comps[2][0] == (g.rs.theta,)


def test_level_masks_cover_positives():
    g = parse_grading_spec("C4:0,1,0,0")
    full = 0
    for i in range(g.max_level + 1):
        mask = g.level_mask(i)
        assert full & mask == 0
        full |= mask
    assert full == (1 << len(g.rs.positive_roots)) - 1


def _components_by_coordinates(g):
    """Simple components rebuilt from coordinate tuples: each (member, level-0
    simple) pair is summed coordinatewise and looked up in the root index."""
    rs = g.rs
    out = {}
    for i in range(1, g.max_level + 1):
        members = [k for k, lv in enumerate(g.levels) if lv == i]
        parent = {k: k for k in members}

        def find(k):
            while parent[k] != k:
                parent[k] = parent[parent[k]]
                k = parent[k]
            return k

        member_set = set(members)
        for k in members:
            for j in g.pi0:
                s = tuple(
                    c + (1 if t == j else 0)
                    for t, c in enumerate(rs.positive_roots[k].coords)
                )
                other = rs.index.get(s)
                if other in member_set:
                    parent[find(k)] = find(other)
        groups = {}
        for k in members:
            groups.setdefault(find(k), []).append(k)
        out[i] = [
            tuple(rs.positive_roots[k] for k in sorted(grp))
            for grp in sorted(groups.values(), key=min)
        ]
    return out


@pytest.mark.parametrize("name", default_types(6))
def test_simple_components_match_the_coordinate_route(name):
    rs = build(name)
    for marks in product((0, 1), repeat=rs.rank):
        if any(marks):
            g = grade(rs, marks)
            assert g.simple_components() == _components_by_coordinates(g)
