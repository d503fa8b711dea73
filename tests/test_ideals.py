import pytest
from itertools import combinations

from gradus.checks import default_types, sweep_gradings
from gradus.grading import parse_grading_spec
from gradus.ideals import (
    Antichain,
    Ideal,
    count_antichains,
    count_lower_ideals,
    dual_ideal,
    enumerate_lower_ideals,
    iter_downclosed,
    iter_lower_ideals,
    lower_ideal_from_antichain,
    lower_ideal_from_roots,
    m_polynomial,
    max_elements,
    min_elements,
    self_dual_count,
    weight_poset,
)
from gradus.polys import value
from gradus.rootsys import build


def poset(spec):
    return weight_poset(parse_grading_spec(spec))


def brute_lower_masks(p):
    """All downward closed masks by direct filtering, for small posets."""
    assert p.size <= 14
    out = []
    for mask in range(1 << p.size):
        if all(p.down_masks[j] & mask == p.down_masks[j]
               for j in range(p.size) if mask >> j & 1):
            out.append(mask)
    return out


SMALL = ["A2:1,0", "A2:1,1", "B2:0,1", "G2:0,1", "G2:1,1", "A3:0,1,0",
         "A3:1,0,1", "B3:0,1,0", "C3:1,0,0", "B3:1,0,2", "D4:0,1,0,0"]


@pytest.mark.parametrize("spec", SMALL)
def test_enumeration_matches_brute_force(spec):
    p = poset(spec)
    got = [i.mask for i in enumerate_lower_ideals(p)]
    assert sorted(got) == brute_lower_masks(p)
    assert len(got) == len(set(got))


@pytest.mark.parametrize("spec", SMALL)
def test_enumeration_order_is_bitwise_lexicographic(spec):
    p = poset(spec)
    masks = [i.mask for i in enumerate_lower_ideals(p)]
    words = [tuple(m >> j & 1 for j in range(p.size)) for m in masks]
    assert words == sorted(words)
    assert masks[0] == 0
    assert masks[-1] == p.full_mask


def test_pinned_small_counts():
    assert count_lower_ideals(poset("A2:1,0")) == 3
    assert m_polynomial(poset("A2:1,0")) == (1, 1, 1)
    assert count_lower_ideals(poset("B2:0,1")) == 3
    assert count_lower_ideals(poset("G2:0,1")) == 5
    assert count_lower_ideals(poset("A3:0,1,0")) == 6
    assert m_polynomial(poset("A3:0,1,0")) == (1, 1, 2, 1, 1)
    assert m_polynomial(poset("B3:0,1,0")) == (1, 1, 2, 2, 2, 1, 1)


@pytest.mark.parametrize("spec", SMALL)
def test_count_three_ways(spec):
    p = poset(spec)
    n = count_lower_ideals(p)
    assert n == value(m_polynomial(p), 1)
    assert n == count_antichains(p)


@pytest.mark.parametrize("spec", SMALL)
def test_antichain_bijections(spec):
    p = poset(spec)
    seen = set()
    for ideal in enumerate_lower_ideals(p):
        a = max_elements(p, ideal)
        assert lower_ideal_from_antichain(p, a).mask == ideal.mask
        seen.add(a.mask)
    assert len(seen) == count_lower_ideals(p)
    # and conversely via brute force over all antichains
    for k in range(p.size + 1):
        for combo in combinations(range(p.size), k):
            mask = 0
            for j in combo:
                mask |= 1 << j
            try:
                a = Antichain(p, mask)
            except ValueError:
                continue
            back = max_elements(p, lower_ideal_from_antichain(p, a))
            assert back.mask == mask


@pytest.mark.parametrize("spec", SMALL)
def test_duality_is_an_involution(spec):
    p = poset(spec)
    for ideal in enumerate_lower_ideals(p):
        d = dual_ideal(p, ideal)
        assert d.size == p.size - ideal.size
        assert dual_ideal(p, d).mask == ideal.mask


def test_self_dual_count_pinned():
    p = poset("A3:0,1,0")
    assert self_dual_count(p) == 2
    assert value(m_polynomial(p), -1) == 2


def test_min_elements_of_upward_closed_sets():
    p = poset("B3:0,1,0")
    for ideal in enumerate_lower_ideals(p):
        comp = ideal.complement_mask
        a = min_elements(p, comp)
        # complement of a lower ideal is upward closed; its minima generate it
        up = 0
        for j in range(p.size):
            if a.mask >> j & 1:
                up |= p.up_masks[j]
        assert up == comp


def test_ideal_validation():
    p = poset("B2:0,1")
    with pytest.raises(ValueError):
        Ideal(p, p.full_mask & ~1)  # drops a minimal element


def test_lower_ideal_from_roots():
    g = parse_grading_spec("B2:es")
    p = weight_poset(g)
    a2 = g.rs.root((0, 1))
    a12 = g.rs.root((1, 1))
    ideal = lower_ideal_from_roots(p, [a2])
    assert [r.coords for r in ideal.roots()] == [(0, 1)]
    with pytest.raises(ValueError, match="not a lower ideal"):
        lower_ideal_from_roots(p, [a12])
    with pytest.raises(ValueError, match="not in slice"):
        lower_ideal_from_roots(p, [g.rs.root((1, 0))])


def test_iter_downclosed_on_hand_built_poset():
    # chain of 2 and an isolated point: 3 * 2 = 6 downsets
    down = [0b001, 0b011, 0b100]
    masks = list(iter_downclosed(down))
    assert len(masks) == 6
    assert set(masks) == {0b000, 0b001, 0b011, 0b100, 0b101, 0b111}


def test_higher_slice_poset():
    # slices above level 1 order by the same coordinatewise rule
    g = parse_grading_spec("B3:1,0,2")
    p2 = weight_poset(g, 2)
    assert p2.size > 0
    assert count_lower_ideals(p2) == count_antichains(p2)


def test_covers_match_closure():
    p = poset("B3:0,1,0")
    for j, covers in enumerate(p.covers_down):
        expect = p.down_masks[j] & ~(1 << j)
        got = 0
        for c in covers:
            got |= p.down_masks[c]
        assert got == expect


@pytest.mark.parametrize("name", default_types(3))
def test_poset_mask_inverts_positive_mask(name):
    for g in sweep_gradings(build(name)):
        p = weight_poset(g)
        outside = ~g.level_mask(1) & ((1 << len(g.rs.positive_roots)) - 1)
        for ideal in iter_lower_ideals(p):
            pos = p.positive_mask(ideal.mask)
            assert pos & ~g.level_mask(1) == 0
            assert p.poset_mask(pos) == ideal.mask
            assert p.poset_mask(pos | outside) == ideal.mask
