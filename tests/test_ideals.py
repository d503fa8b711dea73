import re
from itertools import combinations

import pytest

from gradus import rootsys
from gradus.checks import default_types, sweep_gradings
from gradus.grading import parse_grading_spec
from gradus.ideals import (
    Antichain,
    Ideal,
    count_antichains,
    count_lower_ideals,
    dual_ideal,
    iter_downclosed,
    iter_lower_ideals,
    lower_ideal_from_antichain,
    lower_ideal_from_roots,
    m_polynomial,
    max_elements,
    min_elements,
    order_masks,
    self_dual_count,
    upper_ideal_from_antichain,
    weight_poset,
)
from gradus.polys import value
from gradus.rootsys import BudgetExceeded, build
from gradus.weyl import closure_mask, enumerate_W0, fiber, tau, w_min
from test_weyl import ORACLE_TARGETS, _oracle_gradings


def poset(spec):
    return weight_poset(parse_grading_spec(spec))


def brute_lower_masks(p):
    """All downward closed masks by direct filtering of every subset of the
    slice, for small posets."""
    assert p.size <= 14
    out = []
    for sub in range(1 << p.size):
        mask = sum(1 << k for j, k in enumerate(p.positive_index) if sub >> j & 1)
        if all(d & mask == d for k, d in zip(p.positive_index, p.down_masks)
               if mask >> k & 1):
            out.append(mask)
    return sorted(out)


SMALL = ["A2:1,0", "A2:1,1", "B2:0,1", "G2:0,1", "G2:1,1", "A3:0,1,0",
         "A3:1,0,1", "B3:0,1,0", "C3:1,0,0", "B3:1,0,2", "D4:0,1,0,0"]


@pytest.mark.parametrize("spec", SMALL)
def test_enumeration_matches_brute_force(spec):
    p = poset(spec)
    got = [i.mask for i in p.lower_ideals]
    assert sorted(got) == brute_lower_masks(p)
    assert len(got) == len(set(got))


@pytest.mark.parametrize("spec", SMALL)
def test_enumeration_order_is_bitwise_lexicographic(spec):
    p = poset(spec)
    masks = [i.mask for i in p.lower_ideals]
    words = [tuple(m >> k & 1 for k in p.positive_index) for m in masks]
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
    for ideal in p.lower_ideals:
        a = max_elements(p, ideal)
        assert lower_ideal_from_antichain(p, a).mask == ideal.mask
        seen.add(a.mask)
    assert len(seen) == count_lower_ideals(p)
    # and conversely via brute force over all antichains
    for k in range(p.size + 1):
        for combo in combinations(p.positive_index, k):
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
    for ideal in p.lower_ideals:
        d = dual_ideal(p, ideal)
        assert d.size == p.size - ideal.size
        assert dual_ideal(p, d).mask == ideal.mask


def test_self_dual_count_pinned():
    p = poset("A3:0,1,0")
    assert self_dual_count(p) == 2
    assert value(m_polynomial(p), -1) == 2


def test_min_elements_of_upward_closed_sets():
    p = poset("B3:0,1,0")
    for ideal in p.lower_ideals:
        comp = ideal.complement_mask
        a = min_elements(p, comp)
        # complement of a lower ideal is upward closed; its minima generate it
        up = 0
        for k, u in zip(p.positive_index, p.up_masks):
            if a.mask >> k & 1:
                up |= u
        assert up == comp


def test_antichain_closures_check_a_bare_mask():
    g = parse_grading_spec("B3:0,1,0")
    p = weight_poset(g)
    assert g.delta0_mask & 1  # root 0 is at level 0
    for close in (lower_ideal_from_antichain, upper_ideal_from_antichain):
        with pytest.raises(ValueError, match="outside slice 1"):
            close(p, 1)
        with pytest.raises(ValueError, match="not pairwise incomparable"):
            close(p, p.full_mask)
    for ideal in p.lower_ideals:
        a = max_elements(p, ideal)
        assert lower_ideal_from_antichain(p, a.mask) == lower_ideal_from_antichain(p, a)
        b = min_elements(p, ideal.complement_mask)
        assert upper_ideal_from_antichain(p, b.mask) == ideal.complement_mask


def test_ideal_validation():
    g = parse_grading_spec("B2:0,1")
    p = weight_poset(g)
    with pytest.raises(ValueError, match="downward closed"):
        Ideal(p, p.full_mask & ~(1 << p.positive_index[0]))  # drops a minimal element
    npos = len(g.rs.positive_roots)
    level0, level2 = g.level_mask(0), g.level_mask(2)
    assert level0 and level2
    for outside in (level0 & -level0, level2, 1 << npos, -1):
        with pytest.raises(ValueError, match="outside slice 1"):
            Ideal(p, outside)
        with pytest.raises(ValueError, match="outside slice 1"):
            Antichain(p, outside)


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
    # the same poset on sparse bits, as the down-sets of a slice are
    sparse = list(iter_downclosed([0b10, 0b1010, 0b10000]))
    assert len(sparse) == 6
    assert set(sparse) == {0, 0b10, 0b1010, 0b10000, 0b10010, 0b11010}


def test_higher_slice_poset():
    # slices above level 1 order by the same coordinatewise rule
    g = parse_grading_spec("B3:1,0,2")
    p2 = weight_poset(g, 2)
    assert p2.size > 0
    assert count_lower_ideals(p2) == count_antichains(p2)


def test_covers_match_closure():
    p = poset("B3:0,1,0")
    down = dict(zip(p.positive_index, p.down_masks))
    for k, covers in zip(p.positive_index, p.covers_down):
        expect = down[k] & ~(1 << k)
        got = 0
        for c in covers:
            got |= down[c]
        assert got == expect


@pytest.mark.parametrize("name", default_types(3))
def test_poset_mask_inverts_positive_mask(name):
    """A poset mask is a positive-root mask, so the conversion each way is
    the identity: ideals lie in Delta(1), tau is a masked inversion set, and
    fiber and w_min take that mask as it is."""
    for g in sweep_gradings(build(name)):
        p = weight_poset(g)
        for ideal in iter_lower_ideals(p):
            assert ideal.mask & ~g.level_mask(1) == 0
        for w in enumerate_W0(g).elements():
            mask = tau(g, w).mask
            assert mask == w.inversion_mask & g.level_mask(1)
            ideal = Ideal(p, mask)
            assert w in fiber(g, ideal)
            assert w_min(g, ideal).inversion_mask == closure_mask(g.rs, mask)


def coordinate_order_masks(elements, steps):
    """The order builder on coordinates: covers found by subtracting each
    step from each element's coordinates and looking the difference up among
    the elements, down-sets closed over covers, both over element positions.
    Kept as the oracle for order_masks."""
    index = {r.coords: j for j, r in enumerate(elements)}
    covers_down = []
    for r in elements:
        covered = []
        for a in steps:
            j = index.get(tuple(c - (1 if t == a else 0) for t, c in enumerate(r.coords)))
            if j is not None:
                covered.append(j)
        covers_down.append(tuple(covered))
    down_masks = []
    for k, covered in enumerate(covers_down):
        mask = 1 << k
        for j in covered:
            mask |= down_masks[j]
        down_masks.append(mask)
    return tuple(covers_down), tuple(down_masks)


def _assert_matches_the_coordinate_builder(rs, members, steps):
    covers, down = order_masks(rs, members, steps)
    old_covers, old_down = coordinate_order_masks(
        [rs.positive_roots[k] for k in members], steps
    )
    assert covers == tuple(tuple(members[j] for j in c) for c in old_covers)
    assert down == tuple(
        sum(1 << k for j, k in enumerate(members) if d >> j & 1) for d in old_down
    )


def _arithmetic_down_masks(rs, members):
    """The arithmetic order on the members by the quadratic scan order_masks
    checked with before its per-coordinate masks: j lies below i when every
    coordinate of root i minus root j is nonnegative.  Kept as the oracle."""
    roots = rs.positive_roots
    out = []
    for i in members:
        arith = 0
        for j in members:
            if all(a - b >= 0 for a, b in zip(roots[i].coords, roots[j].coords)):
                arith |= 1 << j
        out.append(arith)
    return tuple(out)


def test_order_check_matches_the_quadratic_scan():
    # Every slice of every sweep grading of rank <= 5 and every root poset:
    # the checked down-sets are the arithmetic order the scan finds.
    posets = 0
    for name in default_types(5):
        rs = build(name)
        for g in sweep_gradings(rs):
            for level in range(1, max(rs.theta.coords) * rs.rank + 1):
                if g.level_mask(level):
                    p = weight_poset(g, level)
                    assert p.down_masks == _arithmetic_down_masks(rs, p.positive_index)
                    posets += 1
    for name in default_types(8):
        rs = build(name)
        members = range(len(rs.positive_roots))
        assert order_masks(rs, members, range(rs.rank))[1] == _arithmetic_down_masks(rs, members)
        posets += 1
    assert posets == 876


@pytest.mark.parametrize("name", ["A3", "B3", "G2", "F4"])
def test_order_check_raises_where_the_quadratic_scan_disagrees(name):
    # Covers by alpha_1 alone close to less than the arithmetic order; the
    # check names the first member where the scan sees more.
    rs = build(name)
    members = tuple(range(len(rs.positive_roots)))
    _, down = coordinate_order_masks(rs.positive_roots, [0])
    first = next(k for k, (d, arith) in enumerate(zip(down, _arithmetic_down_masks(rs, members)))
                 if d != arith)
    with pytest.raises(AssertionError, match=re.escape(
            f"cover closure disagrees with the arithmetic order at {rs.positive_roots[first]}")):
        order_masks(rs, members, [0])


@pytest.mark.parametrize("name", default_types(4))
def test_order_masks_match_the_coordinate_builder_on_slices(name):
    for g in sweep_gradings(build(name)):
        for level in (1, 2):
            if g.level_mask(level):
                p = weight_poset(g, level)
                _assert_matches_the_coordinate_builder(g.rs, p.positive_index, g.pi0)
                assert (p.covers_down, p.down_masks) == order_masks(
                    g.rs, p.positive_index, g.pi0
                )


@pytest.mark.parametrize("name", default_types(8))
def test_order_masks_match_the_coordinate_builder_on_root_posets(name):
    rs = build(name)
    _assert_matches_the_coordinate_builder(
        rs, tuple(range(len(rs.positive_roots))), range(rs.rank)
    )


def test_a_level_1_ideal_walk_refuses_itself_over_the_budget(monkeypatch):
    # Counted by the height product over Delta(1) before the walk starts, so
    # every library reader of the ideals is refused as `gradus ideals` is.
    level1 = parse_grading_spec("A3:0,1,0")
    level2 = parse_grading_spec("A4:1,1,1,1")
    monkeypatch.setattr(rootsys, "BUDGET", 5)
    message = "6 lower ideals of A3:0,1,0 exceed the budget of 5"
    for reader in (count_lower_ideals, m_polynomial, lambda p: p.lower_ideals):
        with pytest.raises(BudgetExceeded, match=f"^{re.escape(message)}$"):
            reader(weight_poset(level1))
    # levels >= 2 are not bounded: three incomparable roots, 8 ideals
    assert count_lower_ideals(weight_poset(level2, 2)) == 8


@pytest.mark.parametrize("target", ORACLE_TARGETS)
def test_self_dual_count_matches_the_dual_ideal_route(target):
    for g in _oracle_gradings(target):
        p = weight_poset(g, 1)
        want = sum(dual_ideal(p, i) == i for i in iter_lower_ideals(p))
        assert self_dual_count(p) == want
