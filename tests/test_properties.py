"""Randomized cross-checks of the exact engines against direct definitions."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from gradus.arrangement import geometric_sign_oracle, ideal_count_formula
from gradus.grading import grade
from gradus.ideals import (
    Ideal,
    count_lower_ideals,
    dual_ideal,
    lower_ideal_from_antichain,
    max_elements,
    weight_poset,
)
from gradus.rootsys import build
from test_weyl import _matrix
from gradus.weyl import (
    closure_mask,
    element_from_inversions,
    from_word,
    is_biconvex,
    tau,
    w_max,
    w_min,
)

TYPES = ["A2", "A3", "B2", "B3", "C3", "G2", "D4", "A4"]
CLASSICAL = ["A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "G2"]


@st.composite
def gradings(draw, names=TYPES, top=3):
    rs = build(draw(st.sampled_from(names)))
    marks = draw(st.lists(st.integers(0, top), min_size=rs.rank,
                          max_size=rs.rank).filter(lambda m: any(m)))
    return grade(rs, tuple(marks))


@st.composite
def graded_ideals(draw):
    g = draw(gradings().filter(lambda g: g.level_mask(1) != 0))
    p = weight_poset(g)
    seed = draw(st.integers(0, p.full_mask))
    mask = 0
    for j in range(p.size):
        if seed >> j & 1:
            mask |= p.down_masks[j]
    return g, p, Ideal(p, mask)


@settings(max_examples=60, deadline=None)
@given(gradings())
def test_levels_additive(g):
    rs = g.rs
    for a in rs.positive_roots:
        for b in rs.positive_roots:
            c = rs.add_roots(a, b)
            if c is not None:
                assert g.level(c) == g.level(a) + g.level(b)


@settings(max_examples=60, deadline=None)
@given(gradings(names=CLASSICAL, top=4))
def test_counting_formula_random_gradings(g):
    if g.level_mask(1) == 0:
        return
    p = weight_poset(g)
    assert Fraction(count_lower_ideals(p)) == ideal_count_formula(g)


@settings(max_examples=60, deadline=None)
@given(graded_ideals())
def test_downclosure_and_duality(bundle):
    g, p, ideal = bundle
    assert p.is_lower_mask(ideal.mask)
    d = dual_ideal(p, ideal)
    assert dual_ideal(p, d).mask == ideal.mask
    assert d.size + ideal.size == p.size


@settings(max_examples=60, deadline=None)
@given(graded_ideals())
def test_antichain_round_trip(bundle):
    g, p, ideal = bundle
    a = max_elements(p, ideal)
    assert lower_ideal_from_antichain(p, a).mask == ideal.mask


@settings(max_examples=40, deadline=None)
@given(graded_ideals())
def test_extreme_elements_hit_the_ideal(bundle):
    g, p, ideal = bundle
    lo, hi = w_min(g, ideal), w_max(g, ideal)
    assert tau(g, lo).mask == ideal.mask
    assert tau(g, hi).mask == ideal.mask
    assert lo.length <= hi.length
    assert is_biconvex(g.rs, lo.inversion_mask)
    assert is_biconvex(g.rs, hi.inversion_mask)
    assert closure_mask(g.rs, p.positive_mask(ideal.mask)) == lo.inversion_mask


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["A2", "B2", "A3", "B3", "G2"]),
       st.lists(st.integers(0, 3), max_size=9))
def test_word_and_inversion_round_trips(name, word):
    rs = build(name)
    w = from_word(rs, tuple(i % rs.rank for i in word))
    assert _matrix(from_word(rs, w.word)) == _matrix(w)
    assert len(w.word) == w.length
    assert _matrix(element_from_inversions(rs, w.inversion_mask)) == _matrix(w)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 2), max_size=8))
def test_sign_oracle_agrees_with_inversions(word):
    g = grade(build("B3"), (0, 1, 0))
    rs = g.rs
    w = from_word(rs, tuple(i % rs.rank for i in word))
    signs = geometric_sign_oracle(g, w, normals=rs.positive_roots)
    for r, s in zip(rs.positive_roots, signs):
        assert (s < 0) == (not w.apply(r).is_positive)
