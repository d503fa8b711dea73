import gc
import json
import tracemalloc
import weakref
from collections import deque
import itertools
import random
from itertools import product
from pathlib import Path

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from gradus import weyl
from gradus.cli import main
from gradus.checks import default_types, sweep_gradings
from gradus.grading import grade, parse_grading_spec
from gradus.ideals import iter_lower_ideals, lower_ideal_from_roots, weight_poset
from gradus.polys import divexact, mul, trimmed
from gradus.rootsys import Root, build, parse_cartan_type
from gradus.weyl import (
    W0_max,
    W0_min,
    biconvex_violation,
    closure_layers,
    closure_mask,
    element_from_inversions,
    enumerate_W0,
    eta,
    fiber,
    from_word,
    in_W0,
    inversion_roots,
    involution,
    is_biconvex,
    involution_images,
    km_order,
    km_poly,
    levi_order,
    longest_element,
    poincare,
    tau,
    w_max,
    w_min,
    weyl_elements,
    WeylElement,
    _compose,
)

ORDERS = {"A1": 2, "A2": 6, "B2": 8, "G2": 12, "A3": 24, "B3": 48, "C3": 48}


def _matmul(x, y):
    return tuple(
        tuple(sum(x[r][k] * y[k][c] for k in range(len(y))) for c in range(len(y[0])))
        for r in range(len(x))
    )


def _matrix_of_word(rs, word):
    """Matrix of s_(i1) ... s_(il) in the simple-root basis, multiplied out
    from the simple reflection matrices of the Cartan matrix (column j of s_i
    is alpha_j - a[i][j] alpha_i): an oracle independent of the root
    permutations that elements are stored as."""
    n, a = rs.rank, rs.cartan_matrix
    m = tuple(tuple(int(r == c) for c in range(n)) for r in range(n))
    for i in word:
        s_i = tuple(
            tuple(int(r == j) - int(r == i) * a[i][j] for j in range(n)) for r in range(n)
        )
        m = _matmul(m, s_i)
    return m


def _matrix(w):
    """Integer matrix of w in the simple-root basis: column j holds the
    coordinates of w(alpha_j)."""
    cols = [w.apply(a).coords for a in w.rs.simple_roots]
    return tuple(zip(*cols))


@pytest.mark.parametrize("name", default_types(4))
def test_permutations_agree_with_the_matrix_route(name):
    rs = build(name)
    elements = weyl_elements(rs)
    assert len(elements) == km_order(rs)
    mats = [_matrix_of_word(rs, w.word) for w in elements]
    for w, m in zip(elements, mats):
        assert _matrix(w) == m
        assert _matrix(w.inverse()) == _matrix_of_word(rs, w.word[::-1])
        negative = 0
        for k, r in enumerate(rs.positive_roots):
            image = _matmul(m, tuple((c,) for c in r.coords))
            if sum(x for (x,) in image) < 0:
                negative |= 1 << k
        assert w.inversion_mask == negative
    for k, u in enumerate(elements):
        j = (7 * k + 3) % len(elements)
        assert _matrix(u * elements[j]) == _matmul(mats[k], mats[j])


def _compose_by_map(u, v):
    """The composition as a Python-level map, before it became one
    itemgetter call; kept as the oracle for it."""
    return tuple(map(u.__getitem__, v))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 300).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))))
def test_compose_matches_the_map_route(pair):
    u, v = map(tuple, pair)
    out = _compose(u, v)
    assert type(out) is tuple
    assert out == _compose_by_map(u, v)


@pytest.mark.parametrize("name", default_types(4) + ["A16"])
def test_compose_matches_the_map_route_on_reflection_rows(name):
    # A1 has the shortest rows (2N = 2) and A16 the first past 256 (2N = 272)
    refl = build(name).reflection_table
    for u in refl:
        for v in refl:
            assert _compose(u, v) == _compose_by_map(u, v), name


def _weyl_elements_bfs(rs):
    """The Weyl group, by breadth-first search in the weak order: the walk
    weyl_elements made on its own before it became the coset table of the
    all-marked grading, kept as the oracle for its permutations."""
    ident = WeylElement.identity(rs)
    out = [ident]
    seen = {ident.perm}
    queue: deque[WeylElement] = deque([ident])
    while queue:
        w = queue.popleft()
        for i in range(rs.rank):
            perm = _compose(rs.reflection_table[i], w.perm)
            if perm in seen:
                continue
            seen.add(perm)
            new = WeylElement(rs, perm)
            out.append(new)
            queue.append(new)
    return out


def test_weyl_elements_walk_matches_the_plain_bfs():
    total = 0
    for name in default_types(4):
        rs = build(name)
        new, old = weyl_elements(rs), _weyl_elements_bfs(rs)
        assert [w.perm for w in new] == [w.perm for w in old], name
        # an element's word is the peel of its inversion set, not its path
        assert [w.word for w in new] == [_old_peel_word(rs, w.inversion_mask) for w in old], name
        total += len(new)
    assert total == 2412


@pytest.mark.parametrize("name", sorted(ORDERS))
def test_group_enumeration_count(name):
    assert len(weyl_elements(build(name))) == ORDERS[name]


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_inversion_sets_biject_with_elements(name):
    rs = build(name)
    elems = weyl_elements(rs)
    masks = {w.inversion_mask for w in elems}
    assert len(masks) == len(elems)
    for w in elems:
        assert w.length == bin(w.inversion_mask).count("1")
        assert len(w.word) == w.length
        assert _matrix(from_word(rs, w.word)) == _matrix(w)
        assert _matrix(element_from_inversions(rs, w.inversion_mask)) == _matrix(w)


def test_inversion_roots_against_direct_application():
    rs = build("B2")
    for w in weyl_elements(rs):
        neg = {r for r in rs.positive_roots if not w.apply(r).is_positive}
        assert set(inversion_roots(w)) == neg


def test_longest_element():
    rs = build("G2")
    w0 = longest_element(rs)
    assert w0.length == len(rs.positive_roots)
    assert all(not w0.apply(a).is_positive for a in rs.simple_roots)
    # parabolic longest element only inverts the parabolic's roots
    w0p = longest_element(rs, indices=[0])
    assert w0p.length == 1


def test_biconvexity_detects_gaps():
    rs = build("B2")
    idx = {r.coords: j for j, r in enumerate(rs.positive_roots)}
    # {a1, a1+2a2}: closed, but the complement {a2, a1+a2} is not
    mask = 1 << idx[(1, 0)] | 1 << idx[(1, 2)]
    assert not is_biconvex(rs, mask)
    for w in weyl_elements(rs):
        assert is_biconvex(rs, w.inversion_mask)


def test_km_identity_small():
    for name in ["A2", "B2", "G2"]:
        rs = build(name)
        lengths = [w.length for w in weyl_elements(rs)]
        assert poincare(lengths) == km_poly(rs)
        assert km_order(rs) == Fraction(ORDERS[name])


def test_km_order_matches_the_product_over_each_root():
    """The height histogram route against the old per-root product."""
    for name in default_types(4):
        rs = build(name)
        for g in sweep_gradings(rs):
            for mask in (None, 0, g.delta0_mask, g.delta1_mask, g.ge1_mask):
                ks = range(len(rs.positive_roots)) if mask is None else rs.indices_of(mask)
                expected = Fraction(1)
                for k in ks:
                    expected *= Fraction(rs.heights[k] + 1, rs.heights[k])
                assert km_order(rs, mask) == expected
    rs = build("A2")
    for mask in (1 << 3, -1):
        with pytest.raises(ValueError, match=f"^{mask} is not a positive-root mask of A2$"):
            km_order(rs, mask)


def _divexact_fractions(num, den):
    """Quotient num/den; raises ValueError unless it divides exactly over Z."""
    den = trimmed(den)
    if den == (0,):
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(c) for c in trimmed(num)]
    if len(rem) < len(den):
        if any(rem):
            raise ValueError("inexact polynomial division")
        return (0,)
    quot = [Fraction(0)] * (len(rem) - len(den) + 1)
    lead = Fraction(den[-1])
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + len(den) - 1] / lead
        quot[k] = c
        if c:
            for j, dj in enumerate(den):
                rem[k + j] -= c * dj
    if any(rem):
        raise ValueError("inexact polynomial division")
    if any(c.denominator != 1 for c in quot):
        raise ValueError("quotient is not an integer polynomial")
    return trimmed(int(c) for c in quot)


def _divexact_both(num, den):
    """divexact and the Fraction long division: the same quotient, or both
    raise ValueError."""
    try:
        expected = _divexact_fractions(num, den)
    except ValueError:
        with pytest.raises(ValueError):
            divexact(num, den)
        return None
    assert divexact(num, den) == expected
    return expected


@pytest.mark.parametrize("name", default_types(6))
def test_km_poly_division_matches_the_fraction_route(name):
    num, den = (1,), (1,)
    for r in build(name).positive_roots:
        num = mul(num, (1,) + (0,) * r.height + (-1,))
        den = mul(den, (1,) + (0,) * (r.height - 1) + (-1,))
    assert _divexact_both(num, den) == km_poly(build(name))
    assert _divexact_both(den, num) is None  # a lower degree and nonzero


small_polys = st.lists(st.integers(-20, 20), min_size=1, max_size=6)


@settings(max_examples=200, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_divexact_matches_the_fraction_route(den, quot, rem):
    if trimmed(den) == (0,):
        with pytest.raises(ZeroDivisionError):
            divexact(quot, den)
        return
    # exact, exact with a remainder added, and a random pair
    assert _divexact_both(mul(den, quot), den) == trimmed(quot)
    num = [a + b for a, b in zip(mul(den, quot) + (0,) * len(rem), rem + [0] * 99)]
    _divexact_both(num, den)
    _divexact_both(quot, den)


def test_divexact_rejects_a_rational_quotient():
    for num, den in [((0, 1), (0, 2)), ((1,), (2,)), ((3, 0, 5), (2,))]:
        with pytest.raises(ValueError, match="not an integer polynomial"):
            divexact(num, den)
        with pytest.raises(ValueError):
            _divexact_fractions(num, den)
    assert divexact((0,), (1, 2)) == (0,) == _divexact_fractions((0,), (1, 2))


def test_levi_order_is_the_order_of_the_level_0_group():
    for name in ["A3", "B3", "G2", "F4"]:
        rs = build(name)
        for g in sweep_gradings(rs):
            assert levi_order(g) * len(enumerate_W0(g)) == km_order(rs)
    assert levi_order(parse_grading_spec("A3:1,1,1")) == 1
    assert levi_order(parse_grading_spec("A3:0,1,0")) == 4  # S2 x S2


def test_coset_table_abelian_case():
    g = parse_grading_spec("A2:1,0")
    table = enumerate_W0(g)
    assert [w.word for w in table.elements()] == [(), (0,), (1, 0)]
    assert table.minimal == table.maximal == set(table.elements())
    for w in table.elements():
        assert in_W0(g, w)


def test_coset_table_extra_special_case():
    g = parse_grading_spec("B2:es")
    table = enumerate_W0(g)
    rows = [(w.word, w.length, w in table.minimal, w in table.maximal)
            for w in table.elements()]
    assert rows == [
        ((), 0, True, True),
        ((1,), 1, True, False),
        ((0, 1), 2, False, True),
        ((1, 0, 1), 3, True, True),
    ]
    assert len(W0_min(g)) == 3
    assert len(W0_max(g)) == 3


def _coset_columns_by_perm(g):
    """The coset walk as it was before a coset was recognised by its
    inversion mask: `seen` keyed by the permutation, each s_i w composed
    before that test, levels read root by root; kept as the oracle for
    CosetTable.  Returns the columns (perms, words, masks, minimal flags,
    maximal flags, by_tau) in breadth-first order, a word being the peel of
    the inversion set by the mask route."""
    rs = g.rs
    npos = len(rs.positive_roots)
    refl = rs.reflection_table
    ident = tuple(range(2 * npos))

    def signed_level(k):
        return g.levels[k] if k < npos else -g.levels[k - npos]

    rows = []
    by_tau = {}
    seen = {ident}
    queue = deque([(ident, ident, 0)])
    while queue:
        perm, inv, inv_mask = queue.popleft()
        preimages = [inv[k] for k in rs.simple_indices]
        levels = [signed_level(k) for k in preimages]
        by_tau.setdefault(inv_mask & g.delta1_mask, []).append(len(rows))
        rows.append((perm, _old_peel_word(rs, inv_mask), inv_mask,
                     all(lv >= -1 for lv in levels), all(lv <= 1 for lv in levels)))
        for i, gained in enumerate(preimages):
            if gained >= npos or g.levels[gained] == 0:
                continue
            new = _compose(refl[i], perm)
            if new in seen:
                continue
            seen.add(new)
            queue.append((new, _compose(inv, refl[i]), inv_mask | 1 << gained))
    return [list(col) for col in zip(*rows)] + [by_tau]


def _coset_columns(table):
    elements = table.elements()
    position = {w: k for k, w in enumerate(elements)}
    return [
        [w.perm for w in elements],
        [w.word for w in elements],
        [w.inversion_mask for w in elements],
        [w in table.minimal for w in elements],
        [w in table.maximal for w in elements],
        {tau: [position[w] for w in fib] for tau, fib in table.by_tau.items()},
    ]


def _assert_coset_walk_matches_the_oracle(g):
    table = weyl.CosetTable(g)
    got, want = _coset_columns(table), _coset_columns_by_perm(g)
    for name, a, b in zip(("perms", "words", "masks", "minimal", "maximal", "by_tau"),
                          got, want):
        assert a == b, (g, name)
    assert table.minimal == {w for w, m in zip(table.elements(), want[3]) if m}
    assert table.maximal == {w for w, m in zip(table.elements(), want[4]) if m}
    return len(table)


def test_coset_walk_matches_the_permutation_keyed_walk_on_the_sweep():
    cosets = sum(
        _assert_coset_walk_matches_the_oracle(g)
        for name in default_types(4) for g in sweep_gradings(build(name))
    )
    assert cosets == 10394


@pytest.mark.parametrize("name", default_types(3))
def test_coset_walk_matches_the_permutation_keyed_walk_off_standard(name):
    rs = build(name)
    for marks in product(range(3), repeat=rs.rank):
        if 2 in marks and (g := grade(rs, marks)).level_mask(1):
            _assert_coset_walk_matches_the_oracle(g)


@pytest.mark.slow
def test_coset_walk_matches_the_permutation_keyed_walk_on_all_marked_e6():
    assert _assert_coset_walk_matches_the_oracle(parse_grading_spec("E6:1,1,1,1,1,1")) == 51840


def test_coset_table_rank3_words_pinned():
    # each word is the peel of the element's inversion set
    table = enumerate_W0(parse_grading_spec("B3:es"))
    rows = [(w.word, w in table.minimal, w in table.maximal) for w in table.elements()]
    assert rows == [
        ((), True, True),
        ((1,), True, True),
        ((0, 1), True, True),
        ((2, 1), True, True),
        ((0, 2, 1), True, False),
        ((1, 2, 1), True, False),
        ((1, 0, 2, 1), False, True),
        ((0, 1, 2, 1), False, True),
        ((1, 0, 1, 2, 1), True, True),
        ((2, 1, 0, 2, 1), True, True),
        ((2, 1, 0, 1, 2, 1), True, True),
        ((1, 2, 1, 0, 1, 2, 1), True, True),
    ]


@pytest.mark.parametrize("name", default_types(4))
def test_an_element_has_one_word_however_it_was_reached(name):
    # a coset table entry and a fiber element print as the peel of their
    # inversion set, like the element rebuilt from that set
    rs = build(name)
    for g in sweep_gradings(rs):
        reached = list(enumerate_W0(g).elements())
        for ideal in iter_lower_ideals(weight_poset(g, 1)):
            reached += fiber(g, ideal)
        for w in reached:
            assert w.word == element_from_inversions(rs, w.inversion_mask).word, (g, w)


def test_a_coset_table_keeps_at_most_560_bytes_per_coset():
    # what tracemalloc sees a built table keep; B5's 3,840 cosets kept about
    # 720 B each while every coset carried its breadth-first word, and about
    # 573 B while its fibers held positions instead of the elements
    g = parse_grading_spec("B5:1,1,1,1,1")
    weyl.CosetTable(g)  # fill the root system's and the grading's caches first
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = weyl.CosetTable(g)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained <= 560 * len(table), retained / len(table)


@pytest.mark.parametrize("name,cosets", [("A16", 17), ("B12", 24), ("D12", 24)])
def test_one_node_gradings_beyond_256_roots(name, cosets):
    # 2N > 256 here, so a root index does not fit in a byte
    rs = build(name)
    g = parse_grading_spec(f"{name}:" + ",".join(["1"] + ["0"] * (rs.rank - 1)))
    elements = enumerate_W0(g).elements()
    assert len(elements) == cosets
    assert len({eta(g, w) for w in elements}) == cosets
    for w in elements:
        assert from_word(rs, w.word) == w
        assert element_from_inversions(rs, w.inversion_mask) == w
        assert w.inverse() * w == from_word(rs, ())
    w0 = longest_element(rs)
    assert w0.length == len(rs.positive_roots)
    if name != "A16":  # -1 lies in W for B and for D of even rank
        assert all(w0.apply(r) == -r for r in rs.positive_roots)


def test_tau_reads_level_one_inversions():
    g = parse_grading_spec("B2:es")
    table = enumerate_W0(g)
    for w in table.elements():
        ideal = tau(g, w)
        assert ideal.mask == w.inversion_mask & g.level_mask(1)


def test_w_min_w_max_pinned():
    g = parse_grading_spec("B2:es")
    p = weight_poset(g)
    ideal = lower_ideal_from_roots(p, [g.rs.root((0, 1))])
    lo, hi = w_min(g, ideal), w_max(g, ideal)
    assert lo.word == (1,)
    assert hi.word == (0, 1)
    assert [r.coords for r in inversion_roots(lo)] == [(0, 1)]
    assert sorted(r.coords for r in inversion_roots(hi)) == [(0, 1), (1, 2)]


def test_closure_layers_pinned():
    g = parse_grading_spec("B2:es")
    rs = g.rs
    p = weight_poset(g)
    full = p.full_mask
    layers = closure_layers(rs, full)
    named = [sorted(str(r) for r in rs.positive_roots
                    if m >> rs.index[r.coords] & 1) for m in layers]
    assert named == [["a1+a2", "a2"], ["a1+2a2"]]
    assert closure_mask(rs, full) == layers[0] | layers[1]


def _closure_layers_scan(rs, mask):
    """closure_layers as it scanned every pair of a root of the mask and a
    root of the last layer, before the per-root partner masks; kept as the
    oracle."""
    sums = rs.sums
    layers = [mask]
    total = mask
    prev = mask
    while True:
        nxt = 0
        rest = mask
        while rest:
            i = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            other = prev
            while other:
                j = (other & -other).bit_length() - 1
                other &= other - 1
                k = sums[i].get(j)
                if k is not None:
                    nxt |= 1 << k
        nxt &= ~total
        if not nxt:
            return layers
        layers.append(nxt)
        total |= nxt
        prev = nxt


def test_closure_layers_match_the_pair_scan_on_the_sweep_ideals():
    # The ideals of every sweep grading of rank <= 5 (what w_min closes) and
    # their complements in Delta(1) (what w_max closes).
    count = 0
    for name in default_types(5):
        rs = build(name)
        for g in sweep_gradings(rs):
            for ideal in weight_poset(g).lower_ideals:
                for mask in (ideal.mask, g.delta1_mask & ~ideal.mask):
                    assert closure_layers(rs, mask) == _closure_layers_scan(rs, mask)
                    count += 1
    assert count == 10_400


def test_closure_is_w_min_inversion_set():
    g = parse_grading_spec("G2:es")
    for w in enumerate_W0(g).minimal:
        ideal = tau(g, w)
        assert closure_mask(g.rs, ideal.mask) == w.inversion_mask


def test_fiber_is_weak_interval():
    g = parse_grading_spec("G2:es")
    table = enumerate_W0(g)
    total = 0
    level1 = g.level_mask(1)
    for ideal_mask in {w.inversion_mask & level1 for w in table.elements()}:
        first = next(w for w in table.elements() if w.inversion_mask & level1 == ideal_mask)
        ideal = tau(g, first)
        fib = fiber(g, ideal)
        total += len(fib)
        lo, hi = w_min(g, ideal), w_max(g, ideal)
        assert _matrix(fib[0]) == _matrix(lo) and _matrix(fib[-1]) == _matrix(hi)
        members = {w.inversion_mask for w in fib}
        for w in table.elements():
            between = (w.inversion_mask & lo.inversion_mask == lo.inversion_mask) and \
                      (w.inversion_mask | hi.inversion_mask == hi.inversion_mask)
            assert between == (w.inversion_mask in members)
    assert total == len(table.elements())


def test_involution_pinned_and_involutive():
    g = parse_grading_spec("B2:es")
    words = {(): (1, 0, 1), (1,): (0, 1)}
    for w in enumerate_W0(g).elements():
        iw = involution(g, w)
        assert _matrix(involution(g, iw)) == _matrix(w)
        if w.word in words:
            assert iw.word == words[w.word]


def test_involution_swaps_min_and_max():
    for spec in ["A3:0,1,0", "B3:0,1,0", "G2:es"]:
        g = parse_grading_spec(spec)
        mins = {_matrix(w) for w in W0_min(g)}
        maxs = {_matrix(w) for w in W0_max(g)}
        assert {_matrix(involution(g, w)) for w in W0_min(g)} == maxs
        assert {_matrix(involution(g, w)) for w in W0_max(g)} == mins


def test_eta_pinned_table():
    g = parse_grading_spec("B2:0,1")
    got = {w.word: eta(g, w) for w in enumerate_W0(g).elements()}
    assert got == {
        (): (0, 1),
        (1,): (2, -1),
        (0, 1): (-2, 1),
        (1, 0, 1): (0, -1),
    }
    assert len(set(got.values())) == len(got)


def test_eta_identity_equals_marks():
    for spec in ["A3:0,1,0", "C3:1,0,0", "G2:es"]:
        g = parse_grading_spec(spec)
        table = enumerate_W0(g)
        ident = next(w for w in table.elements() if w.length == 0)
        assert eta(g, ident) == g.marks


def test_eta_needs_single_marked_node():
    g = parse_grading_spec("A2:1,1")
    table = enumerate_W0(g)
    with pytest.raises(ValueError):
        eta(g, table.elements()[0])


def test_apply_product_and_inverse():
    rs = build("B3")
    s0, s1 = from_word(rs, (0,)), from_word(rs, (1,))
    a = rs.simple_roots[0]
    assert s0.apply(a).coords == tuple(-c for c in a.coords)
    with pytest.raises(ValueError, match="not a root"):
        s0.apply(Root((2, 0, 0)))
    assert _matrix(s0 * s1) == _matrix(from_word(rs, (0, 1)))
    for w in (s0, s1, from_word(rs, (0, 1, 2, 1))):
        wi = w.inverse()
        for r in rs.positive_roots:
            assert wi.apply(w.apply(r)) == r
        assert (w * wi).inversion_mask == 0


def _old_peel_word(rs, mask):
    """Reduced word for the element with inversion set `mask`, or None if
    peeling gets stuck: the mask-transforming route that built words before
    element_from_inversions tracked the permutation instead."""
    simple_positions = rs.simple_indices
    order = sorted(range(rs.rank), key=lambda i: simple_positions[i])
    word_rev = []
    cur = mask
    while cur:
        pick = next(
            (i for i in order if cur >> simple_positions[i] & 1), None
        )
        if pick is None:
            return None
        word_rev.append(pick)
        cur &= ~(1 << simple_positions[pick])
        refl = rs.reflection_table[pick]
        nxt = 0
        rest = cur
        while rest:
            k = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            nxt |= 1 << refl[k]
        cur = nxt
    return tuple(reversed(word_rev))


@pytest.mark.parametrize("name", default_types(4))
def test_peel_gives_the_words_of_the_mask_route(name):
    rs = build(name)
    for w in weyl_elements(rs):
        got = element_from_inversions(rs, w.inversion_mask)
        old = _old_peel_word(rs, w.inversion_mask)
        assert got == from_word(rs, old) == w
        assert got.word == old
        assert WeylElement(rs, w.perm).word == old


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3", "C3"])
def test_peel_refuses_exactly_the_masks_the_mask_route_refuses(name):
    rs = build(name)
    for mask in range(1 << len(rs.positive_roots)):
        if _old_peel_word(rs, mask) is None:
            assert biconvex_violation(rs, mask) is not None
            with pytest.raises(ValueError, match="not an inversion set"):
                element_from_inversions(rs, mask)
        else:
            assert element_from_inversions(rs, mask).inversion_mask == mask


def _peel_with_negative_images(rs, mask):
    """The peel as it was when a step also took a simple root whose image is
    the negative of a root outside the mask, kept as the oracle for the
    peel that tests positive images only."""
    npos = len(rs.positive_roots)
    simple_positions = rs.simple_indices
    order = sorted(range(rs.rank), key=lambda i: simple_positions[i])
    q = tuple(range(2 * npos))
    word_rev = []
    for _ in range(bin(mask).count("1")):
        for i in order:
            k = q[simple_positions[i]]
            if (mask >> k & 1) if k < npos else not mask >> (k - npos) & 1:
                break
        else:
            return None
        word_rev.append(i)
        q = weyl._compose(q, rs.reflection_table[i])
    return weyl._inverse(q), tuple(reversed(word_rev))


@pytest.mark.parametrize("name", default_types(3) + [
    pytest.param(n, marks=pytest.mark.slow) for n in ("B4", "C4", "D4")])
def test_peel_needs_no_negative_image(name):
    # Every mask, an inversion set or not, peels (or sticks) as it did when
    # negative images were tested too; the memo is bypassed so that these
    # masks evict nothing.
    rs = build(name)
    peel = weyl._peel.__wrapped__
    for mask in range(1 << len(rs.positive_roots)):
        assert peel(rs, mask) == _peel_with_negative_images(rs, mask), mask


def test_fiber_extremes_are_peeled_once_per_ideal(monkeypatch):
    calls = []
    real = weyl.element_from_inversions

    def counting(rs, mask):
        calls.append(mask)
        return real(rs, mask)

    monkeypatch.setattr(weyl, "element_from_inversions", counting)
    g = parse_grading_spec("B3:es")  # not abelian: fibers have several chambers
    ideals = list(iter_lower_ideals(weight_poset(g, 1)))
    first = [(w_min(g, i), w_max(g, i)) for i in ideals]
    assert len(calls) == 2 * len(ideals)
    assert len(set(calls)) < len(calls)  # some fibers are a single chamber
    for i, (lo, hi) in zip(ideals, first):
        assert w_min(g, i) is lo and w_max(g, i) is hi
    assert W0_min(g) == [lo for lo, _ in first]
    assert W0_max(g) == [hi for _, hi in first]
    assert len(calls) == 2 * len(ideals)
    # A grading with the same marks has its own memo.
    other = parse_grading_spec("B3:es")
    W0_min(other)
    assert len(calls) == 3 * len(ideals)


def test_fiber_extremes_die_with_their_grading():
    g = parse_grading_spec("B3:0,1,0")
    p = weight_poset(g, 1)
    W0_min(g)
    W0_max(g)
    for ideal in iter_lower_ideals(p):
        w_min(g, ideal)
        w_max(g, ideal)
    ref = weakref.ref(g)
    del g, p, ideal
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("name", default_types(4))
def test_fiber_extremes_are_the_fiber_endpoints(name):
    rs = build(name)
    for g in sweep_gradings(rs):
        for ideal in iter_lower_ideals(weight_poset(g, 1)):
            fib = fiber(g, ideal)
            assert w_min(g, ideal) == fib[0] and w_max(g, ideal) == fib[-1]


@pytest.mark.parametrize("name", default_types(5))
def test_walked_fiber_matches_the_coset_table(name):
    # the table's by_tau groups are the oracle for the walk from w_min; both
    # are length-sorted, but equal lengths may come in another order
    for g in sweep_gradings(build(name)):
        table = enumerate_W0(g)
        for ideal in iter_lower_ideals(weight_poset(g, 1)):
            fib = fiber(g, ideal)
            want = table.by_tau[ideal.mask]
            assert len(fib) == len(want) and set(fib) == set(want)
            lengths = [w.length for w in fib]
            assert lengths == sorted(lengths)
            assert fib[0] == w_min(g, ideal) and fib[-1] == w_max(g, ideal)
            assert all(from_word(g.rs, w.word) == w for w in fib)


def test_a_fiber_walk_that_stops_early_is_refused(monkeypatch):
    real = weyl._walk

    def first_only(*args):
        return itertools.islice(real(*args), 1)

    g = parse_grading_spec("B3:es")
    ideal = next(i for i in iter_lower_ideals(weight_poset(g, 1))
                 if w_min(g, i) != w_max(g, i))
    monkeypatch.setattr(weyl, "_walk", first_only)
    with pytest.raises(AssertionError, match="does not end at w_max"):
        fiber(g, ideal)


# Every grading of the 14 types of rank <= 4 (by type), and the rank-5 and E6
# specs of the session benchmark's query pool (one by one).
_POOL = json.loads((Path(__file__).resolve().parents[1] / "bench" / "pool.json").read_text())
ORACLE_TARGETS = default_types(4) + sorted(
    {argv[1] for argv in _POOL if parse_cartan_type(argv[1].split(":")[0]).rank >= 5}
)


def _oracle_gradings(target):
    return [parse_grading_spec(target)] if ":" in target else sweep_gradings(build(target))


@pytest.mark.parametrize("target", ORACLE_TARGETS)
def test_weyl_reads_the_peeled_extremes_off_the_table(target, capsys):
    # the peel (W0_min/W0_max) and tau are the oracle for what `gradus weyl`
    # reads off the coset table's fibres
    for g in _oracle_gradings(target):
        table = enumerate_W0(g)
        ideals = weight_poset(g, 1).lower_ideals
        fibers = [table.by_tau[i.mask] for i in ideals]
        assert [f[0] for f in fibers] == W0_min(g)
        assert [f[-1] for f in fibers] == W0_max(g)
        assert main(["weyl", g.spec_string(), "--min", "--max", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        for key, want in (("minimal", W0_min(g)), ("maximal", W0_max(g))):
            assert len(data[key]) == len(want)
            for row, w in zip(data[key], want):
                words = row["word"].split() if row["word"] != "e" else []
                assert from_word(g.rs, [int(s[1:]) - 1 for s in words]) == w
                assert row["ideal"] == [list(r.coords) for r in tau(g, w).roots()]
        fixed = [w for w in table.elements() if involution(g, w) == w]
        assert data["involution_fixed"] == len(fixed)


@pytest.mark.parametrize("target", ORACLE_TARGETS)
def test_the_simple_root_fixed_point_test_matches_the_involution(target):
    # involution_images, keyed by the images of the simple roots, gives the
    # position of each image, and so the fixed points that `gradus weyl` counts
    for g in _oracle_gradings(target):
        elements = enumerate_W0(g).elements()
        images = involution_images(g, elements)
        assert images == [elements.index(involution(g, w)) for w in elements]
        assert sum(k == i for k, i in enumerate(images)) == sum(
            involution(g, w) == w for w in elements)


@pytest.mark.parametrize("target", ORACLE_TARGETS)
def test_involution_images_outside_a_subset_are_none(target):
    # the table without its longest coset, w0 w0(Levi), the image of the
    # identity: that image is None, every other is its position in the rest
    for g in _oracle_gradings(target):
        kept = enumerate_W0(g).elements()[:-1]
        want = [kept.index(v) if v in kept else None
                for v in (involution(g, w) for w in kept)]
        assert want[0] is None and want.count(None) == 1
        assert involution_images(g, kept) == want


def test_involution_images_refuse_an_element_outside_W0():
    g = parse_grading_spec("B3:0,1,0")
    elements = list(enumerate_W0(g).elements())
    outside = from_word(g.rs, [0])  # s1, with alpha_1 at level 0
    assert not in_W0(g, outside)
    for refused in (involution, lambda g, w: involution_images(g, elements + [w])):
        with pytest.raises(ValueError, match="^element is not a minimal coset representative$"):
            refused(g, outside)


# -- the bi-convexity walk against the pair scan ----------------------------


def _biconvex_violation_scan(rs, mask):
    """biconvex_violation as it scanned every pair of positive roots i <= j
    with i + j a root, before it walked the partner masks; kept as the
    oracle."""
    npos = len(rs.positive_roots)
    comp = (1 << npos) - 1 & ~mask
    for i in range(npos):
        for j, k in rs.sums[i].items():
            if j >= npos:
                break
            if j < i:
                continue
            if mask >> i & 1 and mask >> j & 1 and not mask >> k & 1:
                return ("sum escapes the set", i, j, k)
            if comp >> i & 1 and comp >> j & 1 and mask >> k & 1:
                return ("complement is not closed", i, j, k)
    return None


def _random_masks(rs, count, seed):
    """Masks of every density: each bit set with a probability drawn per
    mask, so the witnesses lie deep in the canonical order as well as early."""
    rng = random.Random(seed)
    npos = len(rs.positive_roots)
    out = []
    for _ in range(count):
        density = rng.random()
        out.append(sum(1 << k for k in range(npos) if rng.random() < density))
    return out


def _assert_biconvex_witnesses_match(rs, masks):
    reasons = set()
    for mask in masks:
        got = biconvex_violation(rs, mask)
        assert got == _biconvex_violation_scan(rs, mask), (rs, mask)
        reasons.add(got and got[0])
    return reasons


@pytest.mark.parametrize("name", ["B4", "C4", "D4", "F4"])
def test_biconvex_walk_matches_the_pair_scan(name):
    # every inversion set, each with one seeded bit flipped, the closure and
    # co-closure of every ideal of the sweep (what the biconvex suite tests),
    # and 2,000 seeded random masks
    rs = build(name)
    npos = len(rs.positive_roots)
    rng = random.Random(name)
    masks = []
    for w in weyl_elements(rs):
        masks += [w.inversion_mask, w.inversion_mask ^ 1 << rng.randrange(npos)]
    for g in sweep_gradings(rs):
        for ideal in weight_poset(g).lower_ideals:
            comp = ideal.complement_mask
            masks += [closure_mask(rs, ideal.mask),
                      g.ge1_mask & ~(closure_mask(rs, comp) if comp else 0)]
    masks += _random_masks(rs, 2000, name)
    assert _assert_biconvex_witnesses_match(rs, masks) == {
        None, "sum escapes the set", "complement is not closed"}


@pytest.mark.parametrize("name", ["E6", pytest.param("E7", marks=pytest.mark.slow),
                                  pytest.param("E8", marks=pytest.mark.slow)])
def test_biconvex_walk_matches_the_pair_scan_on_random_masks(name):
    rs = build(name)
    reasons = _assert_biconvex_witnesses_match(rs, _random_masks(rs, 2000, name))
    assert reasons >= {"sum escapes the set", "complement is not closed"}


def test_biconvex_walk_never_closes(monkeypatch):
    # the biconvex suite tests closures with it, so it must not compute one
    cases = []
    for name in ("B3", "F4", "E6"):
        rs = build(name)
        for g in sweep_gradings(rs)[:3]:
            cases += [(rs, closure_mask(rs, i.mask)) for i in weight_poset(g).lower_ideals]
        cases += [(rs, m) for m in _random_masks(rs, 50, name)]
    want = [_biconvex_violation_scan(rs, m) for rs, m in cases]

    def refuse(*args):
        raise AssertionError("biconvex_violation called closure_layers")

    monkeypatch.setattr(weyl, "closure_layers", refuse)
    monkeypatch.setattr(weyl, "closure_mask", refuse)
    assert [biconvex_violation(rs, m) for rs, m in cases] == want
    assert None in want and len(set(want)) > 2


# -- equality and hashing of elements ---------------------------------------


@pytest.mark.parametrize("a,b", [("A3", "G2"), ("B3", "C3")])
def test_elements_of_root_systems_with_equally_many_roots_differ(a, b):
    ra, rb = build(a), build(b)
    assert len(ra.roots()) == len(rb.roots())
    ea, eb = WeylElement.identity(ra), WeylElement.identity(rb)
    assert ea.perm == eb.perm and hash(ea) == hash(eb)
    assert ea != eb and len({ea, eb}) == 2
    wa, wb = weyl_elements(ra), weyl_elements(rb)
    assert len(set(wa) | set(wb)) == len(wa) + len(wb)


@pytest.mark.parametrize("name", default_types(3))
def test_hash_and_equality_agree_across_routes(name):
    # a coset-table entry of the all-marked grading (W0 = W), the peel of
    # its inversion set, the product of its word, and its product with the
    # identity: equal, with equal hashes, and |W| elements in all
    rs = build(name)
    table = enumerate_W0(grade(rs, (1,) * rs.rank)).elements()
    e = WeylElement.identity(rs)
    routes = [
        table,
        [element_from_inversions(rs, w.inversion_mask) for w in table],
        [from_word(rs, w.word) for w in table],
        [w * e for w in table],
    ]
    for reached in routes[1:]:
        for w, v in zip(table, reached):
            assert v == w and hash(v) == hash(w), (name, w)
    assert len(set().union(*routes)) == len(table) == km_order(rs)
