import gc
import weakref
from collections import deque

import pytest
from fractions import Fraction

from gradus import weyl
from gradus.checks import default_types, sweep_gradings
from gradus.grading import parse_grading_spec
from gradus.ideals import iter_lower_ideals, lower_ideal_from_roots, weight_poset
from gradus.rootsys import build
from gradus.weyl import (
    WEYL_ELEMENTS_MAX_RANK,
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
    km_order,
    km_poly,
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


def _weyl_elements_bfs(rs):
    """The Weyl group, by breadth-first search in the weak order: the walk
    weyl_elements made on its own before it became the coset table of the
    all-marked grading, kept as the oracle for it."""
    if rs.rank > WEYL_ELEMENTS_MAX_RANK:
        raise ValueError(
            f"rank {rs.rank} exceeds the enumeration bound {WEYL_ELEMENTS_MAX_RANK}; "
            "work with minimal coset representatives"
        )
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
            new = WeylElement(rs, perm, word=(i,) + w.word)
            out.append(new)
            queue.append(new)
    return out


def test_weyl_elements_walk_matches_the_plain_bfs():
    total = 0
    for name in default_types(4):
        rs = build(name)
        new, old = weyl_elements(rs), _weyl_elements_bfs(rs)
        assert [w.perm for w in new] == [w.perm for w in old], name
        assert [w.word for w in new] == [w.word for w in old], name
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


def test_coset_table_rank3_words_pinned():
    table = enumerate_W0(parse_grading_spec("B3:es"))
    rows = [(w.word, w in table.minimal, w in table.maximal) for w in table.elements()]
    assert rows == [
        ((), True, True),
        ((1,), True, True),
        ((0, 1), True, True),
        ((2, 1), True, True),
        ((2, 0, 1), True, False),
        ((1, 2, 1), True, False),
        ((1, 2, 0, 1), False, True),
        ((0, 1, 2, 1), False, True),
        ((0, 1, 2, 0, 1), True, True),
        ((2, 1, 2, 0, 1), True, True),
        ((2, 0, 1, 2, 0, 1), True, True),
        ((1, 2, 0, 1, 2, 0, 1), True, True),
    ]


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
    p = weight_poset(g)
    table = enumerate_W0(g)
    for w in table.elements():
        ideal = tau(g, w)
        assert p.positive_mask(ideal.mask) == w.inversion_mask & g.level_mask(1)


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
    full = p.positive_mask(p.full_mask)
    layers = closure_layers(rs, full)
    named = [sorted(str(r) for r in rs.positive_roots
                    if m >> rs.index[r.coords] & 1) for m in layers]
    assert named == [["a1+a2", "a2"], ["a1+2a2"]]
    assert closure_mask(rs, full) == layers[0] | layers[1]


def test_closure_is_w_min_inversion_set():
    g = parse_grading_spec("G2:es")
    p = weight_poset(g)
    for w in enumerate_W0(g).minimal:
        ideal = tau(g, w)
        assert closure_mask(g.rs, p.positive_mask(ideal.mask)) == w.inversion_mask


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
        s0.apply(rs.root((2, 0, 0)))
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
