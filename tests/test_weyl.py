import pytest
from fractions import Fraction

from gradus.checks import default_types
from gradus.grading import parse_grading_spec
from gradus.ideals import lower_ideal_from_roots, weight_poset
from gradus.rootsys import build
from gradus.weyl import (
    W0_max,
    W0_min,
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


@pytest.mark.parametrize("name", default_types(4))
def test_permutations_agree_with_the_matrix_route(name):
    rs = build(name)
    elements = weyl_elements(rs)
    assert len(elements) == km_order(rs)
    mats = [_matrix_of_word(rs, w.word) for w in elements]
    for w, m in zip(elements, mats):
        assert w.matrix == m
        assert w.inverse().matrix == _matrix_of_word(rs, w.word[::-1])
        negative = 0
        for k, r in enumerate(rs.positive_roots):
            image = _matmul(m, tuple((c,) for c in r.coords))
            if sum(x for (x,) in image) < 0:
                negative |= 1 << k
        assert w.inversion_mask == negative
    for k, u in enumerate(elements):
        j = (7 * k + 3) % len(elements)
        assert (u * elements[j]).matrix == _matmul(mats[k], mats[j])


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
        assert from_word(rs, w.word).matrix == w.matrix
        assert element_from_inversions(rs, w.inversion_mask).matrix == w.matrix


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
    assert [e.element.word for e in table.entries] == [(), (0,), (1, 0)]
    assert all(e.is_min and e.is_max for e in table.entries)
    for e in table.entries:
        assert in_W0(g, e.element)


def test_coset_table_extra_special_case():
    g = parse_grading_spec("B2:es")
    table = enumerate_W0(g)
    rows = [(e.element.word, e.length, e.is_min, e.is_max) for e in table.entries]
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
    rows = [(e.element.word, e.is_min, e.is_max) for e in table.entries]
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
    for e in table.entries:
        ideal = tau(g, e.element)
        assert p.positive_mask(ideal.mask) == e.element.inversion_mask & g.level_mask(1)


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
    for e in enumerate_W0(g).entries:
        if not e.is_min:
            continue
        ideal = tau(g, e.element)
        assert closure_mask(g.rs, p.positive_mask(ideal.mask)) == \
            e.element.inversion_mask


def test_fiber_is_weak_interval():
    g = parse_grading_spec("G2:es")
    table = enumerate_W0(g)
    total = 0
    for ideal_mask in {e.tau_mask for e in table.entries}:
        entry = next(e for e in table.entries if e.tau_mask == ideal_mask)
        ideal = tau(g, entry.element)
        fib = fiber(g, ideal)
        total += len(fib)
        lo, hi = w_min(g, ideal), w_max(g, ideal)
        assert fib[0].matrix == lo.matrix and fib[-1].matrix == hi.matrix
        members = {w.inversion_mask for w in fib}
        for e in table.entries:
            between = (e.element.inversion_mask & lo.inversion_mask
                       == lo.inversion_mask) and \
                      (e.element.inversion_mask | hi.inversion_mask
                       == hi.inversion_mask)
            assert between == (e.element.inversion_mask in members)
    assert total == len(table.entries)


def test_involution_pinned_and_involutive():
    g = parse_grading_spec("B2:es")
    words = {(): (1, 0, 1), (1,): (0, 1)}
    for e in enumerate_W0(g).entries:
        iw = involution(g, e.element)
        assert involution(g, iw).matrix == e.element.matrix
        if e.element.word in words:
            assert iw.word == words[e.element.word]


def test_involution_swaps_min_and_max():
    for spec in ["A3:0,1,0", "B3:0,1,0", "G2:es"]:
        g = parse_grading_spec(spec)
        mins = {w.matrix for w in W0_min(g)}
        maxs = {w.matrix for w in W0_max(g)}
        assert {involution(g, w).matrix for w in W0_min(g)} == maxs
        assert {involution(g, w).matrix for w in W0_max(g)} == mins


def test_eta_pinned_table():
    g = parse_grading_spec("B2:0,1")
    got = {e.element.word: eta(g, e.element) for e in enumerate_W0(g).entries}
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
        ident = next(e.element for e in table.entries if e.length == 0)
        assert eta(g, ident) == g.marks


def test_eta_needs_single_marked_node():
    g = parse_grading_spec("A2:1,1")
    table = enumerate_W0(g)
    with pytest.raises(ValueError):
        eta(g, table.entries[0].element)


def test_apply_product_and_inverse():
    rs = build("B3")
    s0, s1 = from_word(rs, (0,)), from_word(rs, (1,))
    a = rs.simple_roots[0]
    assert s0.apply(a).coords == tuple(-c for c in a.coords)
    with pytest.raises(ValueError, match="not a root"):
        s0.apply(rs.root((2, 0, 0)))
    assert (s0 * s1).matrix == from_word(rs, (0, 1)).matrix
    for w in (s0, s1, from_word(rs, (0, 1, 2, 1))):
        wi = w.inverse()
        for r in rs.positive_roots:
            assert wi.apply(w.apply(r)) == r
        assert (w * wi).inversion_mask == 0
