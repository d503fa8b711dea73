import pytest
from fractions import Fraction
from itertools import product

from hypothesis import given, settings, strategies as st

from gradus import weyl
from gradus.checks import default_types
from gradus.rootsys import (
    CartanType, Root, RootSystem, build, dual_partition, parse_cartan_type,
)

EXPONENTS = {
    "A1": (1,),
    "A2": (1, 2),
    "A3": (1, 2, 3),
    "A4": (1, 2, 3, 4),
    "B2": (1, 3),
    "B3": (1, 3, 5),
    "B4": (1, 3, 5, 7),
    "C3": (1, 3, 5),
    "C4": (1, 3, 5, 7),
    "D4": (1, 3, 3, 5),
    "G2": (1, 5),
    "F4": (1, 5, 7, 11),
    "E6": (1, 4, 5, 7, 8, 11),
    "E7": (1, 5, 7, 9, 11, 13, 17),
}


@pytest.mark.parametrize("name", sorted(EXPONENTS))
def test_positive_count_and_coxeter_number(name):
    rs = build(name)
    h = rs.coxeter_number
    assert 2 * len(rs.positive_roots) == rs.rank * h
    assert rs.theta.height == h - 1


@pytest.mark.parametrize("name", sorted(EXPONENTS))
def test_exponents(name):
    assert build(name).exponents == EXPONENTS[name]


@pytest.mark.parametrize("name", sorted(EXPONENTS))
def test_exponent_symmetry(name):
    # m_i + m_{n+1-i} = h, and their number is the rank
    rs = build(name)
    ms = rs.exponents
    assert len(ms) == rs.rank
    assert all(a + b == rs.coxeter_number for a, b in zip(ms, reversed(ms)))


@pytest.mark.parametrize("name", ["A2", "B2", "B3", "C3", "G2", "F4", "D4"])
def test_long_root_count(name):
    rs = build(name)
    long_count = sum(1 for r in rs.roots() if rs.is_long(r))
    assert long_count == len(rs.long_simple) * rs.coxeter_number


@pytest.mark.parametrize("name", default_types(8))
def test_is_long_reads_the_long_mask_as_the_form_does(name):
    # a negative root reads its positive root's bit; a vector that is not a
    # root is still measured by the form
    rs = build(name)
    assert [rs.is_long(r) for r in rs.roots()] == [rs.norm2(r) == 2 for r in rs.roots()]
    assert rs.long_mask.bit_count() * 2 == len(rs.long_simple) * rs.coxeter_number
    not_roots = [Root((0,) * rs.rank), Root(tuple(2 * c for c in rs.theta.coords))]
    assert [rs.is_long(v) for v in not_roots] == [rs.norm2(v) == 2 for v in not_roots]


def test_long_simple_sets():
    assert build("B3").long_simple == (0, 1)
    assert build("C3").long_simple == (2,)
    assert len(build("A3").long_simple) == 3
    assert len(build("G2").long_simple) == 1
    assert len(build("F4").long_simple) == 2


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2"])
def test_cartan_matrix_is_pairing_of_simples(name):
    rs = build(name)
    for i, ai in enumerate(rs.simple_roots):
        for j, aj in enumerate(rs.simple_roots):
            assert rs.cartan_matrix[i][j] == rs.pairing(aj, ai)
    assert all(rs.cartan_matrix[i][i] == 2 for i in range(rs.rank))


@pytest.mark.parametrize("name", ["A2", "B3", "G2", "F4"])
def test_pairing_integral_and_norms(name):
    rs = build(name)
    for b in rs.positive_roots:
        assert rs.norm2(b) == 2 if rs.is_long(b) else rs.norm2(b) < 2
        for a in rs.positive_roots:
            assert rs.pairing(a, b) == int(rs.pairing(a, b))


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2"])
def test_simple_reflection_permutes_other_positives(name):
    rs = build(name)
    positives = set(rs.positive_roots)
    for alpha in rs.simple_roots:
        image = {rs.reflect(alpha, r) for r in rs.positive_roots if r != alpha}
        assert image == positives - {alpha}


@pytest.mark.parametrize(
    "name", ["A1", "B3", "C4", "D4", "G2", "F4", "E8", "A16", "B12", "D12"]
)
def test_reflection_table_matches_reflect(name):
    rs = build(name)
    roots = rs.roots()
    assert 2 * len(rs.positive_roots) == len(roots)
    for alpha, row in zip(rs.simple_roots, rs.reflection_table):
        assert [roots[k] for k in row] == [rs.reflect(alpha, r) for r in roots]
    assert [roots[k] for k in rs.simple_indices] == list(rs.simple_roots)


def test_build_is_memoised_per_type():
    assert build("F4") is build("f4") is build(CartanType("F", 4))
    assert build("B3") is not build("C3")


@pytest.mark.parametrize("name", ["A3", "B3", "G2"])
def test_sum_closure_matches_membership(name):
    rs = build(name)
    allr = rs.roots()
    for a in allr:
        for b in allr:
            s = tuple(x + y for x, y in zip(a.coords, b.coords))
            got = rs.add_roots(a, b)
            if rs.is_root(s):
                assert got is not None and got.coords == s
            else:
                assert got is None


def test_theta_is_highest():
    rs = build("B3")
    assert rs.theta.coords == (1, 2, 2)
    assert all(r.height <= rs.theta.height for r in rs.positive_roots)
    assert build("G2").theta.coords == (3, 2)


def test_height_counts_are_partition_shaped():
    rs = build("F4")
    counts = rs.height_partition()
    assert sum(counts) == len(rs.positive_roots)
    assert counts[0] == rs.rank
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert len(counts) == rs.coxeter_number - 1 and counts[-1] == 1


def test_dual_partition_round_trip():
    lam = (7, 6, 6, 6, 6, 5, 5, 4, 4, 3, 2, 1, 1)
    assert dual_partition(dual_partition(lam)) == lam
    assert dual_partition((2, 1, 1, 1)) == (4, 1)
    assert dual_partition(()) == ()


def test_parse_cartan_type_errors():
    with pytest.raises(ValueError):
        parse_cartan_type("H3")
    with pytest.raises(ValueError):
        parse_cartan_type("A0")
    with pytest.raises(ValueError):
        parse_cartan_type("E9")
    with pytest.raises(ValueError):
        build("D2")


def test_canonical_root_order():
    # by height, then lexicographically on coordinates
    rs = build("B2")
    assert [r.coords for r in rs.positive_roots] == [
        (0, 1), (1, 0), (1, 1), (1, 2)]


def test_three_root_witness_valid():
    rs = build("G2")
    a1, a2 = rs.simple_roots
    mu = rs.root((1, 0))
    nu1 = rs.root((1, 0))
    nu2 = rs.root((1, 1))
    # mu+nu1 = 2a1 is not a root, mu+nu2 = 2a1+a2 is
    assert rs.three_root_witness(mu, nu1, nu2) == nu2
    # both partial sums work: nu1 is preferred
    assert rs.three_root_witness(rs.root((1, 1)), nu1, nu2) == nu1


def test_three_root_witness_rejects_cancellation():
    rs = build("B2")
    mu = rs.root((0, -1))
    nu1 = rs.root((0, 1))
    nu2 = rs.root((1, 1))
    with pytest.raises(ValueError, match="cancel"):
        rs.three_root_witness(mu, nu1, nu2)


def test_three_root_witness_rejects_bad_sums():
    rs = build("B2")
    a1 = rs.root((1, 0))
    a2 = rs.root((0, 1))
    with pytest.raises(ValueError, match=r"nu1 \+ nu2"):
        rs.three_root_witness(a2, a1, a1)


def test_km_style_group_order_from_exponents():
    for name, order in [("A2", 6), ("B2", 8), ("G2", 12), ("A3", 24),
                        ("B3", 48), ("D4", 192), ("F4", 1152)]:
        rs = build(name)
        prod = 1
        for m in rs.exponents:
            prod *= m + 1
        assert prod == order


# -- the root index and the root-sum table, against the coordinate routes ----
#
# The three functions below are the coordinate implementations the index
# lookups replaced, kept verbatim (self -> rs) as oracles.


def _oracle_sum_table(rs):
    table = {}
    pos = rs.positive_roots
    index = {r.coords: k for k, r in enumerate(pos)}
    for i in range(len(pos)):
        for j in range(i, len(pos)):
            s = tuple(a + b for a, b in zip(pos[i].coords, pos[j].coords))
            k = index.get(s)
            if k is not None:
                table[(i, j)] = k
    return table


def _oracle_root_sums(rs):
    roots = rs.positive_roots + tuple(-r for r in rs.positive_roots)
    where = {r.coords: k for k, r in enumerate(roots)}
    return tuple(
        {
            b: where[s]
            for b, nu in enumerate(roots)
            if (s := tuple(x + y for x, y in zip(mu.coords, nu.coords))) in where
        }
        for mu in roots
    )


def _oracle_three_root_witness(rs, mu, nu1, nu2):
    all_coords = frozenset(r.coords for r in rs.positive_roots) | frozenset(
        (-r).coords for r in rs.positive_roots
    )

    def is_root(coords):
        key = coords.coords if isinstance(coords, Root) else tuple(coords)
        return key in all_coords

    def add_roots(gamma, mu):
        s = tuple(a + b for a, b in zip(gamma.coords, mu.coords))
        return rs.root(s) if s in all_coords else None

    for r in (mu, nu1, nu2):
        if not is_root(r):
            raise ValueError(f"{r} is not a root")
    if mu == -nu1 or mu == -nu2:
        raise ValueError("mu must not cancel nu1 or nu2")
    if not is_root(tuple(a + b for a, b in zip(nu1.coords, nu2.coords))):
        raise ValueError("nu1 + nu2 must be a root")
    total = tuple(m + a + b for m, a, b in zip(mu.coords, nu1.coords, nu2.coords))
    if not is_root(total):
        raise ValueError("mu + nu1 + nu2 must be a root")
    if add_roots(mu, nu1) is not None:
        return nu1
    if add_roots(mu, nu2) is not None:
        return nu2
    raise AssertionError("no witness despite valid input")


SUM_TYPES = default_types(8) + ["A16", "B12", "D12"]


@pytest.mark.parametrize("name", SUM_TYPES)
def test_sums_match_the_coordinate_tables(name):
    rs = build(name)
    npos = len(rs.positive_roots)
    assert [list(row.items()) for row in rs.sums] == [
        list(row.items()) for row in _oracle_root_sums(rs)]
    # the walk biconvex_violation and the level-additive row make
    walk = [((i, j), k) for i in range(npos) for j, k in rs.sums[i].items()
            if i <= j < npos]
    assert walk == list(_oracle_sum_table(rs).items())


@pytest.mark.parametrize("name", SUM_TYPES)
def test_roots_are_one_tuple_and_the_index_covers_them(name):
    rs = build(name)
    roots = rs.roots()
    npos = len(rs.positive_roots)
    assert rs.roots() is roots and len(roots) == len(rs.index) == 2 * npos
    assert roots[:npos] == rs.positive_roots
    for k, r in enumerate(roots):
        assert rs.index[r.coords] == k
        assert rs.root(r.coords) is r
    assert all(roots[k + npos] == -roots[k] for k in range(npos))


@pytest.mark.parametrize("name", default_types(3))
def test_index_witness_matches_the_coordinate_witness(name):
    rs = build(name)
    roots = rs.roots()
    for mu, nu1, nu2 in product(roots, repeat=3):
        try:
            want = _oracle_three_root_witness(rs, mu, nu1, nu2)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                rs.three_root_witness(mu, nu1, nu2)
            assert str(got.value) == str(exc)
        else:
            assert rs.three_root_witness(mu, nu1, nu2) is want


def test_three_root_witness_rejects_a_non_root():
    rs = build("B2")
    bogus = Root((2, 0))
    with pytest.raises(ValueError, match="2a1 is not a root"):
        rs.three_root_witness(rs.root((1, 0)), bogus, rs.root((0, 1)))


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3", "C3"])
def test_sum_table_readers_match_the_coordinate_table(name):
    rs = build(name)
    table = _oracle_sum_table(rs)
    npos = len(rs.positive_roots)
    for mask in range(1 << npos):
        comp = (1 << npos) - 1 & ~mask
        want = None
        for (i, j), k in table.items():
            if mask >> i & 1 and mask >> j & 1 and not mask >> k & 1:
                want = ("sum escapes the set", i, j, k)
                break
            if comp >> i & 1 and comp >> j & 1 and mask >> k & 1:
                want = ("complement is not closed", i, j, k)
                break
        assert weyl.biconvex_violation(rs, mask) == want
        layers, total = [mask], mask
        while True:
            nxt = 0
            for (i, j), k in table.items():
                if (mask >> i & 1 and layers[-1] >> j & 1
                        or mask >> j & 1 and layers[-1] >> i & 1):
                    nxt |= 1 << k
            nxt &= ~total
            if not nxt:
                break
            layers.append(nxt)
            total |= nxt
        assert weyl.closure_layers(rs, mask) == layers


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(["A1", "B3", "F4", "E8"]), st.data())
def test_indices_of_matches_a_scan_of_every_bit(name, data):
    rs = build(name)
    npos = len(rs.positive_roots)
    mask = data.draw(st.integers(0, (1 << npos) - 1))
    want = tuple(k for k in range(npos) if mask >> k & 1)
    assert rs.indices_of(mask) == want
    assert rs.roots_of(mask) == tuple(rs.positive_roots[k] for k in want)


def test_root_reads_the_index():
    rs = build("B2")
    assert rs.root((1, 2)) is rs.positive_roots[-1]
    with pytest.raises(ValueError, match="^2a1 is not a root$"):
        rs.root((2, 0))


def _close_positive(rs):
    """The positive roots by closing the simple roots under root-string
    addition: gamma + alpha_i is a root iff p - <gamma, alpha_i^vee> > 0,
    where p is the number of times alpha_i can be subtracted from gamma
    while staying a root.  Working up by height keeps every query
    answerable."""
    n = rs.rank
    a = rs.cartan_matrix
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    roots = set(simple)
    level = list(simple)
    while level:
        nxt = []
        for gamma in level:
            for i in range(n):
                if gamma == simple[i]:
                    continue
                pairing = sum(a[i][j] * gamma[j] for j in range(n) if gamma[j])
                p = 0
                cur = tuple(c - s for c, s in zip(gamma, simple[i]))
                while cur in roots:
                    p += 1
                    cur = tuple(c - s for c, s in zip(cur, simple[i]))
                if p - pairing > 0:
                    new = tuple(c + s for c, s in zip(gamma, simple[i]))
                    if new not in roots:
                        roots.add(new)
                        nxt.append(new)
        level = nxt
    return sorted(roots, key=lambda c: (sum(c), c))


@pytest.mark.parametrize(
    "name", default_types(8) + ["A16", "B12", "D12", "A36", "B29", "D29"]
)
def test_orbit_walk_matches_the_root_string_closure(name):
    rs = build(name)
    pos = _close_positive(rs)
    assert [r.coords for r in rs.positive_roots] == pos
    assert rs.theta.coords == pos[-1]
    index = {c: k for k, c in enumerate(pos + [tuple(-x for x in c) for c in pos])}
    assert rs.index == index
    for i, a in enumerate(rs.cartan_matrix):
        row = []
        for r in index:
            # s_i(gamma) = gamma - <gamma, alpha_i^vee> alpha_i
            c = list(r)
            c[i] -= sum(x * y for x, y in zip(a, r))
            row.append(index[tuple(c)])
        assert rs.reflection_table[i] == tuple(row)


@pytest.mark.parametrize("name, size", [("A37", 52_022), ("B30", 54_000),
                                        ("C30", 54_000), ("D30", 52_200)])
def test_a_build_over_the_budget_is_refused_before_its_walk(name, size, monkeypatch):
    def no_walk(rs):
        raise AssertionError(f"{rs.cartan_type} walked before its budget was checked")

    monkeypatch.setattr(RootSystem, "_orbit", no_walk)
    with pytest.raises(ValueError, match=f"^{size:,} reflection images of {name} "
                                         "exceed the budget of 51,840$"):
        RootSystem(parse_cartan_type(name))
