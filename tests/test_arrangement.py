import numpy as np
import pytest
from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations, product as iproduct
from math import prod
from typing import Sequence

from hypothesis import given, settings, strategies as st

from gradus.arrangement import (
    Arrangement,
    _point_count,
    arrangement_report,
    char_poly,
    conjectural_exponents,
    coxeter_arrangement,
    deleted_arrangement,
    geometric_inversions,
    good_primes,
    ideal_arrangement,
    ideal_count_formula,
    sub_arrangement_01,
    upper_ideal_partition_check,
    upper_ideals_of_root_poset,
    zaslavsky_regions,
)
from gradus import arrangement, checks, rootsys, weyl
from gradus.checks import default_types, sweep_gradings
from gradus.grading import grade, parse_grading_spec
from gradus.ideals import count_lower_ideals, iter_lower_ideals, weight_poset
from gradus.polys import Poly, from_int_roots, interpolate, trimmed, value
from gradus.rootsys import Root, RootSystem, build
from gradus.weyl import (
    WeylElement, enumerate_W0, fiber, km_order, w_max, w_min, weyl_elements,
)
from test_weyl import _matrix

# chi of the full reflection arrangement factors over the exponents
COXETER_CHI = {
    "A2": (1, 2),
    "B2": (1, 3),
    "G2": (1, 5),
    "A3": (1, 2, 3),
    "B3": (1, 3, 5),
    "C3": (1, 3, 5),
    "D4": (1, 3, 3, 5),
}


@pytest.mark.parametrize("name", sorted(COXETER_CHI))
def test_coxeter_char_poly_factors_over_exponents(name):
    rs = build(name)
    assert char_poly(coxeter_arrangement(rs)) == from_int_roots(COXETER_CHI[name])


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3"])
def test_zaslavsky_counts_weyl_chambers(name):
    rs = build(name)
    chi = char_poly(coxeter_arrangement(rs))
    assert zaslavsky_regions(chi) == len(weyl_elements(rs))


def test_deleted_arrangement_drops_highest_root():
    rs = build("B3")
    arr = deleted_arrangement(rs)
    assert len(arr.normals) == len(rs.positive_roots) - 1
    assert rs.theta not in arr.normals
    # exponents (m_1, ..., m_{n-1}, m_n - 1)
    assert char_poly(arr) == from_int_roots((1, 3, 4))
    assert char_poly(deleted_arrangement(build("A2"))) == from_int_roots((1, 1))


def test_sub_arrangement_01_walls():
    g = parse_grading_spec("G2:es")
    arr = sub_arrangement_01(g)
    assert len(arr.normals) == 5
    assert g.rs.theta not in arr.normals
    assert char_poly(arr) == from_int_roots((1, 4))
    # abelian gradings keep every wall
    ga = parse_grading_spec("B2:1,0")
    assert len(sub_arrangement_01(ga).normals) == len(ga.rs.positive_roots)


def test_arrangement_validation():
    rs = build("B2")
    with pytest.raises(ValueError, match="not a positive-root mask of B2"):
        Arrangement(rs, 1 << len(rs.positive_roots))
    with pytest.raises(ValueError, match="not a positive-root mask of B2"):
        Arrangement(rs, -1)


@pytest.mark.parametrize("name", default_types(4))
def test_an_arrangement_is_its_mask(name):
    rs = build(name)
    full = (1 << len(rs.positive_roots)) - 1
    theta_bit = 1 << rs.index[rs.theta.coords]
    deleted = deleted_arrangement(rs)
    assert ideal_arrangement(rs, theta_bit) == deleted == Arrangement(rs, full & ~theta_bit)
    assert deleted.normals == tuple(r for r in rs.positive_roots if r != rs.theta)
    assert coxeter_arrangement(rs) == ideal_arrangement(rs, 0)
    assert coxeter_arrangement(rs).normals == rs.positive_roots
    # the normals of any mask come back in canonical order
    odd = sum(1 << k for k in range(0, len(rs.positive_roots), 2))
    assert Arrangement(rs, odd).normals == rs.positive_roots[::2]


def test_good_primes_pinned():
    # The first primes dividing no coefficient of theta (Kamiya-Takemura-
    # Terao: a count there is chi(q)); below h from A2, B3, E6 and F4 on.
    assert good_primes(build("A4"), 4) == [2, 3, 5, 7]
    assert good_primes(build("D3"), 3) == [2, 3, 5]  # D3 is A3
    assert good_primes(build("B2"), 3) == [3, 5, 7]
    assert good_primes(build("D4"), 4) == [3, 5, 7, 11]
    assert good_primes(build("G2"), 3) == [5, 7, 11]
    assert good_primes(build("F4"), 4) == [5, 7, 11, 13]
    assert good_primes(build("E6"), 6) == [5, 7, 11, 13, 17, 19]
    assert good_primes(build("E8"), 8) == [7, 11, 13, 17, 19, 23, 29, 31]
    for name in default_types(8):
        rs = build(name)
        primes = good_primes(rs, rs.rank + 2)
        assert all(c % q for q in primes for c in rs.theta.coords), name
        assert primes == sorted(primes) and len(set(primes)) == rs.rank + 2
        if rs.rank <= 4:
            assert not set(primes) & _minor_prime_factors(rs), name


def _det(rows: Sequence[Sequence[int]]) -> int:
    """Fraction-free Gaussian elimination (Bareiss)."""
    n = len(rows)
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


@cache
def _minor_prime_factors(rs: RootSystem) -> frozenset[int]:
    """Primes dividing some minor of the positive-root coordinate matrix.
    Any other prime preserves all subset ranks modulo p."""
    n = rs.rank
    rows = [r.coords for r in rs.positive_roots]
    values: set[int] = set()
    for k in range(1, n + 1):
        for cols in combinations(range(n), k):
            for picked in combinations(rows, k):
                d = abs(_det([[row[c] for c in cols] for row in picked]))
                if d > 1:
                    values.add(d)
    primes: set[int] = set()
    for v in values:
        p = 2
        while p * p <= v:
            if v % p == 0:
                primes.add(p)
                while v % p == 0:
                    v //= p
            p += 1
        if v > 1:
            primes.add(v)
    return frozenset(primes)


@pytest.mark.parametrize("name", default_types(4))
def test_minor_search_finds_only_theta_primes(name):
    # The primes where some subset of normals drops rank mod p are those of
    # the coefficients of theta (Kamiya-Takemura-Terao), all at most h, so
    # the floor q > h alone keeps every count exact.
    rs = build(name)
    theta_primes = {p for c in rs.theta.coords for p in range(2, c + 1)
                    if c % p == 0 and all(p % d for d in range(2, p))}
    assert _minor_prime_factors(rs) == theta_primes
    assert all(p <= rs.coxeter_number for p in theta_primes)


def _primes_above_h(rs: RootSystem, count: int) -> list[int]:
    """The first count primes above the Coxeter number h.  Every prime
    dividing a coefficient of theta is at most h, so a count at these is
    chi(q) too; they are the primes of the oracle _char_poly_n_plus_2."""
    out: list[int] = []
    candidate = rs.coxeter_number + 1
    while len(out) < count:
        if all(candidate % p for p in range(2, candidate)):
            out.append(candidate)
        candidate += 1
    return out


# _primes_above_h(rs, rank + 2) as the minor search returned it: no prime
# above h was ever rejected.
PRIMES_ABOVE_H = {
    "A1": [3, 5, 7],
    "A2": [5, 7, 11, 13],
    "B2": [5, 7, 11, 13],
    "C2": [5, 7, 11, 13],
    "G2": [7, 11, 13, 17],
    "A3": [5, 7, 11, 13, 17],
    "B3": [7, 11, 13, 17, 19],
    "C3": [7, 11, 13, 17, 19],
    "D3": [5, 7, 11, 13, 17],
    "A4": [7, 11, 13, 17, 19, 23],
    "B4": [11, 13, 17, 19, 23, 29],
    "C4": [11, 13, 17, 19, 23, 29],
    "D4": [7, 11, 13, 17, 19, 23],
    "F4": [13, 17, 19, 23, 29, 31],
    "A5": [7, 11, 13, 17, 19, 23, 29],
    "B5": [11, 13, 17, 19, 23, 29, 31],
    "C5": [11, 13, 17, 19, 23, 29, 31],
    "D5": [11, 13, 17, 19, 23, 29, 31],
    "A6": [11, 13, 17, 19, 23, 29, 31, 37],
    "B6": [13, 17, 19, 23, 29, 31, 37, 41],
    "C6": [13, 17, 19, 23, 29, 31, 37, 41],
    "D6": [11, 13, 17, 19, 23, 29, 31, 37],
    "E6": [13, 17, 19, 23, 29, 31, 37, 41],
    "A7": [11, 13, 17, 19, 23, 29, 31, 37, 41],
    "B7": [17, 19, 23, 29, 31, 37, 41, 43, 47],
    "C7": [17, 19, 23, 29, 31, 37, 41, 43, 47],
    "D7": [13, 17, 19, 23, 29, 31, 37, 41, 43],
    "E7": [19, 23, 29, 31, 37, 41, 43, 47, 53],
    "A8": [11, 13, 17, 19, 23, 29, 31, 37, 41, 43],
    "B8": [17, 19, 23, 29, 31, 37, 41, 43, 47, 53],
    "C8": [17, 19, 23, 29, 31, 37, 41, 43, 47, 53],
    "D8": [17, 19, 23, 29, 31, 37, 41, 43, 47, 53],
    "E8": [31, 37, 41, 43, 47, 53, 59, 61, 67, 71],
}


def test_primes_above_h_pinned():
    assert list(PRIMES_ABOVE_H) == default_types(8)
    for name, primes in PRIMES_ABOVE_H.items():
        rs = build(name)
        assert _primes_above_h(rs, rs.rank + 2) == primes, name
        assert all(q > rs.coxeter_number for q in primes)


def test_char_poly_is_monic_with_unit_chi_one():
    # chi(1) = 0 whenever there is at least one wall
    for name in ["A2", "B3", "G2"]:
        chi = char_poly(coxeter_arrangement(build(name)))
        assert chi[-1] == 1
        assert sum(chi) == 0


@pytest.mark.parametrize("spec", ["B2:0,1", "B3:0,1,0", "G2:es", "A3:0,1,0",
                                  "C3:1,0,0", "A3:1,0,1"])
def test_regions_biject_with_ideals(spec):
    g = parse_grading_spec(spec)
    regions = enumerate_W0(g).by_tau
    p = weight_poset(g)
    assert len(regions) == count_lower_ideals(p)
    assert set(regions) == set(p.ideal_masks)
    total = sum(len(chambers) for chambers in regions.values())
    assert total == len(enumerate_W0(g).elements())


def test_region_chambers_sorted_by_distance():
    g = parse_grading_spec("G2:es")
    for chambers in enumerate_W0(g).by_tau.values():
        lengths = [w.length for w in chambers]
        assert lengths == sorted(lengths)


def _matrix_sign_oracle(g, w, normals=None):
    """Signs of the chamber w^(-1)(dominant) against each hyperplane, from an
    interior point: the inverse image of the sum of fundamental coweights.

    In coweight coordinates that point is the vector of column sums of the
    matrix of w (the heights of the w(alpha_j)), so each sign is an exact
    integer dot product.  It reads only the matrix of w, never the inversion
    set, so it is a second route to the signs that inversion masks give.
    """
    if normals is None:
        normals = sub_arrangement_01(g).normals
    n = g.rs.rank
    m = _matrix(w)
    point = tuple(sum(m[i][j] for i in range(n)) for j in range(n))
    signs = []
    for gamma in normals:
        val = sum(x * c for x, c in zip(point, gamma.coords))
        if val == 0:
            raise ValueError(f"chamber point lies on the hyperplane of {gamma}")
        signs.append(1 if val > 0 else -1)
    return tuple(signs)


def _walls_by_matrix(g, w):
    """The positive roots on which _matrix_sign_oracle is negative, as a
    positive-root mask."""
    rs = g.rs
    signs = _matrix_sign_oracle(g, w, rs.positive_roots)
    return sum(1 << k for k, s in enumerate(signs) if s < 0)


@pytest.mark.parametrize("name", default_types(4))
def test_batched_signs_match_the_matrix_route(name):
    rs = build(name)
    gradings = sweep_gradings(rs)
    elements = weyl_elements(rs)
    walls = geometric_inversions(rs, elements)
    assert len(walls) == len(elements)
    assert walls == _numpy_geometric_inversions(rs, elements)
    for w, mask in zip(elements, walls):
        assert mask == _walls_by_matrix(gradings[0], w)
    for g in gradings:
        cosets = enumerate_W0(g).elements()
        walls = geometric_inversions(rs, cosets)
        assert len(walls) == len(cosets)
        assert walls == _numpy_geometric_inversions(rs, cosets)
        for w, mask in zip(cosets, walls):
            assert mask == _walls_by_matrix(g, w)
            assert geometric_inversions(rs, [w]) == [mask]


def test_chamber_point_on_a_wall_raises():
    g = parse_grading_spec("A2:1,0")
    rs = g.rs
    ident = WeylElement.identity(rs)
    # Sending alpha_2 to -alpha_1 is no Weyl element: its chamber point
    # (ht a1, ht -a1) = (1, -1) lies on the plane of a1 + a2.
    malformed = WeylElement(rs, (0, 3) + ident.perm[2:])
    for route in (geometric_inversions, _numpy_geometric_inversions):
        with pytest.raises(ValueError, match="hyperplane of a1\\+a2"):
            route(rs, [ident, malformed])
    # The identity's chamber point (1, 1) lies on the plane of a1 - a2.
    with pytest.raises(ValueError, match="hyperplane of a1-a2"):
        _matrix_sign_oracle(g, ident, [Root((1, -1))])


def test_walls_of_no_elements():
    g = parse_grading_spec("B2:0,1")
    assert geometric_inversions(g.rs, []) == [] == _numpy_geometric_inversions(g.rs, [])


def _numpy_geometric_inversions(rs: RootSystem, elements: Sequence[WeylElement]) -> list[int]:
    """The numpy route to the chamber walls, as the library had it before
    the packed-integer lanes; kept verbatim as an oracle.

    In coweight coordinates p has coordinates ht(w(alpha_j)), read off the
    permutation of w at the simple roots, so the pairings of the batch with
    every positive root are one integer product, points x roots^T; it is
    exact in int64, each entry being at most rank * h * 6 in size.  It never
    reads an inversion set, so it is a second route to the masks that
    inversion sets give.
    """
    heights = rs.heights
    points = np.array(
        [[heights[w.perm[k]] for k in rs.simple_indices] for w in elements],
        dtype=np.int64,
    ).reshape(len(elements), rs.rank)
    values = points @ np.array([r.coords for r in rs.positive_roots], dtype=np.int64).T
    if not values.all():
        _, c = np.argwhere(values == 0)[0]
        raise ValueError(f"chamber point lies on the hyperplane of {rs.positive_roots[c]}")
    rows = np.packbits(values < 0, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


def test_every_lane_keeps_its_sign_at_the_extremes():
    # The pairing bound rank * (h - 1) * max theta is reached by no chamber
    # point, but a malformed point with every height at +-(h - 1) comes
    # close; each lane must still read its own sign, as the matrix route does.
    for name in ["A4", "B4", "F4", "G2", "E8"]:
        rs = build(name)
        top = rs.index[rs.theta.coords]
        n = len(rs.positive_roots)
        ident = WeylElement.identity(rs)
        for sign in (1, -1):
            perm = list(ident.perm)
            for k in rs.simple_indices:
                perm[k] = top if sign > 0 else top + n
            w = WeylElement(rs, tuple(perm))
            expected = 0 if sign > 0 else (1 << n) - 1
            assert geometric_inversions(rs, [w]) == [expected]
            assert _numpy_geometric_inversions(rs, [w]) == [expected]


@pytest.mark.slow
def test_e6_signs_and_fiber_extremes():
    # Every E6 grading, by the library directly: the batched signs against
    # the inversion masks of the cosets, and w_min/w_max against the ends of
    # each fiber.
    rs = build("E6")
    for g in sweep_gradings(rs):
        level01 = sub_arrangement_01(g).mask
        table = enumerate_W0(g)
        walls = geometric_inversions(rs, table.elements())
        for w, mask in zip(table.elements(), walls):
            assert mask & level01 == w.inversion_mask & level01
        for ideal in iter_lower_ideals(weight_poset(g, 1)):
            fib = fiber(g, ideal)
            assert w_min(g, ideal) == fib[0] and w_max(g, ideal) == fib[-1]


@pytest.mark.slow
def test_e6_coxeter_and_deleted_char_poly(monkeypatch):
    # Five counts each, at q = 5 ... 17; the default budget stays below them.
    monkeypatch.setattr(rootsys, "BUDGET", arrangement.char_poly_points(build("E6")))
    rs = build("E6")
    m = rs.exponents
    try:
        assert char_poly(coxeter_arrangement(rs)) == from_int_roots(m)
        assert char_poly(deleted_arrangement(rs)) == from_int_roots(list(m[:-1]) + [m[-1] - 1])
    finally:
        char_poly.cache_clear()  # at the default budget E6 must raise again


@pytest.mark.slow
@pytest.mark.parametrize("name", ["B6", "C6", "D6"])
def test_rank_6_coxeter_and_deleted_char_poly_within_the_budget(name):
    # Five counts each, at q = 3 ... 13: 50,749 fibre points, within the
    # default budget.
    rs = build(name)
    m = rs.exponents
    assert char_poly(coxeter_arrangement(rs)) == from_int_roots(m)
    assert char_poly(deleted_arrangement(rs)) == from_int_roots(list(m[:-1]) + [m[-1] - 1])


@pytest.mark.parametrize("name", default_types(4) + ["B5"])
def test_char_poly_counts_at_the_primes_its_budget_sums(name, monkeypatch):
    # max(n - 1, 1) counts, at the first good primes in order, and their
    # fibre points are the size the budget refuses chi by.
    rs = RootSystem(build(name).cartan_type)  # a private instance, nothing cached
    n, calls, real = rs.rank, [], arrangement._point_count

    def counting(normals, n, q):
        calls.append(q)
        return real(normals, n, q)

    monkeypatch.setattr(arrangement, "_point_count", counting)
    assert char_poly(coxeter_arrangement(rs)) == from_int_roots(rs.exponents)
    assert calls == good_primes(rs, max(n - 1, 1))
    assert sum(q ** (n - 2 - k) for q in calls for k in range(n - 1)) == (
        arrangement.char_poly_points(rs))


def test_geometric_inversions_match_inversions():
    g = parse_grading_spec("B2:0,1")
    rs = g.rs
    for w, mask in zip(weyl_elements(rs), geometric_inversions(rs, weyl_elements(rs))):
        neg = set(rs.roots_of(mask))
        assert neg == {r for r in rs.positive_roots
                       if not w.apply(r).is_positive}


def test_height_partition_and_exponents():
    g = parse_grading_spec("G2:es")
    walls = [r for r in g.rs.positive_roots if g.level(r) in (0, 1)]
    assert g.rs.height_partition(g.delta0_mask | g.delta1_mask) == (2, 1, 1, 1)
    assert g.rs.height_partition(0) == ()
    for mask in (1 << 6, -1):
        with pytest.raises(ValueError, match=f"^{mask} is not a positive-root mask of G2$"):
            g.rs.height_partition(mask)
    assert conjectural_exponents(g) == (1, 4)
    assert sum(conjectural_exponents(g)) == len(walls)


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3", "C3", "A4", "B4", "D4"])
def test_exponents_factor_chi_with_zeros_for_non_essential_arrangements(name):
    # Marks up to 2 leave a simple root of mark 2 outside the level-(0,1)
    # normals, so they need not span: every missing dimension is a zero.
    rs = build(name)
    gradings = [grade(rs, marks) for marks in iproduct((0, 1, 2), repeat=rs.rank)
                if any(marks)]
    gradings = [g for g in gradings if g.slice(1)]
    for g in gradings:
        b = conjectural_exponents(g)
        assert len(b) == rs.rank
        assert char_poly(sub_arrangement_01(g)) == from_int_roots(b), g.spec_string()
    assert sum(0 in conjectural_exponents(g) for g in gradings) > 0


def test_non_essential_report_and_charpoly_row():
    g = parse_grading_spec("A2:2,1")
    assert conjectural_exponents(g) == (0, 1)
    assert arrangement_report(g)["exponents_match"] is True
    rows = checks.run([(g.rs, [g])], ["charpoly"])
    assert rows and all(r.ok for r in rows)


def test_ideal_count_formula_values():
    assert ideal_count_formula(parse_grading_spec("G2:es")) == Fraction(5)
    assert ideal_count_formula(parse_grading_spec("A2:1,0")) == Fraction(3)
    assert ideal_count_formula(parse_grading_spec("B3:0,1,0")) == Fraction(10)


@pytest.mark.parametrize("spec, exponents", [("G2:es", (1, 4)),
                                             ("F4:1,0,0,0", (1, 5, 7, 10))],
                         ids=["G2:es", "F4:1,0,0,0"])
def test_level_01_exponents_factor_chi(spec, exponents):
    g = parse_grading_spec(spec)
    rep = arrangement_report(g)
    b = conjectural_exponents(g)
    assert b == exponents == tuple(sorted(rep["dual_partition"]))
    assert sum(b) == len(sub_arrangement_01(g).normals)
    assert rep["exponents_match"]
    levi = km_order(g.rs) / len(enumerate_W0(g))
    regions = zaslavsky_regions(rep["char_poly"])
    assert regions == prod(e + 1 for e in b) == levi * rep["ideal_count"]
    rows = checks.run([(g.rs, [g])], ["charpoly"])
    status = {r.name: r.status for r in rows if r.subject == g.spec_string()}
    assert status["region-count-two-ways"] == status["dual-partition-factorisation"] == "pass"


def test_arrangement_report_shape():
    rep = arrangement_report(parse_grading_spec("B3:0,1,0"))
    assert rep == {
        "grading": "B3:0,1,0",
        "partition": [3, 2, 2, 1],
        "dual_partition": [4, 3, 1],
        "region_count": 10,
        "ideal_count": 10,
        "formula_value": "10",
        "char_poly": [-12, 19, -8, 1],
        "exponents_match": True,
    }


def test_zaslavsky_for_sub_arrangement():
    g = parse_grading_spec("B3:0,1,0")
    chi = char_poly(sub_arrangement_01(g))
    levi_order = km_order(g.rs, sum(1 << k for k, r in enumerate(g.rs.positive_roots)
                                    if g.level(r) == 0))
    regions = zaslavsky_regions(chi)
    assert Fraction(regions) == levi_order * count_lower_ideals(weight_poset(g))


def test_upper_ideal_partition_check():
    out = upper_ideal_partition_check(build("A3"))
    assert out == {"type": "A3", "upper_ideals": 14, "violations": [], "ok": True}
    assert upper_ideal_partition_check(build("B3"))["ok"]


def test_rank_bounds_raise_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("work started before the budget was checked")

    monkeypatch.setattr(arrangement, "_point_count", no_work)
    monkeypatch.setattr(arrangement, "upper_ideals_of_root_poset", no_work)
    monkeypatch.setattr(weyl, "_compose", no_work)
    with pytest.raises(ValueError, match=r"^2,903,040 elements of W\(E7\) "
                       r"exceed the budget of 51,840$"):
        weyl_elements(build("E7"))
    with pytest.raises(ValueError, match=r"^139,369 char_poly fibre points on E6 "
                       r"exceed the budget of 51,840$"):
        char_poly(coxeter_arrangement(build("E6")))
    with pytest.raises(ValueError, match=r"^58,786 upper ideals of the A10 root poset "
                       r"exceed the budget of 51,840$"):
        upper_ideal_partition_check(build("A10"))


def test_charpoly_suite_checks_rank_5():
    rs = build("A5")
    rows = list(checks.SUITES["charpoly"](rs, sweep_gradings(rs)))
    assert [r for r in rows if not r.ok] == []
    (coxeter,) = [r for r in rows if r.name == "coxeter-factorisation"]
    assert coxeter.detail == "chi = -120 + 274t - 225t^2 + 85t^3 - 15t^4 + t^5"
    assert sum(r.name == "dual-partition-factorisation" for r in rows) == 31


def test_upper_ideals_include_extremes():
    rs = build("B3")
    ups = upper_ideals_of_root_poset(rs)
    full = (1 << len(rs.positive_roots)) - 1
    assert 0 in ups and full in ups
    assert len(ups) == len(set(ups))


def test_ideal_arrangement_validates_mask():
    rs = build("A2")
    ups = upper_ideals_of_root_poset(rs)
    theta_bit = 1 << rs.index[rs.theta.coords]
    for mask in ups:
        ideal_arrangement(rs, mask)  # should not raise
    # a lower-but-not-upper set is refused
    low = (1 << rs.index[(1, 0)]) | (1 << rs.index[(0, 1)])
    assert low not in ups
    with pytest.raises(ValueError):
        ideal_arrangement(rs, low)
    assert theta_bit in ups
    # so is an int with a bit beyond the positive roots
    for mask in (1 << 3, -1):
        with pytest.raises(ValueError, match=f"^{mask} is not a positive-root mask of A2$"):
            ideal_arrangement(rs, mask)


def _brute_point_count(normals, n, q):
    """#{x in F_q^n : <x, gamma> != 0 for all normals}, with x written in
    coweight coordinates so each functional has the root's integer coords."""
    total = q**n
    count = 0
    chunk = 1 << 21
    rows = [g.coords for g in normals]
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = []
        rem = idx
        for _ in range(n):
            digits.append(rem % q)
            rem = rem // q
        ok = np.ones(idx.shape, dtype=bool)
        for row in rows:
            acc = np.zeros(idx.shape, dtype=np.int64)
            for c, col in zip(row, digits):
                if c:
                    acc += c * col
            ok &= (acc % q) != 0
        count += int(ok.sum())
    return count


def _numpy_point_count(normals: Sequence[Root], n: int, q: int) -> int:
    """The numpy fibration the library counted with before its plain-integer
    one; kept verbatim as an oracle.

    The count is q-1 times that of the points whose first nonzero coordinate
    x_k is 1.  Each class k is fibred over x_n: a fibre point x' keeps q minus
    the distinct values x_n = -<x', gamma'>/c_n forbidden by the normals with
    c_n != 0, or nothing when a normal with c_n = 0 vanishes on x'.
    """
    if not normals:
        return q**n
    coords = np.array([g.coords for g in normals], dtype=np.int64) % q
    # Scaled to c_n = -1, a normal forbids exactly x_n = <x', gamma'>.
    unit = [-pow(int(c), -1, q) if c else 1 for c in coords[:, -1]]
    coords = coords * np.array(unit, dtype=np.int64)[:, None] % q
    moving = coords[:, -1] != 0
    reps = int(moving.all())  # the class k = n-1 is the single point e_n
    chunk = max(1, (1 << 18) // max(len(normals), q))  # bounds the temporaries
    for k in range(n - 1):
        size = q ** (n - 2 - k)
        for start in range(0, size, chunk):
            idx = np.arange(start, min(start + chunk, size), dtype=np.int64)
            acc = np.tile(coords[:, k], (len(idx), 1))
            for col in coords[:, k + 1 : n - 1].T:
                acc += np.outer(idx % q, col)
                idx //= q
            acc %= q
            acc = acc[(acc[:, ~moving] != 0).all(axis=1)]
            hit = np.zeros((len(acc), q), dtype=bool)
            hit[np.arange(len(acc))[:, None], acc[:, moving]] = True
            reps += q * len(acc) - int(hit.sum())
    return (q - 1) * reps


def _both_prime_sets(rs: RootSystem) -> list[int]:
    """2 and 3, where some root coordinates vanish mod q, the primes of
    good_primes and the primes above h, as char_poly and its oracle use them."""
    return sorted({2, 3, *good_primes(rs, rs.rank), *_primes_above_h(rs, rs.rank + 2)})


def _swept_arrangements(rs: RootSystem) -> list[Arrangement]:
    """The Coxeter, deleted and level-(0,1) arrangements of rs."""
    return [coxeter_arrangement(rs), deleted_arrangement(rs)] + [
        sub_arrangement_01(g) for g in sweep_gradings(rs)
    ]


@pytest.mark.parametrize("name", default_types(3))
def test_point_count_matches_brute_force_up_to_rank_3(name):
    rs = build(name)
    for q in _both_prime_sets(rs):
        for arr in _swept_arrangements(rs):
            count = _point_count(arr.normals, rs.rank, q)
            assert count == _brute_point_count(arr.normals, rs.rank, q), (str(arr.normals), q)
            assert count == _numpy_point_count(arr.normals, rs.rank, q)


@pytest.mark.parametrize("name", default_types(4)[len(default_types(3)):])
def test_point_count_matches_the_numpy_route_at_rank_4(name):
    rs = build(name)
    for q in _both_prime_sets(rs):
        for arr in _swept_arrangements(rs):
            assert _point_count(arr.normals, rs.rank, q) == _numpy_point_count(
                arr.normals, rs.rank, q
            ), (str(arr.normals), q)


@lru_cache(maxsize=None)
def _with_first_primes(name):
    rs = build(name)
    return rs, (2, good_primes(rs, 1)[0], _primes_above_h(rs, 1)[0])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["A4", "B4", "D4", "F4"]), st.data())
def test_point_count_matches_brute_force_on_root_subsets(name, data):
    rs, primes = _with_first_primes(name)
    picked = data.draw(
        st.lists(st.sampled_from(rs.positive_roots), min_size=1, unique=True)
    )
    for q in primes:
        count = _point_count(picked, rs.rank, q)
        assert count == _brute_point_count(picked, rs.rank, q) == _numpy_point_count(
            picked, rs.rank, q
        ), q


def test_point_count_rank_one_and_empty():
    rs = build("A1")
    for q in (2, 3, 5, 7):
        assert _point_count(rs.positive_roots, 1, q) == q - 1
        assert _brute_point_count(rs.positive_roots, 1, q) == q - 1
    for n, q in [(1, 5), (2, 7), (4, 13)]:
        assert _point_count((), n, q) == q**n == _brute_point_count((), n, q)


# -- the (n+2)-count char_poly and Fraction Lagrange interpolation -------
# The previous implementation, kept verbatim as an oracle for the (n - 1)-count
# char_poly and the integer Newton interpolation.


def _lagrange_interpolate(points: Sequence[tuple[int, int]]) -> Poly:
    """Exact Lagrange interpolation; raises if the result is not integral."""
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    coeffs = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            nxt = [Fraction(0)] * (len(basis) + 1)
            for k, c in enumerate(basis):
                nxt[k] -= c * xj
                nxt[k + 1] += c
            basis = nxt
            denom *= xi - xj
        scale = Fraction(yi) / denom
        for k, c in enumerate(basis):
            coeffs[k] += scale * c
    if any(c.denominator != 1 for c in coeffs):
        raise ValueError("interpolant is not an integer polynomial")
    return trimmed(int(c) for c in coeffs)


@cache
def _char_poly_n_plus_2(arr: Arrangement) -> Poly:
    """Characteristic polynomial via point counts over primes above h, with
    an extra prime confirming the interpolation; computed once per arrangement.
    The primes and the counts are the floor helper and the numpy route, so
    it shares neither with char_poly."""
    n = arr.rs.rank
    primes = _primes_above_h(arr.rs, n + 2)
    points = [(q, _numpy_point_count(arr.normals, n, q)) for q in primes[: n + 1]]
    chi = _lagrange_interpolate(points)
    if len(chi) != n + 1 or chi[-1] != 1:
        raise AssertionError("characteristic polynomial must be monic of full degree")
    q_check = primes[n + 1]
    if value(chi, q_check) != _numpy_point_count(arr.normals, n, q_check):
        raise AssertionError("interpolated polynomial fails at the verification prime")
    return chi


@pytest.mark.parametrize("name", default_types(4))
def test_char_poly_matches_the_n_plus_2_count_oracle(name):
    for arr in _swept_arrangements(build(name)):
        assert char_poly(arr) == _char_poly_n_plus_2(arr), arr.normals


@pytest.mark.slow
@pytest.mark.parametrize("name", default_types(5)[len(default_types(4)):])
def test_rank_5_char_poly_matches_the_n_plus_2_count_oracle(name):
    # chi at the primes coprime to theta against chi at the primes above h
    for arr in _swept_arrangements(build(name)):
        assert char_poly(arr) == _char_poly_n_plus_2(arr), arr.normals


@pytest.mark.parametrize("name", ["A5", "B5", "C5", "D5"])
def test_rank_5_coxeter_char_poly_matches_the_oracle(name):
    arr = coxeter_arrangement(build(name))
    assert char_poly(arr) == _char_poly_n_plus_2(arr) == from_int_roots(arr.rs.exponents)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["A4", "B4", "D4", "F4"]), st.data())
def test_char_poly_matches_the_oracle_on_root_subsets(name, data):
    # Mostly not ideal arrangements, so nothing factors; the counts still
    # give chi at every prime above h.
    rs = build(name)
    picked = data.draw(
        st.lists(st.sampled_from(rs.positive_roots), min_size=1, unique=True)
    )
    arr = Arrangement(rs, sum(1 << rs.index[r.coords] for r in picked))
    chi = char_poly(arr)
    assert chi == _char_poly_n_plus_2(arr)
    assert chi[-2] == -len(picked) and value(chi, 1) == 0


def test_char_poly_of_a1_and_of_the_empty_arrangement(monkeypatch):
    rs = build("A1")
    assert char_poly(coxeter_arrangement(rs)) == (-1, 1) == _char_poly_n_plus_2(
        coxeter_arrangement(rs)
    )
    monkeypatch.setattr(arrangement, "_point_count", None)  # no count is made
    for name in ["A1", "B3", "F4"]:
        empty = Arrangement(build(name), 0)
        assert char_poly(empty) == from_int_roots([0] * build(name).rank)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-30, 30), min_size=1, max_size=7, unique=True),
    st.lists(st.integers(-10**6, 10**6), min_size=7, max_size=7),
)
def test_interpolate_matches_lagrange_on_random_data(xs, ys):
    # Random values: mostly not an integer polynomial, so both must raise.
    points = list(zip(xs, ys))
    try:
        expected = _lagrange_interpolate(points)
    except ValueError:
        with pytest.raises(ValueError, match="not an integer polynomial"):
            interpolate(points)
    else:
        assert interpolate(points) == expected


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-10**4, 10**4), min_size=1, max_size=7),
    st.lists(st.integers(-30, 30), min_size=7, max_size=9, unique=True),
)
def test_interpolate_recovers_integer_polynomials(coeffs, xs):
    points = [(x, value(coeffs, x)) for x in xs]
    assert interpolate(points) == _lagrange_interpolate(points) == trimmed(coeffs)


def test_interpolate_edge_cases():
    assert interpolate([(3, 5)]) == (5,) == _lagrange_interpolate([(3, 5)])
    with pytest.raises(ValueError, match="distinct"):
        interpolate([(1, 2), (1, 3)])
    with pytest.raises(ValueError, match="not an integer polynomial"):
        interpolate([(0, 0), (2, 1)])  # t/2
    assert interpolate([]) == (0,)
