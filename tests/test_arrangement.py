import numpy as np
import pytest
from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations
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
    geometric_sign_oracle,
    geometric_signs,
    good_primes,
    height_partition,
    ideal_arrangement,
    ideal_count_formula,
    regions_in_dominant_chamber,
    sub_arrangement_01,
    upper_ideal_partition_check,
    upper_ideals_of_root_poset,
    zaslavsky_regions,
)
from gradus import arrangement, checks, weyl
from gradus.checks import default_types, sweep_gradings
from gradus.grading import parse_grading_spec
from gradus.ideals import count_lower_ideals, iter_lower_ideals, weight_poset
from gradus.polys import from_int_roots
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
    a1 = rs.root((1, 0))
    with pytest.raises(ValueError):
        Arrangement(rs, (a1, a1))
    with pytest.raises(ValueError):
        Arrangement(rs, (rs.root((-1, 0)),))


def test_good_primes_pinned():
    assert good_primes(build("B2"), 3) == [5, 7, 11]
    assert good_primes(build("G2"), 3) == [7, 11, 13]
    assert good_primes(build("F4"), 3) == [13, 17, 19]
    for name in ["B2", "G2", "F4"]:
        rs = build(name)
        assert all(q > rs.coxeter_number for q in good_primes(rs, 3))


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


# good_primes(rs, rank + 2) as the minor search returned it: no prime above h
# was ever rejected.
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


def test_good_primes_are_the_primes_above_h():
    assert list(PRIMES_ABOVE_H) == default_types(8)
    for name, primes in PRIMES_ABOVE_H.items():
        rs = build(name)
        assert good_primes(rs, rs.rank + 2) == primes, name


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
    regions = regions_in_dominant_chamber(g)
    p = weight_poset(g)
    assert len(regions) == count_lower_ideals(p)
    masks = {r.ideal.mask for r in regions}
    assert len(masks) == len(regions)
    total = sum(len(r.chambers) for r in regions)
    assert total == len(enumerate_W0(g).elements())


def test_region_chambers_sorted_by_distance():
    g = parse_grading_spec("G2:es")
    for region in regions_in_dominant_chamber(g):
        lengths = [w.length for w in region.chambers]
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


@pytest.mark.parametrize("name", default_types(4))
def test_batched_signs_match_the_matrix_route(name):
    rs = build(name)
    gradings = sweep_gradings(rs)
    elements = weyl_elements(rs)
    signs = geometric_signs(gradings[0], elements, rs.positive_roots)
    assert signs.shape == (len(elements), len(rs.positive_roots))
    for w, row in zip(elements, signs.tolist()):
        assert tuple(row) == _matrix_sign_oracle(gradings[0], w, rs.positive_roots)
    for g in gradings:
        cosets = enumerate_W0(g).elements()
        signs = geometric_signs(g, cosets)
        assert signs.shape == (len(cosets), len(sub_arrangement_01(g).normals))
        for w, row in zip(cosets, signs.tolist()):
            assert tuple(row) == _matrix_sign_oracle(g, w)
            assert geometric_sign_oracle(g, w) == tuple(row)


def test_chamber_point_on_a_wall_raises():
    g = parse_grading_spec("A2:1,0")
    ident = WeylElement.identity(g.rs)
    # The identity's chamber point (1, 1) lies on the plane of a1 - a2.
    with pytest.raises(ValueError, match="hyperplane of a1-a2"):
        geometric_signs(g, [ident], [g.rs.positive_roots[0], Root((1, -1))])
    with pytest.raises(ValueError, match="hyperplane of a1-a2"):
        geometric_sign_oracle(g, ident, [Root((1, -1))])
    with pytest.raises(ValueError, match="hyperplane of a1-a2"):
        _matrix_sign_oracle(g, ident, [Root((1, -1))])


def test_signs_of_no_elements_or_no_normals():
    g = parse_grading_spec("B2:0,1")
    assert geometric_signs(g, [], g.rs.positive_roots).shape == (0, 4)
    assert geometric_signs(g, weyl_elements(g.rs), []).shape == (8, 0)


@pytest.mark.slow
def test_e6_signs_and_fiber_extremes():
    # Every E6 grading, by the library directly: the batched signs against
    # the inversion masks of the cosets, and w_min/w_max against the ends of
    # each fiber.
    rs = build("E6")
    for g in sweep_gradings(rs):
        normals = sub_arrangement_01(g).normals
        columns = [rs.index[gamma.coords] for gamma in normals]
        table = enumerate_W0(g)
        signs = geometric_signs(g, table.elements(), normals)
        for w, row in zip(table.elements(), signs.tolist()):
            mask = w.inversion_mask
            assert [s < 0 for s in row] == [bool(mask >> k & 1) for k in columns]
        for ideal in iter_lower_ideals(weight_poset(g, 1)):
            fib = fiber(g, ideal)
            assert w_min(g, ideal) == fib[0] and w_max(g, ideal) == fib[-1]


def test_geometric_sign_oracle_matches_inversions():
    g = parse_grading_spec("B2:0,1")
    rs = g.rs
    for w in weyl_elements(rs):
        signs = geometric_sign_oracle(g, w, normals=rs.positive_roots)
        neg = {r for r, s in zip(rs.positive_roots, signs) if s < 0}
        assert neg == {r for r in rs.positive_roots
                       if not w.apply(r).is_positive}


def test_height_partition_and_exponents():
    g = parse_grading_spec("G2:es")
    walls = [r for r in g.rs.positive_roots if g.level(r) in (0, 1)]
    assert height_partition(walls) == (2, 1, 1, 1)
    assert conjectural_exponents(g) == (1, 4)
    assert sum(conjectural_exponents(g)) == len(walls)


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
    levi_order = km_order(g.rs, [r for r in g.rs.positive_roots
                                 if g.level(r) == 0])
    regions = zaslavsky_regions(chi)
    assert Fraction(regions) == levi_order * count_lower_ideals(weight_poset(g))


def test_upper_ideal_partition_check():
    out = upper_ideal_partition_check(build("A3"))
    assert out == {"type": "A3", "upper_ideals": 14, "violations": [], "ok": True}
    assert upper_ideal_partition_check(build("B3"))["ok"]


def test_rank_bounds_raise_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("work started before the rank bound was checked")

    monkeypatch.setattr(arrangement, "good_primes", no_work)
    monkeypatch.setattr(arrangement, "upper_ideals_of_root_poset", no_work)
    monkeypatch.setattr(weyl, "_compose", no_work)
    with pytest.raises(ValueError, match=r"^rank 6 exceeds the char_poly bound 5: "):
        char_poly(coxeter_arrangement(build("E6")))
    with pytest.raises(ValueError, match=r"^rank 8 exceeds the enumeration bound 7"):
        weyl_elements(build("E8"))
    with pytest.raises(ValueError, match=r"^upper-ideal sweep is bounded at rank 5$"):
        upper_ideal_partition_check(build("A6"))


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


@pytest.mark.parametrize("name", default_types(3))
def test_point_count_matches_brute_force_up_to_rank_3(name):
    rs = build(name)
    arrangements = [coxeter_arrangement(rs), deleted_arrangement(rs)]
    arrangements += [sub_arrangement_01(g) for g in sweep_gradings(rs)]
    # 2 and 3 divide some root coordinates, which then vanish mod q
    for q in [2, 3] + good_primes(rs, rs.rank + 2):
        for arr in arrangements:
            assert _point_count(arr.normals, rs.rank, q) == _brute_point_count(
                arr.normals, rs.rank, q
            ), (str(arr.normals), q)


@lru_cache(maxsize=None)
def _with_first_good_prime(name):
    rs = build(name)
    return rs, good_primes(rs, 1)[0]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["A4", "B4", "D4", "F4"]), st.data())
def test_point_count_matches_brute_force_on_root_subsets(name, data):
    rs, q = _with_first_good_prime(name)
    picked = data.draw(
        st.lists(st.sampled_from(rs.positive_roots), min_size=1, unique=True)
    )
    assert _point_count(picked, rs.rank, q) == _brute_point_count(picked, rs.rank, q)


def test_point_count_rank_one_and_empty():
    rs = build("A1")
    for q in (2, 3, 5, 7):
        assert _point_count(rs.positive_roots, 1, q) == q - 1
        assert _brute_point_count(rs.positive_roots, 1, q) == q - 1
    for n, q in [(1, 5), (2, 7), (4, 13)]:
        assert _point_count((), n, q) == q**n == _brute_point_count((), n, q)
