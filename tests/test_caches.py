"""The caches: what is shared, what is per grading, and what they keep alive.

Values derived from a grading are cached_property values of the Grading and
die with it; values derived from a root system are functools caches keyed by
the memoised root system and tuples of ints or frozen arrangements.
"""

import gc
import weakref

from gradus import arrangement
from gradus.arrangement import Arrangement, char_poly, coxeter_arrangement
from gradus.grading import grade, parse_grading_spec
from gradus.ideals import dual_ideal, iter_lower_ideals, weight_poset
from gradus.rootsys import RootSystem, build, parse_cartan_type
from gradus.weyl import enumerate_W0, involution, longest_element


def test_repeated_queries_share_one_table_and_poset():
    g = parse_grading_spec("B3:es")  # levels 1 and 2 are both nonempty
    assert enumerate_W0(g) is enumerate_W0(g)
    for k in (1, 2):
        assert weight_poset(g, k) is weight_poset(g, k)
    assert weight_poset(g, 1) is not weight_poset(g, 2)


def test_gradings_with_equal_marks_get_distinct_tables():
    rs = build("A3")
    g1, g2 = grade(rs, (0, 1, 0)), grade(rs, (0, 1, 0))
    t1, t2 = enumerate_W0(g1), enumerate_W0(g2)
    assert t1 is not t2
    assert t1.grading is g1 and t2.grading is g2
    assert t1.elements() == t2.elements()
    assert weight_poset(g1) is not weight_poset(g2)
    assert weight_poset(g1).grading is g1


def test_no_global_cache_holds_a_grading():
    g = parse_grading_spec("B3:0,1,0")
    enumerate_W0(g)
    p = weight_poset(g, 1)
    for ideal in iter_lower_ideals(p):
        dual_ideal(p, ideal)
    for w in enumerate_W0(g).elements():
        involution(g, w)
    ref = weakref.ref(g)
    del g, p, ideal, w
    gc.collect()
    assert ref() is None


def test_equal_arrangement_reuses_the_polynomial(monkeypatch):
    # A root system that build() has not memoised keys nothing cached yet.
    rs = RootSystem(parse_cartan_type("B3"))
    calls = []
    real = arrangement._point_count

    def counting(normals, n, q):
        calls.append(q)
        return real(normals, n, q)

    monkeypatch.setattr(arrangement, "_point_count", counting)
    first = Arrangement(rs, rs.positive_roots)
    chi = char_poly(first)
    assert len(calls) == rs.rank + 2  # rank+1 interpolation primes and a check
    calls.clear()
    again = Arrangement(rs, tuple(rs.positive_roots))
    assert again is not first and again == first
    assert char_poly(again) == chi
    assert calls == []

    # The memoised root system of the same type is a different key.
    assert char_poly(coxeter_arrangement(build("B3"))) == chi


def test_longest_element_accepts_any_index_iterable():
    rs = build("B3")
    assert longest_element(rs, [0]) == longest_element(rs, (0,))
    assert longest_element(rs, [0, 1]).perm == longest_element(rs, range(2)).perm
    assert longest_element(rs) == longest_element(rs, (0, 1, 2))
    assert longest_element(rs, [0]).word == (0,)
