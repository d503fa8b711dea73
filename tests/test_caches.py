"""The caches: what is shared, what is per grading, and what they keep alive.

Values derived from a grading are cached_property values of the Grading and
die with it; values derived from a root system are functools caches keyed by
the memoised root system and tuples of ints or frozen arrangements.  A peel
(the element with a given inversion mask) is such a value, keyed by the root
system and the mask, so gradings of one root system share it; the memo keeps
the last 2^14 peels, and the extremes of a grading's fibers are still
memoised per grading.  The CLI keeps one grading per spec string for the last
128 specs, so a repeated query reuses what that grading derived;
`verify` builds its own gradings.  The whole group W is kept for the last
root system walked only.
"""

import contextlib
import gc
import importlib
import inspect
import io
import json
import pkgutil
import weakref
from pathlib import Path

import pytest

import gradus
from gradus import arrangement, checks, cli, ideals, weyl
from gradus.arrangement import Arrangement, char_poly, coxeter_arrangement
from gradus.cli import main
from gradus.grading import extra_special, grade, parse_grading_spec
from gradus.ideals import dual_ideal, iter_lower_ideals, weight_poset
from gradus.rootsys import RootSystem, build, parse_cartan_type
from gradus.weyl import closure_mask, enumerate_W0, involution, longest_element, w_min


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


def test_only_the_last_whole_group_walked_is_kept():
    # A run takes the suites of one type one after another, so the group
    # kept is the one in use and a run over many types holds one group.
    a3, b3 = build("A3"), build("B3")
    first = weyl.weyl_elements(a3)
    assert weyl.weyl_elements(a3) is first
    weyl.weyl_elements(b3)
    assert weyl.weyl_elements.cache_info().currsize == 1
    again = weyl.weyl_elements(a3)
    assert again is not first and again == first


def test_gradings_of_one_root_system_share_a_peel(monkeypatch):
    # A root system that build() has not memoised keys nothing cached yet.
    rs = RootSystem(parse_cartan_type("B3"))
    g1, g2 = grade(rs, (0, 1, 1)), grade(rs, (1, 1, 1))
    # w_min's inversion set is the closure of its ideal
    shared = [
        (i1, i2)
        for i1 in iter_lower_ideals(weight_poset(g1))
        for i2 in iter_lower_ideals(weight_poset(g2))
        if closure_mask(rs, i1.mask) == closure_mask(rs, i2.mask)
    ]
    i1, i2 = max(shared, key=lambda pair: closure_mask(rs, pair[0].mask).bit_count())
    calls = []
    real = weyl._compose

    def counting(u, v):
        calls.append(v)
        return real(u, v)

    monkeypatch.setattr(weyl, "_compose", counting)
    first = w_min(g1, i1)
    assert first.length >= 2 and len(calls) == first.length
    calls.clear()
    again = w_min(g2, i2)
    assert again is not first and again.perm is first.perm
    assert calls == []


def test_equal_arrangement_reuses_the_polynomial(monkeypatch):
    # A root system that build() has not memoised keys nothing cached yet.
    rs = RootSystem(parse_cartan_type("B3"))
    calls = []
    real = arrangement._point_count

    def counting(normals, n, q):
        calls.append(q)
        return real(normals, n, q)

    monkeypatch.setattr(arrangement, "_point_count", counting)
    first = Arrangement(rs, (1 << len(rs.positive_roots)) - 1)
    chi = char_poly(first)
    assert len(calls) == rs.rank - 1  # rank-2 interpolation primes and a check
    calls.clear()
    # the same normals gathered in reverse order are the same key
    again = Arrangement(rs, sum(1 << rs.index[r.coords] for r in reversed(rs.positive_roots)))
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


@pytest.fixture
def walks(monkeypatch):
    """The down-mask sequences that lower ideals are enumerated over."""
    seen = []
    real = ideals.iter_downclosed

    def counted(down_masks):
        seen.append(down_masks)
        return real(down_masks)

    monkeypatch.setattr(ideals, "iter_downclosed", counted)
    return seen


@pytest.mark.parametrize("spec", ["A3:1,1,1", "B3:es", "C3:1,0,2", "A2:3,1"])
def test_every_suite_walks_the_ideals_of_a_grading_once(spec, walks):
    g = parse_grading_spec(spec)
    rows = checks.run([(g.rs, [g])])
    assert rows and all(r.ok for r in rows)
    # the ideals suite also counts sub-posets, on down-masks of its own
    assert sum(w is weight_poset(g, 1).down_masks for w in walks) == 1


def test_a_sweep_pass_walks_each_poset_once(walks):
    targets = checks.targets_for(checks.default_types(4))
    checks.run(targets, [name for name in checks.SUITES if name != "charpoly"])
    posets = {id(weight_poset(g, 1).down_masks) for _, gs in targets for g in gs}
    assert len(posets) == 116
    assert sum(id(w) in posets for w in walks) == 116


def test_a_sweep_pass_counts_a_whole_component_from_its_walk(walks):
    # the component-product row walks the sub-poset of each level-1
    # component, and runs only where the poset has more than one
    targets = checks.targets_for(checks.default_types(4))
    checks.run(targets, [name for name in checks.SUITES if name != "charpoly"])
    posets = {id(weight_poset(g, 1).down_masks) for _, gs in targets for g in gs}
    assert sum(id(w) not in posets for w in walks) == 184


def test_extra_special_marks_are_computed_once_per_root_system(monkeypatch):
    # A root system that build() has not memoised keys nothing cached yet.
    rs = RootSystem(parse_cartan_type("B3"))
    calls = []
    real = RootSystem.pairing

    def counting(self, mu, gamma):
        calls.append(gamma)
        return real(self, mu, gamma)

    monkeypatch.setattr(RootSystem, "pairing", counting)
    first = extra_special(rs)
    assert first.marks == (0, 1, 0) and len(calls) == rs.rank
    calls.clear()
    again = extra_special(rs)
    assert again is not first and again.marks == first.marks and calls == []
    ref = weakref.ref(first)
    del first, again
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("argv", [
    ["ideals", "B3:es", "--list", "--poly", "--json"],
    ["weyl", "B3:es", "--min", "--max", "--json"],
])
def test_a_query_walks_the_ideals_once(argv, walks, capsys):
    assert main(argv) == 0
    assert len(walks) == 1


def _counting(monkeypatch, module, name):
    """Record the arguments of each construction of module.name."""
    built = []
    real = getattr(module, name)

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return built


def test_weyl_reads_its_extremes_and_ideals_off_the_coset_table(monkeypatch, capsys):
    # each fibre is a length-sorted list of the table: no closure, no peel of
    # an extreme, no tau per printed element
    calls = [_counting(monkeypatch, weyl, name)
             for name in ("closure_layers", "fiber_extreme", "tau")]
    assert main(["weyl", "B3:es", "--min", "--max", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["minimal"]
    assert calls == [[], [], []]


def test_a_repeated_ideals_query_builds_no_dual_ideal(monkeypatch, capsys):
    assert main(["ideals", "B3:es", "--list", "--poly", "--json"]) == 0
    first = capsys.readouterr().out
    duals = _counting(monkeypatch, ideals, "dual_ideal")
    assert main(["ideals", "B3:es", "--list", "--poly", "--json"]) == 0
    assert capsys.readouterr().out == first
    assert json.loads(first)["self_dual_count"] > 0 and duals == []


@pytest.fixture
def tables(monkeypatch):
    """The (grading,) of each coset table built."""
    return _counting(monkeypatch, weyl, "CosetTable")


@pytest.fixture
def posets(monkeypatch):
    """The (grading, level) of each weight poset built."""
    return _counting(monkeypatch, ideals, "WeightPoset")


@pytest.mark.parametrize("argv", [
    ["ideals", "B3:es", "--list", "--poly", "--json"],
    ["weyl", "B3:es", "--min", "--max", "--json"],
    ["element", "B3:es", "--ideal", "a2", "--json"],
])
def test_a_repeated_query_reuses_its_grading(argv, walks, tables, posets, capsys):
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert posets and len(tables) == (argv[0] == "weyl")
    for seen in (walks, tables, posets):
        seen.clear()
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert walks == tables == posets == []


def test_queries_on_one_spec_share_one_poset(walks, posets, capsys):
    for argv in (["ideals", "B3:es", "--list"], ["weyl", "B3:es", "--min"],
                 ["element", "B3:es", "--ideal", "a2"]):
        assert main(argv) == 0
    assert [level for _, level in posets] == [1] and len(walks) == 1


def test_verify_builds_its_own_gradings(tables, capsys):
    for _ in range(2):
        assert main(["verify", "B3:es", "--suite", "fibers"]) == 0
    (g1,), (g2,) = tables
    assert g1 is not g2


def test_verify_drops_a_types_gradings_once_its_suites_have_run(monkeypatch, capsys):
    # What a sweep's gradings built lives while their type runs, not until
    # the whole run ends.
    seen = {}
    real = checks.SUITES["fibers"].bodies["grading"]

    def body(g):
        gc.collect()
        alive = {t for t, refs in seen.items() if any(r() is not None for r in refs)}
        seen.setdefault(str(g.rs.cartan_type), []).append(weakref.ref(g))
        assert alive <= {str(g.rs.cartan_type)}, alive
        yield from real(g)

    monkeypatch.setitem(checks.SUITES["fibers"].bodies, "grading", body)
    assert main(["verify", "A2", "B2", "G2", "--suite", "fibers"]) == 0
    assert sorted(seen) == ["A2", "B2", "G2"]


POOL = json.loads((Path(__file__).resolve().parents[1] / "bench" / "pool.json").read_text())


@pytest.fixture(scope="module")
def pool_misses():
    """The misses of the peel memo and of the CLI's grading memo over each of
    two passes of the benchmark session's query pool, in process."""
    memos = (weyl._peel, cli._grading)
    out = []
    for _ in range(2):
        before = [m.cache_info().misses for m in memos]
        for argv in POOL:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0, argv
        out.append([m.cache_info().misses - b for m, b in zip(memos, before)])
    return out


def test_a_second_pool_pass_peels_nothing_again(pool_misses):
    assert pool_misses[1][0] == 0


def test_a_second_pool_pass_parses_nothing_again(pool_misses):
    assert len({argv[1] for argv in POOL}) == 72 < cli._grading.cache_parameters()["maxsize"]
    assert pool_misses[1][1] == 0


def test_the_cli_grading_memo_stops_growing_at_its_size():
    size = cli._grading.cache_parameters()["maxsize"]
    for k in range(1, size + 10):
        cli._grading(f"A1:{k}")
    assert cli._grading.cache_info().currsize == size


# The process-wide memos that take no bound, each keyed by a root system that
# build() memoises (or by nothing), so that each grows with the Cartan types
# a process names, not with the gradings, masks or queries it meets.
UNBOUNDED_MEMOS = {
    "rootsys._build": "the memo of root systems itself: one per Cartan type",
    "grading._extra_special_marks": "one mark vector per root system",
    "weyl._longest_element": "per root system and generator tuple, at most 2^rank",
    "weyl._positive_partners": "one table per root system",
    "arrangement.root_poset_down_masks": "one table per root system",
    "arrangement._wall_lanes": "one table per root system",
    "arrangement.char_poly_points": "one count per root system",
    "arrangement.char_poly": "one polynomial per distinct arrangement, which the budget "
                             "on fibre points limits to types of rank <= 5, A6, B6, "
                             "C6 and D6",
    "cli._build_parser": "takes no argument: one parser",
}


def _memos():
    """Every functools memo that a gradus module or one of its classes
    binds, by module and name (`__main__` only runs the CLI)."""
    found = {}
    for info in pkgutil.iter_modules(gradus.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"gradus.{info.name}")
        scopes = [vars(module)] + [vars(c) for c in vars(module).values()
                                   if inspect.isclass(c) and c.__module__ == module.__name__]
        for scope in scopes:
            for name, value in scope.items():
                if hasattr(value, "cache_parameters") and id(value) not in found:
                    found[id(value)] = (f"{info.name}.{name}", value)
    return dict(found.values())


def test_every_process_wide_memo_is_bounded():
    memos = _memos()
    assert {"weyl._peel", "weyl.weyl_elements", "cli._grading"} <= memos.keys()
    unbounded = {name for name, memo in memos.items()
                 if memo.cache_parameters()["maxsize"] is None}
    assert unbounded == UNBOUNDED_MEMOS.keys()
