"""Verification suites.

Every theorem-shaped statement the library relies on is re-derived here by a
second, independent route and compared against the primary implementation:
closures against brute-force bi-convexity scans, fibers against weak-order
intervals, region counts against ideal enumeration, characteristic
polynomials against height partitions, and so on.  Each suite is a generator
of CheckResult rows; the CLI renders them and the test suite asserts on
them.

A suite receives a root system together with the gradings to sweep (all
nonzero standard mark patterns plus the extra-special grading, deduplicated
by marks).  Suites that only concern the root system ignore the gradings.

A row's status is "pass" or "fail" for an asserted check, "skip" for a
check that did not run and "info" for a figure that is reported but not
asserted; only "fail" clears `ok`.  Each suite declares its rank bound once,
when it registers (`@suite("weylcore", max_rank=3)`).  What `SUITES` holds is
the gated suite: above its bound it yields one "skip" row naming the rank and
the bound, and never enters the suite body.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from . import arrangement as arr_mod
from . import ideals as ideals_mod
from . import weyl as weyl_mod
from .grading import Grading, extra_special, grade, parse_grading_spec
from .ideals import Ideal
from .polys import from_int_roots, to_str, value
from .rootsys import _FIXED_RANK, _MIN_RANK, RootSystem, build, dual_partition


@dataclass(frozen=True)
class CheckResult:
    suite: str
    subject: str
    name: str
    ok: bool
    detail: str = ""
    status: str = ""  # "pass" or "fail" from ok unless "skip" or "info"

    def __post_init__(self) -> None:
        if not self.status:
            object.__setattr__(self, "status", "pass" if self.ok else "fail")
        if self.ok != (self.status != "fail"):
            raise ValueError(f"status {self.status!r} contradicts ok={self.ok}")


Suite = Callable[[RootSystem, Sequence[Grading]], Iterator[CheckResult]]
SUITES: dict[str, Suite] = {}


def suite(name: str, max_rank: Optional[int] = None) -> Callable[[Suite], Suite]:
    """Register a suite, gated at max_rank (None: no bound)."""
    def deco(fn: Suite) -> Suite:
        # a generator function like the suites it gates, so that tracing by
        # function kind sees its rows
        def gated(rs: RootSystem, gradings: Sequence[Grading]) -> Iterator[CheckResult]:
            if max_rank is not None and rs.rank > max_rank:
                yield CheckResult(name, str(rs.cartan_type), "sweep", True,
                                  f"rank {rs.rank} exceeds the bound {max_rank}", "skip")
            else:
                yield from fn(rs, gradings)

        gated.max_rank = max_rank  # type: ignore[attr-defined]
        SUITES[name] = gated
        return gated

    return deco


def sweep_gradings(rs: RootSystem) -> list[Grading]:
    """All nonzero standard mark vectors, plus the extra-special grading when
    its marks are not already standard; gradings with empty level 1 are
    dropped (only the rank-1 extra-special case)."""
    out: list[Grading] = []
    seen: set[tuple[int, ...]] = set()
    for marks in iproduct((0, 1), repeat=rs.rank):
        if any(marks):
            out.append(grade(rs, marks))
            seen.add(marks)
    es = extra_special(rs)
    if es.marks not in seen:
        out.append(es)
    return [g for g in out if g.level_mask(1)]


def default_types(max_rank: int) -> list[str]:
    """Every Cartan type of rank <= max_rank, by rank, then family."""
    return [f"{f}{n}" for n in range(1, max_rank + 1) for f in "ABCDEFG"
            if (n >= _MIN_RANK[f] if f in _MIN_RANK else n in _FIXED_RANK[f])]


# Above rank 5, exhaustive grading sweeps stop being desk-sized; the suites
# that enumerate cosets, ideals or arrangements per grading are bounded there.
SWEEP_MAX_RANK = 5


def run(
    targets: Sequence[tuple[RootSystem, Sequence[Grading]]],
    suite_names: Sequence[str] | None = None,
) -> list[CheckResult]:
    names = list(SUITES) if suite_names is None else list(suite_names)
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; known: {', '.join(SUITES)}")
    return [row for rs, gradings in targets for name in names
            for row in SUITES[name](rs, gradings)]


def targets_for(type_names: Sequence[str]) -> list[tuple[RootSystem, list[Grading]]]:
    return [(rs, sweep_gradings(rs)) for rs in map(build, type_names)]


def _sub_ideal_count(p: ideals_mod.WeightPoset, subset: int) -> int:
    """Lower-ideal count of the sub-poset induced on a positive-root mask."""
    down = [d & subset for k, d in zip(p.positive_index, p.down_masks) if subset >> k & 1]
    return sum(1 for _ in ideals_mod.iter_downclosed(down))


# -- root system level ---------------------------------------------------


@suite("rootsys")
def suite_rootsys(rs: RootSystem, gradings: Sequence[Grading]) -> Iterator[CheckResult]:
    sub = str(rs.cartan_type)
    n, h = rs.rank, rs.coxeter_number
    pos = rs.positive_roots

    yield CheckResult(
        "rootsys", sub, "positive-count",
        2 * len(pos) == n * h, f"#roots {len(pos)}, nh/2 {n * h // 2}",
    )
    yield CheckResult(
        "rootsys", sub, "highest-root",
        rs.theta.height == h - 1 and rs.height_counts[-1] == 1,
        f"theta {rs.theta} at height {rs.theta.height}",
    )
    long_pos = sum(1 for r in pos if rs.is_long(r))
    yield CheckResult(
        "rootsys", sub, "long-root-count",
        2 * long_pos == len(rs.long_simple) * h,
        f"2*{long_pos} vs {len(rs.long_simple)}*{h}",
    )
    m = rs.exponents
    yield CheckResult(
        "rootsys", sub, "exponents-from-heights",
        m == tuple(sorted(dual_partition(rs.height_counts)))
        and m[0] == 1 and m[-1] == h - 1 and sum(m) == len(pos),
        f"exponents {m}",
    )
    order = 1
    for e in m:
        order *= e + 1
    yield CheckResult(
        "rootsys", sub, "group-order-two-ways",
        weyl_mod.km_order(rs) == order,
        f"height product {weyl_mod.km_order(rs)}, exponent product {order}",
    )
    bad = [
        str(r)
        for r in pos
        if r.height >= 2
        and not any(
            rs.is_root(tuple(c - s.coords[j] for j, c in enumerate(r.coords)))
            for s in rs.simple_roots
        )
    ]
    yield CheckResult(
        "rootsys", sub, "simple-step-down", not bad, ", ".join(bad),
    )


@suite("threeroot")
def suite_threeroot(rs: RootSystem, gradings: Sequence[Grading]) -> Iterator[CheckResult]:
    sub = str(rs.cartan_type)
    roots = rs.roots()
    npos = len(rs.positive_roots)
    sums = rs.sums
    checked = degenerate = 0
    bad = ""

    def triple(m: int, a: int, b: int) -> str:
        return f"{roots[m]}; {roots[a]}; {roots[b]}"

    # nu1 + nu2 runs over the roots c, and mu over the roots with mu + c one
    for a, row in enumerate(sums):
        for b, c in row.items():
            for m in sums[c]:
                if m == (a + npos) % (2 * npos) or m == (b + npos) % (2 * npos):
                    degenerate += 1
                    try:
                        rs.three_root_witness_index(m, a, b)
                        bad = bad or f"degenerate triple accepted: {triple(m, a, b)}"
                    except ValueError:
                        pass
                    continue
                checked += 1
                try:
                    k = rs.three_root_witness_index(m, a, b)
                except ValueError:
                    bad = bad or f"no witness for {triple(m, a, b)}"
                    continue
                if k not in sums[m]:
                    bad = bad or f"bad witness {roots[k]} for {triple(m, a, b)}"
                elif k != a and a in sums[m]:
                    bad = bad or f"tie not resolved to first choice: {triple(m, a, b)}"
    yield CheckResult(
        "threeroot", sub, "witness-sweep", not bad,
        bad or f"{checked} triples, {degenerate} degenerate rejected",
    )


# -- grading level -------------------------------------------------------


@suite("grading")
def suite_grading(rs: RootSystem, gradings: Sequence[Grading]) -> Iterator[CheckResult]:
    for g in gradings:
        sub = g.spec_string()
        # walk only the levels that occur: marks, and so levels, are unbounded
        total = sum(len(g.slice(i)) for i in set(g.levels) - {0})
        total += sum(1 for r in g.slice(0) if r.is_positive)
        yield CheckResult(
            "grading", sub, "slices-partition-positives",
            total == len(rs.positive_roots), f"{total} vs {len(rs.positive_roots)}",
        )
        npos, lv = len(rs.positive_roots), g.levels
        bad = next(
            (f"level({rs.positive_roots[k]}) != {lv[i] + lv[j]}"
             for i in range(npos) for j, k in rs.sums[i].items()
             if i <= j < npos and lv[i] + lv[j] != lv[k]),
            "",
        )
        yield CheckResult("grading", sub, "level-additive", not bad, bad)
        yield CheckResult(
            "grading", sub, "spec-string-roundtrip",
            parse_grading_spec(g.spec_string()).marks == g.marks, g.spec_string(),
        )
        # Level never falls along a cover of the root poset, so the level-(0,1)
        # normals are an ideal subarrangement: the hypothesis under which ABCHT
        # prove what the counting and charpoly factorisation rows check.
        arr = arr_mod.sub_arrangement_01(g)
        upper = g.ge1_mask & ~g.delta1_mask
        detail = f"{len(arr.normals)} normals"
        try:
            same = arr_mod.ideal_arrangement(rs, upper) == arr
        except ValueError as exc:
            same, detail = False, str(exc)
        yield CheckResult("grading", sub, "level-01-is-ideal-arrangement", same, detail)
        if g.k_standard == 1:
            tilde = g.pi(1)[0]
            yield CheckResult(
                "grading", sub, "abelian-iff-theta-coefficient-one",
                g.is_abelian == (rs.theta.coords[tilde] == 1),
                f"[theta:a{tilde + 1}] = {rs.theta.coords[tilde]}",
            )
        if g.is_standard:
            comps = g.simple_components().get(1, [])
            p = ideals_mod.weight_poset(g, 1)
            minimal = {
                r for r, k, d in zip(p.elements, p.positive_index, p.down_masks)
                if d == 1 << k
            }
            pi1 = {rs.simple_roots[i] for i in g.pi(1)}
            ok = len(comps) == len(pi1) and minimal == pi1
            for comp in comps:
                ok = ok and len(pi1.intersection(comp)) == 1
            yield CheckResult(
                "grading", sub, "level1-components-match-marked-simples",
                ok, f"{len(comps)} components, {len(pi1)} marked simples",
            )


# -- weight poset and ideals ---------------------------------------------


@suite("ideals", max_rank=SWEEP_MAX_RANK)
def suite_ideals(rs: RootSystem, gradings: Sequence[Grading]) -> Iterator[CheckResult]:
    for g in gradings:
        sub = g.spec_string()
        try:
            p = ideals_mod.weight_poset(g, 1)
        except AssertionError as exc:
            yield CheckResult("ideals", sub, "covers-generate-order", False, str(exc))
            continue
        yield CheckResult("ideals", sub, "covers-generate-order", True)

        all_ideals = ideals_mod.enumerate_lower_ideals(p)
        masks = [i.mask for i in all_ideals]

        def bit_word(mask: int) -> tuple[int, ...]:
            return tuple(mask >> k & 1 for k in p.positive_index)

        yield CheckResult(
            "ideals", sub, "enumeration-complete",
            len(set(masks)) == len(masks) and 0 in masks and p.full_mask in masks
            and masks == sorted(masks, key=bit_word),
            f"{len(masks)} ideals",
        )
        mp = ideals_mod.m_polynomial(p)
        anti = ideals_mod.count_antichains(p)
        yield CheckResult(
            "ideals", sub, "count-three-ways",
            value(mp, 1) == len(all_ideals) == anti,
            f"M(1)={value(mp, 1)}, ideals={len(all_ideals)}, antichains={anti}",
        )
        bad = ""
        for ideal in all_ideals:
            a = ideals_mod.max_elements(p, ideal)
            if ideals_mod.lower_ideal_from_antichain(p, a) != ideal:
                bad = f"max-antichain round trip fails at {ideal}"
                break
            b = ideals_mod.min_elements(p, ideal.complement_mask)
            if ideals_mod.upper_ideal_from_antichain(p, b) != ideal.complement_mask:
                bad = f"min-antichain round trip fails at {ideal}"
                break
        yield CheckResult("ideals", sub, "antichain-bijections", not bad, bad)

        bad = ""
        fixed = 0
        for ideal in all_ideals:
            d = ideals_mod.dual_ideal(p, ideal)
            if ideal.size + d.size != p.size:
                bad = f"sizes {ideal.size}+{d.size} != {p.size} at {ideal}"
                break
            if ideals_mod.dual_ideal(p, d) != ideal:
                bad = f"duality not involutive at {ideal}"
                break
            if d == ideal:
                fixed += 1
        yield CheckResult("ideals", sub, "duality-involutive", not bad, bad)
        m_alt = value(mp, -1)
        if g.is_abelian:
            yield CheckResult(
                "ideals", sub, "self-dual-count-is-alternating-sum",
                fixed == m_alt, f"self-dual {fixed}, M(-1) {m_alt}",
            )
        else:
            yield CheckResult(
                "ideals", sub, "self-dual-count-report", True,
                f"self-dual {fixed}, M(-1) {m_alt} (compared, not asserted)", "info",
            )
        if g.is_standard:
            comps = g.simple_components().get(1, [])
            prod = 1
            for comp in comps:
                prod *= _sub_ideal_count(p, sum(1 << rs.index[r.coords] for r in comp))
            yield CheckResult(
                "ideals", sub, "component-product",
                prod == len(all_ideals), f"{prod} vs {len(all_ideals)}",
            )


# -- Weyl group core -----------------------------------------------------


@suite("weylcore", max_rank=3)
def suite_weylcore(rs: RootSystem, gradings: Sequence[Grading]) -> Iterator[CheckResult]:
    sub = str(rs.cartan_type)
    elements = list(weyl_mod.weyl_elements(rs))
    yield CheckResult(
        "weylcore", sub, "group-order",
        len(elements) == weyl_mod.km_order(rs),
        f"{len(elements)} vs {weyl_mod.km_order(rs)}",
    )
    inv_sets = {w.inversion_mask: w for w in elements}
    yield CheckResult(
        "weylcore", sub, "inversion-sets-distinct",
        len(inv_sets) == len(elements), "",
    )
    bad = ""
    for w in elements:
        if len(w.word) != w.length or weyl_mod.from_word(rs, w.word) != w:
            bad = f"word not reduced for mask {w.inversion_mask:b}"
            break
    yield CheckResult("weylcore", sub, "words-reduced", not bad, bad)
    bad = ""
    for mask in range(1 << len(rs.positive_roots)):
        convex = weyl_mod.is_biconvex(rs, mask)
        if convex != (mask in inv_sets):
            bad = f"mask {mask:b}: biconvex {convex}, inversion set {mask in inv_sets}"
            break
        if convex and weyl_mod.element_from_inversions(rs, mask) != inv_sets[mask]:
            bad = f"peeling reconstructs the wrong element at {mask:b}"
            break
    yield CheckResult("weylcore", sub, "inversion-bijection", not bad, bad)
    w0 = weyl_mod.longest_element(rs)
    yield CheckResult(
        "weylcore", sub, "longest-element",
        w0.length == len(rs.positive_roots)
        and all(not w0.apply(a).is_positive for a in rs.simple_roots)
        and w0.length == max(w.length for w in elements),
        f"l(w0) = {w0.length}",
    )


@suite("km", max_rank=SWEEP_MAX_RANK)
def suite_km(rs: RootSystem, gradings: Sequence[Grading]) -> Iterator[CheckResult]:
    lhs = weyl_mod.poincare(w.length for w in weyl_mod.weyl_elements(rs))
    rhs = weyl_mod.km_poly(rs)
    yield CheckResult(
        "km", str(rs.cartan_type), "length-generating-identity",
        lhs == rhs, f"W(t) = {to_str(rhs)}",
    )
    for g in gradings:
        table = weyl_mod.enumerate_W0(g)
        levi = weyl_mod.km_order(rs) / len(table)
        product = weyl_mod.levi_order(g)
        yield CheckResult(
            "km", g.spec_string(), "levi-order-product",
            levi == product, f"#W/#W0 = {levi}, height product {product}",
        )


# -- closures, fibers, minimal and maximal elements ----------------------


@suite("biconvex", max_rank=SWEEP_MAX_RANK)
def suite_biconvex(rs: RootSystem, gradings: Sequence[Grading]) -> Iterator[CheckResult]:
    for g in gradings:
        sub = g.spec_string()
        p = ideals_mod.weight_poset(g, 1)
        bad_layer = bad_convex = ""
        for ideal in ideals_mod.iter_lower_ideals(p):
            layers = weyl_mod.closure_layers(rs, ideal.mask) if ideal.mask else []
            closed = 0
            for k, layer in enumerate(layers, start=1):
                if layer & ~g.level_mask(k):
                    bad_layer = bad_layer or f"{ideal}: layer {k} leaves level {k}"
                elif k >= 1 and layer:
                    pk = ideals_mod.weight_poset(g, k)
                    if not pk.is_lower_mask(layer):
                        bad_layer = bad_layer or f"{ideal}: layer {k} not a lower ideal"
                closed |= layer
            if not weyl_mod.is_biconvex(rs, closed):
                v = weyl_mod.biconvex_violation(rs, closed)
                bad_convex = bad_convex or f"closure of {ideal}: {v}"
            comp = ideal.complement_mask
            upper = g.ge1_mask & ~(weyl_mod.closure_mask(rs, comp) if comp else 0)
            if not weyl_mod.is_biconvex(rs, upper):
                v = weyl_mod.biconvex_violation(rs, upper)
                bad_convex = bad_convex or f"co-closure of {ideal}: {v}"
        yield CheckResult("biconvex", sub, "closure-layers-are-ideals", not bad_layer, bad_layer)
        yield CheckResult("biconvex", sub, "closures-biconvex", not bad_convex, bad_convex)


@suite("fibers", max_rank=SWEEP_MAX_RANK)
def suite_fibers(rs: RootSystem, gradings: Sequence[Grading]) -> Iterator[CheckResult]:
    for g in gradings:
        sub = g.spec_string()
        p = ideals_mod.weight_poset(g, 1)
        table = weyl_mod.enumerate_W0(g)
        bad_tau = bad_interval = bad_length = ""
        seen = 0
        for ideal in ideals_mod.iter_lower_ideals(p):
            lo = weyl_mod.w_min(g, ideal)
            hi = weyl_mod.w_max(g, ideal)
            if weyl_mod.tau(g, lo) != ideal or weyl_mod.tau(g, hi) != ideal:
                bad_tau = bad_tau or f"tau mismatch at {ideal}"
            fib = weyl_mod.fiber(g, ideal)
            seen += len(fib)
            a, b = lo.inversion_mask, hi.inversion_mask
            interval = {
                w for w in table.elements()
                if w.inversion_mask & a == a and w.inversion_mask | b == b
            }
            if interval != set(fib):
                bad_interval = bad_interval or f"fiber of {ideal} is not the interval"
            if fib[0] != lo or fib[-1] != hi:
                bad_length = bad_length or f"endpoints of {ideal} out of place"
            if len(fib) > 1 and (fib[0].length == fib[1].length
                                 or fib[-1].length == fib[-2].length):
                bad_length = bad_length or f"extremes not unique at {ideal}"
        yield CheckResult("fibers", sub, "min-max-hit-the-ideal", not bad_tau, bad_tau)
        yield CheckResult("fibers", sub, "fiber-is-weak-interval", not bad_interval, bad_interval)
        yield CheckResult("fibers", sub, "extremes-unique", not bad_length, bad_length)
        yield CheckResult(
            "fibers", sub, "fibers-partition",
            seen == len(table), f"{seen} vs {len(table)}",
        )


@suite("minmax", max_rank=SWEEP_MAX_RANK)
def suite_minmax(rs: RootSystem, gradings: Sequence[Grading]) -> Iterator[CheckResult]:
    for g in gradings:
        sub = g.spec_string()
        table = weyl_mod.enumerate_W0(g)
        count = ideals_mod.count_lower_ideals(ideals_mod.weight_poset(g, 1))
        by_def_min = set(weyl_mod.W0_min(g))
        by_def_max = set(weyl_mod.W0_max(g))
        yield CheckResult(
            "minmax", sub, "min-characterisation",
            by_def_min == table.minimal and len(by_def_min) == count,
            f"{len(by_def_min)} minimal vs {len(table.minimal)} by levels",
        )
        yield CheckResult(
            "minmax", sub, "max-characterisation",
            by_def_max == table.maximal and len(by_def_max) == count,
            f"{len(by_def_max)} maximal vs {len(table.maximal)} by levels",
        )
        mp = ideals_mod.m_polynomial(ideals_mod.weight_poset(g, 1))
        tau_min = weyl_mod.poincare(
            len(weyl_mod.tau(g, w).roots()) for w in by_def_min
        )
        tau_max = weyl_mod.poincare(
            len(weyl_mod.tau(g, w).roots()) for w in by_def_max
        )
        yield CheckResult(
            "minmax", sub, "ideal-polynomial-from-extremes",
            mp == tau_min == tau_max, f"M(t) = {to_str(mp)}",
        )
        if g.is_abelian:
            yield CheckResult(
                "minmax", sub, "abelian-all-extreme",
                by_def_min == by_def_max == set(table.elements()), "",
            )
        else:
            pmin = weyl_mod.poincare(w.length for w in by_def_min)
            pmax = weyl_mod.poincare(w.length for w in by_def_max)
            whole = set(table.elements())
            if g.is_standard or g.is_extra_special:
                yield CheckResult(
                    "minmax", sub, "nonabelian-proper-distinct",
                    by_def_min != by_def_max and by_def_min < whole and by_def_max < whole
                    and len({mp, pmin, pmax}) == 3,
                    "",
                )
            else:  # Delta(2) may be empty below a higher level: M(t) = P_min(t) on A2:3,1
                yield CheckResult("minmax", sub, "nonabelian-proper-distinct", True,
                                  "asserted for standard and extra-special gradings only", "skip")
            union = by_def_min | by_def_max
            if g.is_extra_special:
                yield CheckResult(
                    "minmax", sub, "extraspecial-union-covers",
                    union == whole, f"{len(union)} vs {len(whole)}",
                )
            else:
                yield CheckResult(
                    "minmax", sub, "middle-elements-exist",
                    union != whole, f"{len(union)} vs {len(whole)}",
                )


@suite("involution", max_rank=SWEEP_MAX_RANK)
def suite_involution(rs: RootSystem, gradings: Sequence[Grading]) -> Iterator[CheckResult]:
    for g in gradings:
        sub = g.spec_string()
        table = weyl_mod.enumerate_W0(g)
        p = ideals_mod.weight_poset(g, 1)
        wt0 = weyl_mod.longest_element(rs, g.pi0)
        ok_levels = all(
            g.level(wt0.apply(r)) == g.levels[j]
            for j, r in enumerate(rs.positive_roots)
        ) and all(not wt0.apply(r).is_positive for r in rs.roots_of(g.delta0_mask))
        yield CheckResult(
            "involution", sub, "parabolic-longest-fixes-levels", ok_levels, "",
        )
        image = {w: weyl_mod.involution(g, w) for w in table.elements()}
        ideal_of = {w: weyl_mod.tau(g, w) for w in table.elements()}
        bad = ""
        fixed = 0
        for w, iw in image.items():
            if iw not in image:
                bad = bad or f"image of {w} leaves the coset set"
                continue
            if image[iw] != w:
                bad = bad or f"not involutive at {w}"
            if ideal_of[iw] != ideals_mod.dual_ideal(p, ideal_of[w]):
                bad = bad or f"dual ideal mismatch at {w}"
            if (w in table.minimal) != (iw in table.maximal):
                bad = bad or f"minimal flag not swapped at {w}"
            if iw == w:
                fixed += 1
        yield CheckResult("involution", sub, "involution-swaps-duality", not bad, bad)
        bad = ""
        for ideal in ideals_mod.iter_lower_ideals(p):
            lhs = weyl_mod.involution(g, weyl_mod.w_min(g, ideal))
            if lhs != weyl_mod.w_max(g, ideals_mod.dual_ideal(p, ideal)):
                bad = f"min/max exchange fails at {ideal}"
                break
        yield CheckResult("involution", sub, "min-to-max-of-dual", not bad, bad)
        if g.is_abelian:
            w0poly = weyl_mod.poincare(w.length for w in table.elements())
            yield CheckResult(
                "involution", sub, "fixed-points-alternating-sum",
                fixed == value(w0poly, -1),
                f"fixed {fixed}, W0(-1) {value(w0poly, -1)}",
            )


@suite("extreme", max_rank=SWEEP_MAX_RANK)
def suite_extreme(rs: RootSystem, gradings: Sequence[Grading]) -> Iterator[CheckResult]:
    for g in gradings:
        sub = g.spec_string()
        p = ideals_mod.weight_poset(g, 1)
        bad = ""
        for ideal in ideals_mod.iter_lower_ideals(p):
            if weyl_mod.max_roots(g, ideal) != ideals_mod.max_elements(p, ideal):
                bad = f"maximal roots disagree at {ideal}"
                break
            if weyl_mod.min_complement_roots(g, ideal) != ideals_mod.min_elements(
                p, ideal.complement_mask
            ):
                bad = f"minimal complement roots disagree at {ideal}"
                break
        yield CheckResult("extreme", sub, "extreme-roots-match-poset", not bad, bad)


@suite("eta", max_rank=SWEEP_MAX_RANK)
def suite_eta(rs: RootSystem, gradings: Sequence[Grading]) -> Iterator[CheckResult]:
    for g in gradings:
        if g.k_standard != 1:
            continue
        sub = g.spec_string()
        table = weyl_mod.enumerate_W0(g)
        vectors = [weyl_mod.eta(g, w) for w in table.elements()]
        yield CheckResult(
            "eta", sub, "eta-injective",
            len(set(vectors)) == len(vectors), f"{len(vectors)} elements",
        )
        yield CheckResult(
            "eta", sub, "eta-of-identity",
            vectors[0] == g.marks, f"{vectors[0]}",
        )
        min_image = {weyl_mod.eta(g, w) for w in weyl_mod.W0_min(g)}
        max_image = {weyl_mod.eta(g, w) for w in weyl_mod.W0_max(g)}
        yield CheckResult(
            "eta", sub, "eta-image-cutoffs",
            min_image == {v for v in vectors if min(v) >= -1}
            and max_image == {v for v in vectors if max(v) <= 1},
            "",
        )
        if g.is_abelian:
            yield CheckResult(
                "eta", sub, "abelian-eta-small",
                all(set(v) <= {-1, 0, 1} for v in vectors), "",
            )


@suite("classes", max_rank=SWEEP_MAX_RANK)
def suite_classes(rs: RootSystem, gradings: Sequence[Grading]) -> Iterator[CheckResult]:
    h = rs.coxeter_number
    for g in gradings:
        sub = g.spec_string()
        table = weyl_mod.enumerate_W0(g)
        p = ideals_mod.weight_poset(g, 1)
        count = ideals_mod.count_lower_ideals(p)
        if g.is_abelian:
            index = weyl_mod.km_order(rs) / weyl_mod.levi_order(g)
            yield CheckResult(
                "classes", sub, "abelian-counts",
                count == len(table) == index,
                f"ideals {count}, cosets {len(table)}, index {index}",
            )
            yield CheckResult(
                "classes", sub, "abelian-poincare-is-ideal-polynomial",
                weyl_mod.poincare(w.length for w in table.elements())
                == ideals_mod.m_polynomial(p),
                "",
            )
        if g.is_extra_special:
            long_roots = 2 * sum(1 for r in rs.positive_roots if rs.is_long(r))
            npl = len(rs.long_simple)
            yield CheckResult(
                "classes", sub, "extraspecial-coset-count",
                len(table) == long_roots == npl * h,
                f"#W0 {len(table)}, long roots {long_roots}, {npl}*{h}",
            )
            yield CheckResult(
                "classes", sub, "extraspecial-ideal-count",
                count == npl * (h - 1), f"{count} vs {npl}*{h - 1}",
            )
            theta = rs.theta
            simples = set(rs.simple_roots)
            bad = ""
            for w in table.elements():
                img = w.apply(theta)
                if (w in table.minimal) != (-img not in simples):
                    bad = f"minimal test fails at {w}"
                    break
                if (w in table.maximal) != (img not in simples):
                    bad = f"maximal test fails at {w}"
                    break
            yield CheckResult(
                "classes", sub, "extraspecial-theta-test", not bad, bad,
            )


# -- arrangements --------------------------------------------------------


@suite("regions", max_rank=SWEEP_MAX_RANK)
def suite_regions(rs: RootSystem, gradings: Sequence[Grading]) -> Iterator[CheckResult]:
    for g in gradings:
        sub = g.spec_string()
        p = ideals_mod.weight_poset(g, 1)
        regions = arr_mod.regions_in_dominant_chamber(g)
        ideal_masks = {i.mask for i in ideals_mod.iter_lower_ideals(p)}
        yield CheckResult(
            "regions", sub, "region-ideal-bijection",
            {r.ideal.mask for r in regions} == ideal_masks
            and len(regions) == len(ideal_masks),
            f"{len(regions)} regions, {len(ideal_masks)} ideals",
        )
        bad = ""
        total = 0
        for r in regions:
            total += len(r.chambers)
            if r.chambers[0] != weyl_mod.w_min(g, r.ideal):
                bad = bad or f"closest chamber of {r.ideal} is not the minimal element"
            if r.chambers[-1] != weyl_mod.w_max(g, r.ideal):
                bad = bad or f"farthest chamber of {r.ideal} is not the maximal element"
        yield CheckResult("regions", sub, "closest-farthest", not bad, bad)
        yield CheckResult(
            "regions", sub, "chambers-partition",
            total == len(weyl_mod.enumerate_W0(g)), f"{total} chambers",
        )
        chambers = [w for r in regions for w in r.chambers]
        signs = arr_mod.geometric_signs(g, chambers, rs.positive_roots)
        walls = (signs < 0).sum(axis=1)
        bad = next(
            (f"wall distance of {w} differs from its length"
             for w, d in zip(chambers, walls) if d != w.length),
            "",
        )
        yield CheckResult("regions", sub, "distance-is-length", not bad, bad)


def _sign_mismatch(
    rs: RootSystem, elements: Sequence[weyl_mod.WeylElement], normals: Sequence,
    signs: np.ndarray,
) -> Optional[tuple[int, int]]:
    """The first (element, normal) position, row by row, where a negative
    sign disagrees with membership in the element's inversion set."""
    width = (len(rs.positive_roots) + 7) // 8
    raw = b"".join(w.inversion_mask.to_bytes(width, "little") for w in elements)
    bits = np.unpackbits(
        np.frombuffer(raw, dtype=np.uint8).reshape(len(elements), width),
        axis=1, bitorder="little",
    )
    columns = [rs.index[gamma.coords] for gamma in normals]
    wrong = np.argwhere((signs < 0) != bits[:, columns].astype(bool))
    return (int(wrong[0][0]), int(wrong[0][1])) if len(wrong) else None


@suite("signs", max_rank=SWEEP_MAX_RANK)
def suite_signs(rs: RootSystem, gradings: Sequence[Grading]) -> Iterator[CheckResult]:
    if gradings:
        normals = rs.positive_roots
        elements = weyl_mod.weyl_elements(rs)
        signs = arr_mod.geometric_signs(gradings[0], elements, normals)
        at = _sign_mismatch(rs, elements, normals, signs)
        bad = ""
        if at is not None:
            w, gamma, s = elements[at[0]], normals[at[1]], int(signs[at])
            bad = f"{w} at {gamma}: sign {s}, inversion {s > 0}"
        yield CheckResult("signs", str(rs.cartan_type), "oracle-matches-inversions",
                          not bad, bad)
    for g in gradings:
        normals = arr_mod.sub_arrangement_01(g).normals
        elements = weyl_mod.enumerate_W0(g).elements()
        at = _sign_mismatch(rs, elements, normals,
                            arr_mod.geometric_signs(g, elements, normals))
        bad = "" if at is None else f"{elements[at[0]]} at {normals[at[1]]}"
        yield CheckResult(
            "signs", g.spec_string(), "coset-signs-match-inversions", not bad, bad,
        )


@suite("counting", max_rank=SWEEP_MAX_RANK)
def suite_counting(rs: RootSystem, gradings: Sequence[Grading]) -> Iterator[CheckResult]:
    for g in gradings:
        count = ideals_mod.count_lower_ideals(ideals_mod.weight_poset(g, 1))
        formula = arr_mod.ideal_count_formula(g)
        yield CheckResult(
            "counting", g.spec_string(), "height-product-formula",
            formula == count, f"product {formula}, enumeration {count}",
        )


@suite("charpoly", max_rank=SWEEP_MAX_RANK)
def suite_charpoly(rs: RootSystem, gradings: Sequence[Grading]) -> Iterator[CheckResult]:
    sub = str(rs.cartan_type)
    full = arr_mod.coxeter_arrangement(rs)
    deleted = arr_mod.deleted_arrangement(rs)
    chi_full = arr_mod.char_poly(full)
    yield CheckResult(
        "charpoly", sub, "coxeter-factorisation",
        chi_full == from_int_roots(rs.exponents),
        f"chi = {to_str(chi_full)}",
    )
    m = rs.exponents
    chi_del = arr_mod.char_poly(deleted)
    expect = from_int_roots(list(m[:-1]) + [m[-1] - 1])
    yield CheckResult(
        "charpoly", sub, "deleted-factorisation",
        chi_del == expect, f"chi = {to_str(chi_del)}",
    )
    for g in gradings:
        gsub = g.spec_string()
        arr = arr_mod.sub_arrangement_01(g)
        if g.is_abelian:
            yield CheckResult(
                "charpoly", gsub, "abelian-uses-all-walls",
                arr == full, "",
            )
        if g.is_extra_special:
            yield CheckResult(
                "charpoly", gsub, "extraspecial-drops-highest-wall",
                arr == deleted, "",
            )
        chi = arr_mod.char_poly(arr)
        count = ideals_mod.count_lower_ideals(ideals_mod.weight_poset(g, 1))
        levi = weyl_mod.levi_order(g)
        yield CheckResult(
            "charpoly", gsub, "region-count-two-ways",
            arr_mod.zaslavsky_regions(chi) == levi * count,
            f"regions {arr_mod.zaslavsky_regions(chi)}, {levi}*{count}",
        )
        b = arr_mod.conjectural_exponents(g)
        yield CheckResult(
            "charpoly", gsub, "dual-partition-factorisation",
            chi == from_int_roots(b), f"chi = {to_str(chi)}, predicted roots {b}",
        )


@suite("appendix", max_rank=SWEEP_MAX_RANK)
def suite_appendix(rs: RootSystem, gradings: Sequence[Grading]) -> Iterator[CheckResult]:
    sub = str(rs.cartan_type)
    report = arr_mod.upper_ideal_partition_check(rs)
    yield CheckResult(
        "appendix", sub, "complement-heights-partition",
        report["ok"], f"{report['upper_ideals']} upper ideals"
        + (f", violations {report['violations']}" if report["violations"] else ""),
    )
    yield CheckResult(
        "appendix", sub, "upper-ideal-count",
        report["upper_ideals"] == arr_mod.catalan(rs),
        f"{report['upper_ideals']} vs {arr_mod.catalan(rs)}",
    )


# -- the rank-7 worked example -------------------------------------------


def e7_paper_grading() -> Grading:
    """The grading of E7 singled out in rank 7: node 2 marked, so level 0 is
    the chain A6 of the other six nodes, with 21 positive roots at level 0
    and 35 at level 1."""
    g = parse_grading_spec("E7:0,1,0,0,0,0,0")
    assert g.delta0_mask.bit_count() == 21 and g.delta1_mask.bit_count() == 35
    return g


def e7_example_report() -> dict:
    """Counts and partitions for the rank-7 example, with every number
    derived twice where a second route exists: the arrangement report (no
    chi, whose point counts are over the budget) with the level sizes and
    the antichain count."""
    g = e7_paper_grading()
    return arr_mod.arrangement_report(g) | {
        "positive_level_sizes": [
            g.level_mask(i).bit_count() for i in range(0, g.max_level + 1)
        ],
        "antichain_count": ideals_mod.count_antichains(ideals_mod.weight_poset(g, 1)),
        "stated_count_in_source": 252,
    }


@suite("e7")
def suite_e7(rs: RootSystem, gradings: Sequence[Grading]) -> Iterator[CheckResult]:
    if str(rs.cartan_type) != "E7":
        return
    rep = e7_example_report()
    sub = rep["grading"]
    yield CheckResult(
        "e7", sub, "height-partition",
        rep["partition"] == [7, 6, 6, 6, 6, 5, 5, 4, 4, 3, 2, 1, 1]
        and rep["dual_partition"] == [13, 11, 10, 9, 7, 5, 1],
        f"partition {rep['partition']}, dual {rep['dual_partition']}",
    )
    consistent = (
        rep["ideal_count"] == rep["antichain_count"] == rep["region_count"]
        and Fraction(rep["formula_value"]) == rep["ideal_count"]
    )
    yield CheckResult(
        "e7", sub, "counts-internally-consistent",
        consistent,
        f"ideals {rep['ideal_count']}, antichains {rep['antichain_count']}, "
        f"regions {rep['region_count']}, formula {rep['formula_value']}",
    )
    yield CheckResult(
        "e7", sub, "stated-count-verdict", True,
        f"direct enumeration {rep['ideal_count']} vs {rep['stated_count_in_source']} "
        "quoted in the source example (reported, not asserted)", "info",
    )
