"""Verification suites.

Every theorem-shaped statement the library relies on is re-derived here by a
second, independent route and compared against the primary implementation:
closures against brute-force bi-convexity scans, each fiber of the coset
table against the weak-order interval of its extremes (reading each coset
once), the walls of each chamber (from an interior point) against the
inversion set of its element, the regions (the fibers again, one per
level-1 sign pattern) against ideal enumeration, characteristic polynomials
against height partitions, and so on.  A set of positive roots is a
positive-root mask on both routes, so two sets are compared by one XOR.
Each suite is a generator of CheckResult rows; the CLI renders them and the
test suite asserts on them.

A suite runs on a root system together with the gradings to sweep (all
nonzero standard mark patterns plus the extra-special grading, deduplicated
by marks).  It registers at most two bodies: one over the root system and
one over a single grading.  A body yields (name, ok, detail[, status])
tuples and nothing else; the gate of the suite walks the gradings and makes
each tuple a CheckResult whose suite is the registered name and whose
subject is the type (`B3`) or the grading (`B3:0,1,0`) the body ran on.

A row's status is "pass" or "fail" for an asserted check, "skip" for a
check that did not run and "info" for a figure that is reported but not
asserted; only "fail" clears `ok`.  What `SUITES` holds is the gate.  It
turns a raise in a body into one row about that body's subject and goes on
with the next grading, so one fault cannot hide the other verdicts of a run:
a budget refusal (rootsys.BudgetExceeded) is a "skip" row named "budget"
that names the size and the budget, and any other exception a "fail" row
named "raised".  A call over several gradings is also refused by the sum
over them of what its grading body walks, if it declares that unit
(`@suite("fibers", size="cosets")`): then the gate runs the type body alone,
yields one "budget" row about the type naming the sum and the number of
gradings, and never enters the grading body.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from operator import attrgetter
from typing import Callable, Iterator, Optional, Sequence

from . import arrangement as arr_mod
from . import ideals as ideals_mod
from . import weyl as weyl_mod
from .grading import Grading, extra_special, grade, parse_grading_spec
from .ideals import Ideal
from .polys import from_int_roots, to_str, value
from .rootsys import BudgetExceeded, RootSystem, build, cartan_types, check_budget


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


Row = tuple  # (name, ok, detail) or (name, ok, detail, status)
Body = Callable[..., Iterator[Row]]  # over a RootSystem or over one Grading
Suite = Callable[[RootSystem, Sequence[Grading]], Iterator[CheckResult]]
SUITES: dict[str, Suite] = {}


# The units a grading body may declare, each counted once per grading as its
# walk is refused by; charpoly declares none, as summed fibre points would
# refuse B5 (63,860 over its 31 gradings).
SIZES = {"cosets": attrgetter("coset_count"), "lower ideals": attrgetter("ideal_count")}


def suite(name: str, per: str = "grading",
          size: Optional[str] = None) -> Callable[[Body], Body]:
    """Register a body of the suite `name`: per="type" runs once on the root
    system, per="grading" on each grading after it.  A grading body that
    walks cosets or lower ideals declares that unit of SIZES; a type body,
    run once, declares nothing."""
    if per not in ("type", "grading") or size is not None and (per == "type" or size not in SIZES):
        raise ValueError(f"suite {name!r}: no {per} body of size {size!r}")

    def deco(body: Body) -> Body:
        gated = SUITES.setdefault(name, _gate(name))
        if per in gated.bodies:
            raise ValueError(f"suite {name!r}: a second {per} body")
        gated.bodies[per] = body
        if per == "grading":
            gated.size = size
        return body

    return deco


def _gate(name: str) -> Suite:
    # a generator function like the bodies it gates, so that tracing by
    # function kind sees its rows
    def gated(rs: RootSystem, gradings: Sequence[Grading]) -> Iterator[CheckResult]:
        bodies, size, over = gated.bodies, gated.size, None
        try:  # a single grading meets the refusal of its own walk
            if size is not None and len(gradings) > 1:
                check_budget(int(sum(map(SIZES[size], gradings))),
                             f"{size} over {len(gradings):,} gradings of {rs.cartan_type}")
        except BudgetExceeded as exc:
            over = exc
        runs = [(str(rs.cartan_type), bodies["type"], rs)] if "type" in bodies else []
        if "grading" in bodies and over is None:
            runs += [(g.spec_string(), bodies["grading"], g) for g in gradings]
        for sub, body, on in runs:
            try:
                for row in body(on):
                    yield CheckResult(name, sub, *row)
            except BudgetExceeded as exc:
                yield CheckResult(name, sub, "budget", True, str(exc), "skip")
            except Exception as exc:
                yield CheckResult(name, sub, "raised", False, f"{type(exc).__name__}: {exc}")
        if over is not None:
            yield CheckResult(name, str(rs.cartan_type), "budget", True, str(over), "skip")

    gated.bodies, gated.size = {}, None  # type: ignore[attr-defined]
    return gated


def sweep_gradings(rs: RootSystem) -> list[Grading]:
    """All nonzero standard mark vectors, plus the extra-special grading when
    its marks are not standard and its level 1 is not empty (empty only in
    rank 1; a standard grading always has a level-1 simple root), so only
    that grading computes its levels here.  Refused before the first grading
    is built when the 2^n - 1 standard ones exceed the budget."""
    check_budget(2 ** rs.rank - 1, f"gradings of {rs.cartan_type}")
    out = [grade(rs, marks) for marks in iproduct((0, 1), repeat=rs.rank) if any(marks)]
    es = extra_special(rs)
    if not es.is_standard and es.level_mask(1):
        out.append(es)
    return out


default_types = cartan_types  # the types `verify --all` sweeps up to --max-rank


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


def targets_for(scope: Sequence[str]) -> list[tuple[RootSystem, list[Grading]]]:
    """One target per root system, in the order first named: a type ("B3")
    adds every grading of its sweep, a spec ("B3:0,1,0") adds one grading,
    and a grading named twice runs once.  A named grading whose level 1 is
    empty is refused by its weight poset, as every graded command refuses
    it.  Every token is resolved before any sweep is built, and the sweeps
    are built from the highest rank down, so a sweep over the budget is
    refused before a smaller one is built."""
    named: list[tuple[RootSystem, Optional[list[Grading]]]] = []
    for token in scope:
        if ":" in token:
            g = parse_grading_spec(token)
            ideals_mod.weight_poset(g, 1)
            named.append((g.rs, [g]))
        else:
            named.append((build(token), None))
    types = dict.fromkeys(rs for rs, gradings in named if gradings is None)
    sweeps = {rs: sweep_gradings(rs) for rs in sorted(types, key=lambda rs: -rs.rank)}
    targets: dict[RootSystem, dict[tuple[int, ...], Grading]] = {}
    for rs, gradings in named:
        by_marks = targets.setdefault(rs, {})
        for g in sweeps[rs] if gradings is None else gradings:
            by_marks.setdefault(g.marks, g)
    return [(rs, list(by_marks.values())) for rs, by_marks in targets.items()]


def _sub_ideal_count(p: ideals_mod.WeightPoset, subset: int) -> int:
    """Lower-ideal count of the sub-poset induced on a positive-root mask."""
    down = [d & subset for k, d in zip(p.positive_index, p.down_masks) if subset >> k & 1]
    return sum(1 for _ in ideals_mod.iter_downclosed(down))


# -- root system level ---------------------------------------------------

_EXCEPTIONAL_EXPONENTS = {
    ("E", 6): (1, 4, 5, 7, 8, 11),
    ("E", 7): (1, 5, 7, 9, 11, 13, 17),
    ("E", 8): (1, 7, 11, 13, 17, 19, 23, 29),
    ("F", 4): (1, 5, 7, 11),
    ("G", 2): (1, 5),
}


def classified_exponents(rs: RootSystem) -> tuple[int, ...]:
    """The exponents of the type as the classification lists them (Bourbaki,
    Lie VI, planches), independent of the height partition they are read
    from in RootSystem.exponents."""
    fam, n = rs.cartan_type.family, rs.cartan_type.rank
    if fam == "A":
        return tuple(range(1, n + 1))
    if fam in "BC":
        return tuple(range(1, 2 * n, 2))
    if fam == "D":
        return tuple(sorted([*range(1, 2 * n - 2, 2), n - 1]))
    return _EXCEPTIONAL_EXPONENTS[fam, n]


@suite("rootsys", per="type")
def suite_rootsys(rs: RootSystem) -> Iterator[Row]:
    n, h = rs.rank, rs.coxeter_number
    pos = rs.positive_roots

    yield "positive-count", 2 * len(pos) == n * h, f"#roots {len(pos)}, nh/2 {n * h // 2}"
    long_pos = rs.long_mask.bit_count()
    yield (
        "long-root-count",
        2 * long_pos == len(rs.long_simple) * h,
        f"2*{long_pos} vs {len(rs.long_simple)}*{h}",
    )
    m = rs.exponents
    yield "exponents-from-heights", m == classified_exponents(rs), f"exponents {m}"
    # the exponent product from the classification, not from the height
    # partition that km_order is a product over
    order = 1
    for e in classified_exponents(rs):
        order *= e + 1
    yield (
        "group-order-two-ways",
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
    yield "simple-step-down", not bad, ", ".join(bad)


@suite("threeroot", per="type")
def suite_threeroot(rs: RootSystem) -> Iterator[Row]:
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
    yield "witness-sweep", not bad, bad or f"{checked} triples, {degenerate} degenerate rejected"


# -- grading level -------------------------------------------------------


@suite("grading")
def suite_grading(g: Grading) -> Iterator[Row]:
    rs = g.rs
    npos, lv = len(rs.positive_roots), g.levels
    bad = next(
        (f"level({rs.positive_roots[k]}) != {lv[i] + lv[j]}"
         for i in range(npos) for j, k in rs.sums[i].items()
         if i <= j < npos and lv[i] + lv[j] != lv[k]),
        "",
    )
    yield "level-additive", not bad, bad
    yield (
        "spec-string-roundtrip",
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
    yield "level-01-is-ideal-arrangement", same, detail
    if g.k_standard == 1:
        tilde = g.pi(1)[0]
        yield (
            "abelian-iff-theta-coefficient-one",
            g.is_abelian == (rs.theta.coords[tilde] == 1),
            f"[theta:a{tilde + 1}] = {rs.theta.coords[tilde]}",
        )
    if g.is_standard:
        p = ideals_mod.weight_poset(g, 1)
        comps = p.components
        minimal = sum(1 << k for k, d in zip(p.positive_index, p.down_masks) if d == 1 << k)
        pi1 = g.pi(1)
        pi1_mask = sum(1 << rs.simple_indices[i] for i in pi1)
        ok = len(comps) == len(pi1) and minimal == pi1_mask
        ok = ok and all((comp & pi1_mask).bit_count() == 1 for comp in comps)
        yield (
            "level1-components-match-marked-simples",
            ok, f"{len(comps)} components, {len(pi1)} marked simples",
        )


# -- weight poset and ideals ---------------------------------------------


@suite("ideals", size="lower ideals")
def suite_ideals(g: Grading) -> Iterator[Row]:
    # the poset checks its cover closure against the arithmetic order as it
    # is built, and raises where they disagree
    p = ideals_mod.weight_poset(g, 1)
    all_ideals = p.lower_ideals
    masks = [i.mask for i in all_ideals]

    def bit_word(mask: int) -> tuple[int, ...]:
        return tuple(mask >> k & 1 for k in p.positive_index)

    yield (
        "enumeration-complete",
        len(set(masks)) == len(masks) and 0 in masks and p.full_mask in masks
        and masks == sorted(masks, key=bit_word),
        f"{len(masks)} ideals",
    )
    mp = ideals_mod.m_polynomial(p)
    anti = ideals_mod.count_antichains(p)
    yield (
        "count-three-ways",
        len(all_ideals) == anti,
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
    yield "antichain-bijections", not bad, bad

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
    yield "duality-involutive", not bad, bad
    m_alt = value(mp, -1)
    if g.is_abelian:
        yield (
            "self-dual-count-is-alternating-sum",
            fixed == m_alt, f"self-dual {fixed}, M(-1) {m_alt}",
        )
    else:
        yield (
            "self-dual-count-report", True,
            f"self-dual {fixed}, M(-1) {m_alt} (compared, not asserted)", "info",
        )
    if g.is_standard and len(p.components) > 1:
        prod = 1
        for comp in p.components:
            prod *= _sub_ideal_count(p, comp)
        yield "component-product", prod == len(all_ideals), f"{prod} vs {len(all_ideals)}"


# -- Weyl group core -----------------------------------------------------


@suite("weylcore", per="type")
def suite_weylcore(rs: RootSystem) -> Iterator[Row]:
    check_budget(2 ** len(rs.positive_roots), f"positive-root masks of {rs.cartan_type}")
    elements = weyl_mod.weyl_elements(rs)
    inv_sets = {w.inversion_mask: w for w in elements}
    bad = ""
    for w in elements:
        if len(w.word) != w.length or weyl_mod.from_word(rs, w.word) != w:
            bad = f"word not reduced for mask {w.inversion_mask:b}"
            break
    yield "words-reduced", not bad, bad
    bad = ""
    for mask in range(1 << len(rs.positive_roots)):
        convex = weyl_mod.is_biconvex(rs, mask)
        if convex != (mask in inv_sets):
            bad = f"mask {mask:b}: biconvex {convex}, inversion set {mask in inv_sets}"
            break
        if convex and weyl_mod.element_from_inversions(rs, mask) != inv_sets[mask]:
            bad = f"peeling reconstructs the wrong element at {mask:b}"
            break
    yield "inversion-bijection", not bad, bad
    w0 = weyl_mod.longest_element(rs)
    yield (
        "longest-element",
        w0.length == len(rs.positive_roots)
        and all(not w0.apply(a).is_positive for a in rs.simple_roots)
        and w0.length == max(w.length for w in elements),
        f"l(w0) = {w0.length}",
    )


@suite("km", per="type")
def suite_km_of_type(rs: RootSystem) -> Iterator[Row]:
    lhs = weyl_mod.poincare(w.length for w in weyl_mod.weyl_elements(rs))
    rhs = weyl_mod.km_poly(rs)
    yield "length-generating-identity", lhs == rhs, f"W(t) = {to_str(rhs)}"


@suite("km", size="cosets")
def suite_km(g: Grading) -> Iterator[Row]:
    # W0 by its definition, N(w) avoiding level 0: the coset table is built
    # to the order formula and raises where it fails
    elements = weyl_mod.weyl_elements(g.rs)
    delta0 = g.delta0_mask
    cosets = sum(1 for w in elements if not w.inversion_mask & delta0)
    levi = Fraction(len(elements), cosets)
    product = weyl_mod.levi_order(g)
    yield "levi-order-product", levi == product, f"#W/#W0 = {levi}, height product {product}"


# -- closures, fibers, minimal and maximal elements ----------------------


@suite("biconvex", size="lower ideals")
def suite_biconvex(g: Grading) -> Iterator[Row]:
    rs = g.rs
    p = ideals_mod.weight_poset(g, 1)
    bad_layer = bad_convex = ""
    for ideal in p.lower_ideals:
        layers = weyl_mod.closure_layers(rs, ideal.mask) if ideal.mask else []
        closed = 0
        for k, layer in enumerate(layers, start=1):
            if layer & ~g.level_mask(k):
                bad_layer = bad_layer or f"{ideal}: layer {k} leaves level {k}"
            elif layer:
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
    yield "closure-layers-are-ideals", not bad_layer, bad_layer
    yield "closures-biconvex", not bad_convex, bad_convex


@suite("fibers", size="cosets")
def suite_fibers(g: Grading) -> Iterator[Row]:
    p = ideals_mod.weight_poset(g, 1)
    table = weyl_mod.enumerate_W0(g)
    bad_tau = bad_interval = bad_length = ""
    seen = 0
    for ideal in p.lower_ideals:
        lo = weyl_mod.w_min(g, ideal)
        hi = weyl_mod.w_max(g, ideal)
        if weyl_mod.tau(g, lo) != ideal or weyl_mod.tau(g, hi) != ideal:
            bad_tau = bad_tau or f"tau mismatch at {ideal}"
        fib = table.by_tau.get(ideal.mask, [])
        seen += len(fib)
        # Every mask between N(w_min) and N(w_max) has the level-1 part of
        # both, the ideal, once min-max-hit-the-ideal holds, so every coset
        # of the interval is in the fiber: the fiber is the interval exactly
        # when it is nonempty and inside it.
        a, b = lo.inversion_mask, hi.inversion_mask
        if not fib or any(m & a != a or m | b != b for m in (w.inversion_mask for w in fib)):
            bad_interval = bad_interval or f"fiber of {ideal} is not the interval"
        # that the ends are w_min and w_max is the closest-farthest row of
        # the regions suite
        if len(fib) > 1 and (fib[0].length == fib[1].length
                             or fib[-1].length == fib[-2].length):
            bad_length = bad_length or f"extremes not unique at {ideal}"
    yield "min-max-hit-the-ideal", not bad_tau, bad_tau
    yield "fiber-is-weak-interval", not bad_interval, bad_interval
    yield "extremes-unique", not bad_length, bad_length
    yield "fibers-partition", seen == len(table), f"{seen} vs {len(table)}"


@suite("minmax", size="cosets")
def suite_minmax(g: Grading) -> Iterator[Row]:
    rs = g.rs
    table = weyl_mod.enumerate_W0(g)
    count = ideals_mod.count_lower_ideals(ideals_mod.weight_poset(g, 1))
    by_def_min = set(weyl_mod.W0_min(g))
    by_def_max = set(weyl_mod.W0_max(g))
    yield (
        "min-characterisation",
        by_def_min == table.minimal and len(by_def_min) == count,
        f"{len(by_def_min)} minimal vs {len(table.minimal)} by levels",
    )
    yield (
        "max-characterisation",
        by_def_max == table.maximal and len(by_def_max) == count,
        f"{len(by_def_max)} maximal vs {len(table.maximal)} by levels",
    )
    mp = ideals_mod.m_polynomial(ideals_mod.weight_poset(g, 1))
    tau_min = weyl_mod.poincare(len(weyl_mod.tau(g, w).roots()) for w in by_def_min)
    tau_max = weyl_mod.poincare(len(weyl_mod.tau(g, w).roots()) for w in by_def_max)
    yield "ideal-polynomial-from-extremes", mp == tau_min == tau_max, f"M(t) = {to_str(mp)}"
    if g.is_abelian:
        yield "abelian-all-extreme", by_def_min == by_def_max == set(table.elements()), ""
        return
    pmin = weyl_mod.poincare(w.length for w in by_def_min)
    pmax = weyl_mod.poincare(w.length for w in by_def_max)
    whole = set(table.elements())
    # Without gamma + gamma' a root for gamma, gamma' in Delta(1), every
    # ideal is its own closure, so l(w_min) = |I| and P_min = M (A2:3,1);
    # with such a pair, their ideal has a strictly larger closure.
    d1 = g.delta1_mask
    pair = any(d1 >> j & 1 for i in rs.indices_of(d1) for j in rs.sums[i])
    yield (
        "nonabelian-proper-distinct",
        by_def_min != by_def_max and by_def_min < whole and by_def_max < whole
        and mp != pmax and pmin != pmax and (mp != pmin) == pair,
        "",
    )
    union = by_def_min | by_def_max
    if g.is_extra_special:
        yield "extraspecial-union-covers", union == whole, f"{len(union)} vs {len(whole)}"
    else:
        yield "middle-elements-exist", union != whole, f"{len(union)} vs {len(whole)}"


@suite("involution", size="cosets")
def suite_involution(g: Grading) -> Iterator[Row]:
    rs = g.rs
    table = weyl_mod.enumerate_W0(g)
    p = ideals_mod.weight_poset(g, 1)
    wt0 = weyl_mod.longest_element(rs, g.pi0)
    ok_levels = all(
        g.level(wt0.apply(r)) == g.levels[j]
        for j, r in enumerate(rs.positive_roots)
    ) and all(not wt0.apply(r).is_positive for r in rs.roots_of(g.delta0_mask))
    yield "parabolic-longest-fixes-levels", ok_levels, ""
    # The table a position at a time: the image of w is w0 w wt0, looked
    # up by the images of the simple roots; tau is the level-1 part of the
    # inversion mask, validated and dualised once per distinct mask.
    elements = table.elements()
    image = weyl_mod.involution_images(g, elements)
    delta1 = g.delta1_mask
    taus = [w.inversion_mask & delta1 for w in elements]
    dual = {m: ideals_mod.dual_ideal(p, Ideal(p, m)).mask for m in set(taus)}
    bad = ""
    for k, i in enumerate(image):
        if i is None:
            bad = bad or f"image of {elements[k]} leaves the coset set"
            continue
        if image[i] != k:
            bad = bad or f"not involutive at {elements[k]}"
        if taus[i] != dual[taus[k]]:
            bad = bad or f"dual ideal mismatch at {elements[k]}"
        if (elements[k] in table.minimal) != (elements[i] in table.maximal):
            bad = bad or f"minimal flag not swapped at {elements[k]}"
    yield "involution-swaps-duality", not bad, bad
    bad = ""
    for ideal in p.lower_ideals:
        lhs = weyl_mod.involution(g, weyl_mod.w_min(g, ideal))
        if lhs != weyl_mod.w_max(g, ideals_mod.dual_ideal(p, ideal)):
            bad = f"min/max exchange fails at {ideal}"
            break
    yield "min-to-max-of-dual", not bad, bad
    if g.is_abelian:
        fixed = sum(k == i for k, i in enumerate(image))
        w0poly = weyl_mod.poincare(w.length for w in table.elements())
        yield (
            "fixed-points-alternating-sum",
            fixed == value(w0poly, -1),
            f"fixed {fixed}, W0(-1) {value(w0poly, -1)}",
        )


@suite("extreme", size="lower ideals")
def suite_extreme(g: Grading) -> Iterator[Row]:
    p = ideals_mod.weight_poset(g, 1)
    bad = ""
    for ideal in p.lower_ideals:
        if weyl_mod.max_roots(g, ideal) != ideals_mod.max_elements(p, ideal):
            bad = f"maximal roots disagree at {ideal}"
            break
        if weyl_mod.min_complement_roots(g, ideal) != ideals_mod.min_elements(
            p, ideal.complement_mask
        ):
            bad = f"minimal complement roots disagree at {ideal}"
            break
    yield "extreme-roots-match-poset", not bad, bad


@suite("eta", size="cosets")
def suite_eta(g: Grading) -> Iterator[Row]:
    if g.k_standard != 1:
        return
    table = weyl_mod.enumerate_W0(g)
    vectors = [weyl_mod.eta(g, w) for w in table.elements()]
    yield "eta-injective", len(set(vectors)) == len(vectors), f"{len(vectors)} elements"
    yield "eta-of-identity", vectors[0] == g.marks, f"{vectors[0]}"
    min_image = {weyl_mod.eta(g, w) for w in weyl_mod.W0_min(g)}
    max_image = {weyl_mod.eta(g, w) for w in weyl_mod.W0_max(g)}
    yield (
        "eta-image-cutoffs",
        min_image == {v for v in vectors if min(v) >= -1}
        and max_image == {v for v in vectors if max(v) <= 1},
        "",
    )
    if g.is_abelian:
        yield "abelian-eta-small", all(set(v) <= {-1, 0, 1} for v in vectors), ""


@suite("classes", size="cosets")
def suite_classes(g: Grading) -> Iterator[Row]:
    rs = g.rs
    table = weyl_mod.enumerate_W0(g)
    p = ideals_mod.weight_poset(g, 1)
    count = ideals_mod.count_lower_ideals(p)
    if g.is_abelian:
        yield (
            "abelian-counts",
            count == len(table),
            f"ideals {count}, cosets {len(table)}, index {g.coset_count}",
        )
        yield (
            "abelian-poincare-is-ideal-polynomial",
            weyl_mod.poincare(w.length for w in table.elements())
            == ideals_mod.m_polynomial(p),
            "",
        )
    if g.is_extra_special:
        h = rs.coxeter_number
        long_roots = 2 * rs.long_mask.bit_count()
        npl = len(rs.long_simple)
        yield (
            "extraspecial-coset-count",
            len(table) == long_roots,
            f"#W0 {len(table)}, long roots {long_roots}, {npl}*{h}",
        )
        yield "extraspecial-ideal-count", count == npl * (h - 1), f"{count} vs {npl}*{h - 1}"
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
        yield "extraspecial-theta-test", not bad, bad


# -- arrangements --------------------------------------------------------


@suite("regions", size="cosets")
def suite_regions(g: Grading) -> Iterator[Row]:
    p = ideals_mod.weight_poset(g, 1)
    fibers = weyl_mod.enumerate_W0(g).by_tau  # one region per fiber
    ideal_masks = set(p.ideal_masks)
    yield (
        "region-ideal-bijection",
        set(fibers) == ideal_masks,
        f"{len(fibers)} regions, {len(ideal_masks)} ideals",
    )
    bad = ""
    for mask in sorted(fibers):
        ideal, fib = Ideal(p, mask), fibers[mask]
        if fib[0] != weyl_mod.w_min(g, ideal):
            bad = bad or f"closest chamber of {ideal} is not the minimal element"
        if fib[-1] != weyl_mod.w_max(g, ideal):
            bad = bad or f"farthest chamber of {ideal} is not the maximal element"
    yield "closest-farthest", not bad, bad
    chambers = [w for mask in sorted(fibers) for w in fibers[mask]]
    walls = arr_mod.geometric_inversions(g.rs, chambers)
    bad = next(
        (f"wall distance of {w} differs from its length"
         for w, d in zip(chambers, walls) if d.bit_count() != w.length),
        "",
    )
    yield "distance-is-length", not bad, bad


def _first_disagreement(
    elements: Sequence[weyl_mod.WeylElement], walls: Sequence[int], mask: int
) -> Optional[tuple[int, int]]:
    """The first element, and the highest root of the mask, at which a wall
    mask and the element's inversion mask disagree: (position, root index)."""
    for r, (w, m) in enumerate(zip(elements, walls)):
        if diff := (m ^ w.inversion_mask) & mask:
            return r, diff.bit_length() - 1
    return None


@suite("signs", per="type")
def suite_signs_of_type(rs: RootSystem) -> Iterator[Row]:
    pos = rs.positive_roots
    elements = weyl_mod.weyl_elements(rs)
    walls = arr_mod.geometric_inversions(rs, elements)
    at = _first_disagreement(elements, walls, (1 << len(pos)) - 1)
    bad = ""
    if at is not None:
        r, k = at
        s = -1 if walls[r] >> k & 1 else 1
        bad = f"{elements[r]} at {pos[k]}: sign {s}, inversion {s > 0}"
    yield "oracle-matches-inversions", not bad, bad


@suite("signs", size="cosets")
def suite_signs(g: Grading) -> Iterator[Row]:
    elements = weyl_mod.enumerate_W0(g).elements()
    walls = arr_mod.geometric_inversions(g.rs, elements)
    at = _first_disagreement(elements, walls, arr_mod.sub_arrangement_01(g).mask)
    bad = "" if at is None else f"{elements[at[0]]} at {g.rs.positive_roots[at[1]]}"
    yield "coset-signs-match-inversions", not bad, bad


@suite("counting", size="lower ideals")
def suite_counting(g: Grading) -> Iterator[Row]:
    count = ideals_mod.count_lower_ideals(ideals_mod.weight_poset(g, 1))
    formula = arr_mod.ideal_count_formula(g)
    yield "height-product-formula", formula == count, f"product {formula}, enumeration {count}"


@suite("charpoly", per="type")
def suite_charpoly_of_type(rs: RootSystem) -> Iterator[Row]:
    chi_full = arr_mod.char_poly(arr_mod.coxeter_arrangement(rs))
    yield (
        "coxeter-factorisation",
        chi_full == from_int_roots(rs.exponents), f"chi = {to_str(chi_full)}",
    )
    m = rs.exponents
    chi_del = arr_mod.char_poly(arr_mod.deleted_arrangement(rs))
    expect = from_int_roots(list(m[:-1]) + [m[-1] - 1])
    yield "deleted-factorisation", chi_del == expect, f"chi = {to_str(chi_del)}"


@suite("charpoly")
def suite_charpoly(g: Grading) -> Iterator[Row]:
    arr = arr_mod.sub_arrangement_01(g)
    if g.is_extra_special:
        yield "extraspecial-drops-highest-wall", arr == arr_mod.deleted_arrangement(g.rs), ""
    chi = arr_mod.char_poly(arr)
    count = ideals_mod.count_lower_ideals(ideals_mod.weight_poset(g, 1))
    levi = weyl_mod.levi_order(g)
    yield (
        "region-count-two-ways",
        arr_mod.zaslavsky_regions(chi) == levi * count,
        f"regions {arr_mod.zaslavsky_regions(chi)}, {levi}*{count}",
    )
    b = arr_mod.conjectural_exponents(g)
    yield (
        "dual-partition-factorisation",
        chi == from_int_roots(b), f"chi = {to_str(chi)}, predicted roots {b}",
    )


@suite("appendix", per="type")
def suite_appendix(rs: RootSystem) -> Iterator[Row]:
    report = arr_mod.upper_ideal_partition_check(rs)
    yield (
        "complement-heights-partition",
        report["ok"], f"{report['upper_ideals']} upper ideals"
        + (f", violations {report['violations']}" if report["violations"] else ""),
    )
    yield (
        "upper-ideal-count",
        report["upper_ideals"] == arr_mod.catalan(rs),
        f"{report['upper_ideals']} vs {arr_mod.catalan(rs)}",
    )


# -- the rank-7 worked example -------------------------------------------

E7_PAPER_SPEC = "E7:0,1,0,0,0,0,0"


def e7_paper_grading() -> Grading:
    """The grading of E7 singled out in rank 7: node 2 marked, so level 0 is
    the chain A6 of the other six nodes, with 21 positive roots at level 0
    and 35 at level 1."""
    g = parse_grading_spec(E7_PAPER_SPEC)
    if g.delta0_mask.bit_count() != 21 or g.delta1_mask.bit_count() != 35:
        raise AssertionError(f"{E7_PAPER_SPEC} must have 21 roots at level 0 and 35 at level 1")
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
def suite_e7(g: Grading) -> Iterator[Row]:
    # the example answers for its own grading and is silent on the others
    if g.spec_string() != E7_PAPER_SPEC:
        return
    rep = e7_example_report()
    yield (
        "height-partition",
        rep["partition"] == [7, 6, 6, 6, 6, 5, 5, 4, 4, 3, 2, 1, 1]
        and rep["dual_partition"] == [13, 11, 10, 9, 7, 5, 1],
        f"partition {rep['partition']}, dual {rep['dual_partition']}",
    )
    consistent = (
        rep["ideal_count"] == rep["antichain_count"] == rep["region_count"]
        and Fraction(rep["formula_value"]) == rep["ideal_count"]
    )
    yield (
        "counts-internally-consistent",
        consistent,
        f"ideals {rep['ideal_count']}, antichains {rep['antichain_count']}, "
        f"regions {rep['region_count']}, formula {rep['formula_value']}",
    )
    yield (
        "stated-count-verdict", True,
        f"direct enumeration {rep['ideal_count']} vs {rep['stated_count_in_source']} "
        "quoted in the source example (reported, not asserted)", "info",
    )
