"""Weyl group machinery: inversion sets, bi-convexity, minimal coset
representatives of the level-0 parabolic, and the ideal <-> element maps.

An element is stored as the permutation it induces on the root indices of
rs.roots() (positives first, so index k + N is the negative of positive
root k; rs.index maps a root's coordinates to its index); the group acts
faithfully on the roots, and every operation is a lookup in the
simple-reflection table of the root system.  A composition is one
operator.itemgetter call, so the whole 2N-entry lookup runs in C; it needs
no bound on 2N, and 2N >= 2 makes it always return a tuple.  Closures and
bi-convexity read the root-sum table rs.sums.  The inversion set
N(w) = {gamma > 0 : w(gamma) < 0} is stored as a bitmask over the
canonical positive-root order.  A subset of the positive roots is an
inversion set iff it and its complement are closed under root addition
(bi-convexity); such masks are converted back to group elements by
repeatedly peeling a simple root, which produces a reduced word and the
permutation together.  That peel is an element's only word: an element
carries none of its own, so it prints the same however it was reached.

The minimal coset representatives W0 = {w : N(w) avoids the level-0 roots}
are enumerated without touching the rest of W, by breadth-first search that
steps to s_i w whenever w^(-1)(alpha_i) is a positive root of positive level;
the breadth-first depth equals the length of the representative.  The walk
recognises a coset by its inversion mask, an int (N(w) determines w), and
composes s_i w only for a coset it has not seen.  A coset is its
WeylElement: the table keeps the elements as one tuple, the minimal
and maximal elements of the fibers as two frozensets of them, and each
fiber as the list of its elements in walk (length-sorted) order, keyed by
level-1 inversion mask.  With every node marked W(0) is trivial, so the
same walk enumerates W itself.  A single fiber needs no table: it is the
weak-order interval [w_min, w_max], and the same walk, started at w_min
and taking only roots of level >= 2, visits exactly its elements, so it is
bounded by its own size, not by the number of cosets.
The table is a cached_property of its grading, and so are the minimal and
maximal elements of its fibers (Grading.fiber_extremes, keyed by the
ideal's positive-root mask).  A peel depends only on the root system and
the mask, so a bounded memo per root system and mask shares it between the
gradings of that root system; the last W walked is kept, and longest
elements are cached per root system and generator tuple.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from functools import cache, lru_cache
from itertools import islice
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

from . import ideals as ideals_mod
from . import rootsys
from .grading import Grading
from .ideals import Antichain, Ideal
from .polys import Poly, divexact, from_exponent_counts, mul
from .rootsys import BudgetExceeded, Root, RootSystem, check_budget

Perm = tuple[int, ...]


def _compose(u: Perm, v: Perm) -> Perm:
    """The permutation u after v."""
    return itemgetter(*v)(u)


def _identity_perm(rs: RootSystem) -> Perm:
    return tuple(range(2 * len(rs.positive_roots)))


def _inverse(perm: Perm) -> Perm:
    inv = [0] * len(perm)
    for k, image in enumerate(perm):
        inv[image] = k
    return tuple(inv)


class WeylElement:
    """A Weyl group element as the permutation w of the root indices:
    perm[k] is the index of w(root k)."""

    __slots__ = ("rs", "perm", "_inv_mask")

    def __init__(self, rs: RootSystem, perm: Perm, inv_mask: Optional[int] = None):
        self.rs = rs
        self.perm = perm
        self._inv_mask = inv_mask

    @classmethod
    def identity(cls, rs: RootSystem) -> "WeylElement":
        return cls(rs, _identity_perm(rs), 0)

    def apply(self, gamma: Root) -> Root:
        k = self.rs.index.get(gamma.coords)
        if k is None:
            raise ValueError(f"{gamma} is not a root")
        return self.rs.roots()[self.perm[k]]

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return WeylElement(self.rs, _compose(self.perm, other.perm))

    def inverse(self) -> "WeylElement":
        return WeylElement(self.rs, _inverse(self.perm))

    @property
    def inversion_mask(self) -> int:
        if self._inv_mask is None:
            npos = len(self.rs.positive_roots)
            mask = 0
            for k in range(npos):
                if self.perm[k] >= npos:
                    mask |= 1 << k
            self._inv_mask = mask
        return self._inv_mask

    @property
    def length(self) -> int:
        return bin(self.inversion_mask).count("1")

    @property
    def word(self) -> tuple[int, ...]:
        """The reduced word peeled from the inversion set: the one word an
        element is printed with, however it was reached."""
        peeled = _peel(self.rs, self.inversion_mask)
        if peeled is None:
            raise AssertionError("inversion sets of group elements always peel")
        return peeled[1]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, WeylElement) and self.perm == other.perm

    def __hash__(self) -> int:
        return hash(self.perm)

    def __str__(self) -> str:
        return " ".join(f"s{i + 1}" for i in self.word) or "e"

    def __repr__(self) -> str:
        return f"<WeylElement {self}>"


def inversion_roots(w: WeylElement) -> tuple[Root, ...]:
    return w.rs.roots_of(w.inversion_mask)


def from_word(rs: RootSystem, word: Sequence[int]) -> WeylElement:
    perm = _identity_perm(rs)
    for i in word:
        perm = _compose(perm, rs.reflection_table[i])
    return WeylElement(rs, perm)


# -- bi-convexity and the Kostant correspondence ------------------------


def biconvex_violation(
    rs: RootSystem, mask: int
) -> Optional[tuple[str, int, int, int]]:
    """A witness (reason, i, j, k) against bi-convexity, or None."""
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


def is_biconvex(rs: RootSystem, mask: int) -> bool:
    return biconvex_violation(rs, mask) is None


@lru_cache(maxsize=2 ** 14)
def _peel(rs: RootSystem, mask: int) -> Optional[tuple[Perm, tuple[int, ...]]]:
    """The permutation and a reduced word of the element w with inversion
    set `mask`, or None if peeling gets stuck (the mask is not an inversion
    set); the last 2^14 are kept, four times the 4,158 masks `verify --all
    --max-rank 5` peels, sixteen times a CLI session's, about 45 MB at E8.

    Each step peels the first simple root alpha_i, in canonical order, that
    is an inversion of the rest w Q, Q = s_(i0) ... s_(im) the part peeled:
    Q(alpha_i) is a positive root in the mask (a negative one, -beta, puts
    beta in N(Q^(-1)), inside the mask).  After |mask| steps w Q = 1, so w = Q^(-1).
    """
    npos = len(rs.positive_roots)
    simple_positions = rs.simple_indices
    order = sorted(range(rs.rank), key=lambda i: simple_positions[i])
    q = _identity_perm(rs)
    word_rev: list[int] = []
    for _ in range(bin(mask).count("1")):
        for i in order:
            k = q[simple_positions[i]]
            if k < npos and mask >> k & 1:
                break
        else:
            return None
        word_rev.append(i)
        q = _compose(q, rs.reflection_table[i])
    return _inverse(q), tuple(reversed(word_rev))


def element_from_inversions(rs: RootSystem, mask: int) -> WeylElement:
    """The unique w with N(w) = mask; raises with a violating pair when the
    mask is not bi-convex."""
    peeled = _peel(rs, mask)
    if peeled is None:
        witness = biconvex_violation(rs, mask)
        if witness is None:
            raise AssertionError("peeling failed on a bi-convex mask")
        reason, i, j, k = witness
        pos = rs.positive_roots
        raise ValueError(
            f"not an inversion set ({reason}): {pos[i]} + {pos[j]} = {pos[k]}"
        )
    w = WeylElement(rs, peeled[0])
    if w.inversion_mask != mask:
        raise AssertionError("reconstructed element has the wrong inversions")
    return w


# -- group enumeration --------------------------------------------------


@lru_cache(maxsize=1)
def weyl_elements(rs: RootSystem) -> tuple[WeylElement, ...]:
    """The Weyl group in breadth-first order: the coset table of the grading
    with every node marked, where W(0) is trivial and so W0 = W.  Refused by
    its order before the walk (|W(E7)| = 2,903,040 is over the budget).  The
    last group walked is kept, so the suites of one type share one walk and
    a run over many types holds one group at a time."""
    check_budget(int(km_order(rs)), f"elements of W({rs.cartan_type})")
    return CosetTable(Grading(rs, (1,) * rs.rank)).elements()


def longest_element(rs: RootSystem, indices: Optional[Iterable[int]] = None) -> WeylElement:
    """Longest element of the (parabolic) subgroup generated by the given
    simple reflections; the whole group when indices is None.  Computed once
    per root system and index tuple."""
    return _longest_element(rs, tuple(range(rs.rank)) if indices is None else tuple(indices))


@cache
def _longest_element(rs: RootSystem, idx: tuple[int, ...]) -> WeylElement:
    npos = len(rs.positive_roots)
    simple_positions = rs.simple_indices
    perm = _identity_perm(rs)
    while True:
        for i in idx:
            # ascend while w(alpha_i) is still positive
            if perm[simple_positions[i]] < npos:
                perm = _compose(perm, rs.reflection_table[i])
                break
        else:
            return WeylElement(rs, perm)


def poincare(lengths: Iterable[int]) -> Poly:
    """Length generating polynomial of a set of elements."""
    return from_exponent_counts(lengths)


def km_poly(rs: RootSystem) -> Poly:
    """Product over the positive roots of (1-t^(h+1))/(1-t^h), h the height:
    the Poincare polynomial of W."""
    num: Poly = (1,)
    den: Poly = (1,)
    for h in rs.heights[: len(rs.positive_roots)]:
        num = mul(num, (1,) + (0,) * h + (-1,))
        den = mul(den, (1,) + (0,) * (h - 1) + (-1,))
    return divexact(num, den)


def km_order(rs: RootSystem, mask: Optional[int] = None) -> Fraction:
    """Product over the positive roots of a mask (all of them when None) of
    (h+1)/h, h the height; equals the group order for Delta+."""
    num = den = 1
    for h, c in enumerate(rs.height_partition(mask), 1):
        num, den = num * (h + 1) ** c, den * h ** c
    return Fraction(num, den)


def levi_order(g: Grading) -> Fraction:
    """|W(0)|, the height product over the positive level-0 roots."""
    return km_order(g.rs, g.delta0_mask)


# -- minimal coset representatives --------------------------------------


def _walk(
    g: Grading, start: WeylElement, floor: int
) -> Iterator[tuple[Perm, list[int], int]]:
    """Breadth-first walk up the left weak order from `start`, stepping to
    s_i w whenever w^(-1)(alpha_i) is a root of level >= floor >= 1.

    Yields (permutation, w^(-1)(alpha_j) for each simple root alpha_j,
    inversion mask) per element, in breadth-first and so length-sorted
    order.  An element is recognised by its inversion mask (N(w) determines
    w), so s_i w and w^(-1) s_i are composed only for one not yet seen."""
    rs = g.rs
    simple_positions = rs.simple_indices
    refl = rs.reflection_table
    signed = g.signed_levels
    seen = {start.inversion_mask}
    queue: deque[tuple[Perm, Perm, int]] = deque(
        [(start.perm, _inverse(start.perm), start.inversion_mask)]
    )
    while queue:
        perm, inv, inv_mask = queue.popleft()
        preimages = [inv[k] for k in simple_positions]
        yield perm, preimages, inv_mask
        for i, gained in enumerate(preimages):
            if signed[gained] < floor:
                continue
            # N(s_i w) = N(w) + {w^(-1)(alpha_i)}
            new_mask = inv_mask | 1 << gained
            if new_mask in seen:
                continue
            seen.add(new_mask)
            queue.append((_compose(refl[i], perm), _compose(inv, refl[i]), new_mask))


class CosetTable:
    """All minimal-length representatives of W modulo the level-0 parabolic,
    in breadth-first (hence length-sorted) order.

    elements() is the tuple of representatives, each built with its
    permutation and inversion mask and no word (a word is peeled when it is
    asked for); `minimal` and `maximal` hold those whose w^(-1)(alpha_j)
    all have level >= -1, resp. <= 1, over the simple roots alpha_j; by_tau
    maps a level-1 inversion mask to its fiber, the elements with that mask
    in walk order, so from w_min to w_max.  The table is the walk from the
    identity over the roots of positive level: at level 0 s_i w is in the
    same coset, and a negative root is a descent.  A table over the budget,
    Grading.coset_count cosets, is refused before the walk starts."""

    def __init__(self, grading: Grading):
        rs = grading.rs
        check_budget(int(grading.coset_count), f"cosets of {grading.spec_string()}")
        delta1 = grading.delta1_mask
        signed = grading.signed_levels
        elements: list[WeylElement] = []
        minimal: list[WeylElement] = []
        maximal: list[WeylElement] = []
        self.by_tau: dict[int, list[WeylElement]] = {}
        for perm, preimages, inv_mask in _walk(grading, WeylElement.identity(rs), 1):
            w = WeylElement(rs, perm, inv_mask)
            preimage_levels = [signed[k] for k in preimages]
            if min(preimage_levels) >= -1:
                minimal.append(w)
            if max(preimage_levels) <= 1:
                maximal.append(w)
            self.by_tau.setdefault(inv_mask & delta1, []).append(w)
            elements.append(w)
        if len(elements) != grading.coset_count:
            raise AssertionError("coset count disagrees with the order formula")
        self.grading = grading
        self._elements = tuple(elements)
        self.minimal = frozenset(minimal)
        self.maximal = frozenset(maximal)

    def __len__(self) -> int:
        return len(self._elements)

    def elements(self) -> tuple[WeylElement, ...]:
        return self._elements


def enumerate_W0(g: Grading) -> CosetTable:
    """The coset table of the grading, enumerated once per grading."""
    return g.coset_table


def in_W0(g: Grading, w: WeylElement) -> bool:
    return w.inversion_mask & g.delta0_mask == 0


def _require_W0(g: Grading, w: WeylElement) -> None:
    if not in_W0(g, w):
        raise ValueError("element is not a minimal coset representative")


def tau(g: Grading, w: WeylElement) -> Ideal:
    """The level-1 part of the inversion set, as a lower ideal."""
    _require_W0(g, w)
    p = ideals_mod.weight_poset(g, 1)
    return Ideal(p, w.inversion_mask & g.delta1_mask)


def fiber(g: Grading, ideal: Ideal) -> list[WeylElement]:
    """All minimal coset representatives whose level-1 inversions equal the
    ideal, in increasing length, from w_min to w_max.

    The fiber is the weak-order interval [w_min, w_max], walked up from
    w_min over the roots of level >= 2 (level 1 would change the ideal,
    level 0 leave W0), so the walk costs the fiber's size, whatever the
    number of cosets: it is refused when it would list a fiber element past
    the budget."""
    lo, hi = w_min(g, ideal), w_max(g, ideal)
    budget = rootsys.BUDGET
    out = [
        WeylElement(g.rs, perm, inv_mask)
        for perm, _, inv_mask in islice(_walk(g, lo, 2), budget + 1)
    ]
    if len(out) > budget:
        raise BudgetExceeded(
            f"the fiber of {ideal} in {g.spec_string()} "
            f"exceeds the budget of {budget:,} elements"
        )
    if out[-1].inversion_mask != hi.inversion_mask:
        raise AssertionError(f"the fiber of {ideal} does not end at w_max")
    return out


# -- closures and the minimal/maximal elements of a fiber ----------------


@cache
def _positive_partners(rs: RootSystem) -> tuple[int, ...]:
    """Per positive root i, the mask of the positive j with root i + root j
    a root."""
    npos = len(rs.positive_roots)
    return tuple(sum(1 << j for j in rs.sums[i] if j < npos) for i in range(npos))


def closure_layers(rs: RootSystem, mask: int) -> list[int]:
    """Layers I^1, I^2, ... with I^k = (I + I^(k-1)) meet the roots."""
    sums, partners = rs.sums, _positive_partners(rs)
    layers = [mask]
    total = mask
    prev = mask
    while True:
        nxt = 0
        rest = mask
        while rest:
            i = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            row = sums[i]
            other = prev & partners[i]
            while other:
                j = (other & -other).bit_length() - 1
                other &= other - 1
                nxt |= 1 << row[j]
        nxt &= ~total
        if not nxt:
            return layers
        layers.append(nxt)
        total |= nxt
        prev = nxt


def closure_mask(rs: RootSystem, mask: int) -> int:
    out = 0
    for layer in closure_layers(rs, mask):
        out |= layer
    return out


def w_min(g: Grading, ideal: Ideal) -> WeylElement:
    """The unique shortest representative with level-1 inversions the ideal:
    its inversion set is the additive closure of the ideal."""
    return g.fiber_extremes(ideal.mask, False)


def w_max(g: Grading, ideal: Ideal) -> WeylElement:
    """The unique longest representative: inversions are the positive levels
    minus the additive closure of the complementary upper ideal."""
    return g.fiber_extremes(ideal.mask, True)


def fiber_extreme(g: Grading, mask: int, top: bool) -> WeylElement:
    """w_max (top) or w_min of the lower ideal of Delta(1) with positive-root
    mask `mask`, peeled from its inversion set.  Callers go through the
    grading's memo, g.fiber_extremes."""
    if not top:
        return element_from_inversions(g.rs, closure_mask(g.rs, mask))
    comp = g.delta1_mask & ~mask
    return element_from_inversions(g.rs, g.ge1_mask & ~closure_mask(g.rs, comp))


def W0_min(g: Grading) -> list[WeylElement]:
    return [w_min(g, i) for i in ideals_mod.weight_poset(g, 1).lower_ideals]


def W0_max(g: Grading) -> list[WeylElement]:
    return [w_max(g, i) for i in ideals_mod.weight_poset(g, 1).lower_ideals]


def involution(g: Grading, w: WeylElement) -> WeylElement:
    """w -> w0 w w0(parabolic), an involution of the minimal representatives
    intertwining ideal duality."""
    _require_W0(g, w)
    return longest_element(g.rs) * w * longest_element(g.rs, g.pi0)


def is_involution_fixed(g: Grading, w: WeylElement) -> bool:
    """involution(g, w) == w, tested on the simple roots, whose images determine w."""
    _require_W0(g, w)
    w0, u = longest_element(g.rs).perm, longest_element(g.rs, g.pi0).perm
    return all(w0[w.perm[u[k]]] == w.perm[k] for k in g.rs.simple_indices)


# -- extreme roots and the eta map --------------------------------------


def _sent_to_simples(w: WeylElement, p: ideals_mod.WeightPoset, sign: int) -> Antichain:
    """The poset elements that w sends to sign times a simple root."""
    offset = 0 if sign > 0 else len(w.rs.positive_roots)
    targets = {k + offset for k in w.rs.simple_indices}
    return Antichain(p, sum(1 << k for k in p.positive_index if w.perm[k] in targets))


def max_roots(g: Grading, ideal: Ideal) -> Antichain:
    """Maximal roots of the ideal, read off as the roots that w_min sends to
    negatives of simple roots."""
    return _sent_to_simples(w_min(g, ideal), ideal.poset, -1)


def min_complement_roots(g: Grading, ideal: Ideal) -> Antichain:
    """Minimal roots of the complementary upper ideal: the roots that w_max
    sends to simple roots."""
    return _sent_to_simples(w_max(g, ideal), ideal.poset, 1)


def eta(g: Grading, w: WeylElement) -> tuple[int, ...]:
    """For a 1-standard grading, the vector of levels of w^(-1)(alpha) over
    the simple roots alpha; injective on the minimal representatives."""
    if not (g.is_standard and g.k_standard == 1):
        raise ValueError("eta is defined for gradings with a single level-1 simple root")
    _require_W0(g, w)
    inv, signed = w.inverse().perm, g.signed_levels
    return tuple(signed[inv[k]] for k in g.rs.simple_indices)
