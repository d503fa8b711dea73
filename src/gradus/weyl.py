"""Weyl group machinery: inversion sets, bi-convexity, minimal coset
representatives of the level-0 parabolic, and the ideal <-> element maps.

An element is stored as the permutation it induces on the root indices of
rs.roots() (positives first, so index k + N is the negative of positive
root k; rs.index maps a root's coordinates to its index); the group acts
faithfully on the roots, and every operation is a lookup in the
simple-reflection table of the root system.  Closures and bi-convexity
read the root-sum table rs.sums.  The inversion set
N(w) = {gamma > 0 : w(gamma) < 0} is stored as a bitmask over the
canonical positive-root order.  A subset of the positive roots is an
inversion set iff it and its complement are closed under root addition
(bi-convexity); such masks are converted back to group elements by
repeatedly peeling a simple root, which produces a reduced word and the
permutation together.

The minimal coset representatives W0 = {w : N(w) avoids the level-0 roots}
are enumerated without touching the rest of W, by breadth-first search that
prepends s_i whenever w^(-1)(alpha_i) is a positive root of positive level;
the breadth-first depth equals the length of the representative.  A coset
is its WeylElement: the table keeps the elements as one tuple, the minimal
and maximal elements of the fibers as two frozensets of them, and the
fibers as positions in the tuple keyed by level-1 inversion mask.  With
every node marked W(0) is trivial, so the same walk enumerates W itself.
The table is a cached_property of its grading, and so are the minimal and
maximal elements of its fibers (Grading.fiber_extremes, keyed by the
ideal's positive-root mask and peeled once each); W itself is cached per
root system, and longest elements per root system and generator tuple.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from functools import cache
from typing import Iterable, Optional, Sequence

from . import ideals as ideals_mod
from .grading import Grading
from .ideals import Antichain, Ideal
from .polys import Poly, divexact, from_exponent_counts, mul
from .rootsys import Root, RootSystem, check_budget

Perm = tuple[int, ...]


def _compose(u: Perm, v: Perm) -> Perm:
    """The permutation u after v."""
    return tuple(map(u.__getitem__, v))


def _identity_perm(rs: RootSystem) -> Perm:
    return tuple(range(2 * len(rs.positive_roots)))


class WeylElement:
    """A Weyl group element as the permutation w of the root indices:
    perm[k] is the index of w(root k)."""

    __slots__ = ("rs", "perm", "_inv_mask", "_word")

    def __init__(
        self,
        rs: RootSystem,
        perm: Perm,
        word: Optional[tuple[int, ...]] = None,
        inv_mask: Optional[int] = None,
    ):
        self.rs = rs
        self.perm = perm
        self._inv_mask = inv_mask
        self._word = word

    @classmethod
    def identity(cls, rs: RootSystem) -> "WeylElement":
        return cls(rs, _identity_perm(rs), word=())

    def apply(self, gamma: Root) -> Root:
        k = self.rs.index.get(gamma.coords)
        if k is None:
            raise ValueError(f"{gamma} is not a root")
        return self.rs.roots()[self.perm[k]]

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return WeylElement(self.rs, _compose(self.perm, other.perm))

    def inverse(self) -> "WeylElement":
        inv = [0] * len(self.perm)
        for k, image in enumerate(self.perm):
            inv[image] = k
        return WeylElement(self.rs, tuple(inv))

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
        if self._word is None:
            peeled = _peel(self.rs, self.inversion_mask)
            if peeled is None:
                raise AssertionError("inversion sets of group elements always peel")
            self._word = peeled[1]
        return self._word

    def __eq__(self, other: object) -> bool:
        return isinstance(other, WeylElement) and self.perm == other.perm

    def __hash__(self) -> int:
        return hash(self.perm)

    def __str__(self) -> str:
        return " ".join(f"s{i + 1}" for i in self.word) if self.word else "e"

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


def _peel(rs: RootSystem, mask: int) -> Optional[tuple[Perm, tuple[int, ...]]]:
    """The permutation and a reduced word of the element w with inversion
    set `mask`, or None if peeling gets stuck (the mask is not an inversion
    set).

    Each step peels the first simple root alpha_i, in canonical order, that
    is an inversion of the rest w Q, where Q = s_(i0) ... s_(im) is what has
    been peeled so far; that holds iff w(Q(alpha_i)) < 0, i.e. iff Q(alpha_i)
    is a positive root in the mask or a negative root whose negative is not.
    After all |mask| steps w Q is the identity, so w is Q^(-1).
    """
    npos = len(rs.positive_roots)
    simple_positions = rs.simple_indices
    order = sorted(range(rs.rank), key=lambda i: simple_positions[i])
    q = _identity_perm(rs)
    word_rev: list[int] = []
    for _ in range(bin(mask).count("1")):
        for i in order:
            k = q[simple_positions[i]]
            if (mask >> k & 1) if k < npos else not mask >> (k - npos) & 1:
                break
        else:
            return None
        word_rev.append(i)
        q = _compose(q, rs.reflection_table[i])
    perm = [0] * len(q)
    for k, image in enumerate(q):
        perm[image] = k
    return tuple(perm), tuple(reversed(word_rev))


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
    w = WeylElement(rs, *peeled)
    if w.inversion_mask != mask:
        raise AssertionError("reconstructed element has the wrong inversions")
    return w


# -- group enumeration --------------------------------------------------


@cache
def weyl_elements(rs: RootSystem) -> tuple[WeylElement, ...]:
    """The Weyl group in breadth-first order: the coset table of the grading
    with every node marked, where W(0) is trivial and so W0 = W, walked once
    per root system.  Like every coset table it is refused over the budget,
    as |W(E7)| = 2,903,040 is."""
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
    word: list[int] = []
    while True:
        for i in idx:
            # ascend while w(alpha_i) is still positive
            if perm[simple_positions[i]] < npos:
                perm = _compose(perm, rs.reflection_table[i])
                word.append(i)
                break
        else:
            return WeylElement(rs, perm, word=tuple(word))


def poincare(lengths: Iterable[int]) -> Poly:
    """Length generating polynomial of a set of elements."""
    return from_exponent_counts(lengths)


def km_poly(rs: RootSystem, roots: Optional[Iterable[Root]] = None) -> Poly:
    """Product over roots of (1-t^(h+1))/(1-t^h), h the height; for the full
    positive system this is the Poincare polynomial of W."""
    num: Poly = (1,)
    den: Poly = (1,)
    for r in rs.positive_roots if roots is None else roots:
        h = r.height
        num = mul(num, (1,) + (0,) * h + (-1,))
        den = mul(den, (1,) + (0,) * (h - 1) + (-1,))
    return divexact(num, den)


def km_order(rs: RootSystem, roots: Optional[Iterable[Root]] = None) -> Fraction:
    """Product over roots of (h+1)/h; equals the group order for Delta+."""
    num = den = 1
    for r in rs.positive_roots if roots is None else roots:
        num *= r.height + 1
        den *= r.height
    return Fraction(num, den)


def levi_order(g: Grading) -> Fraction:
    """|W(0)|, the height product over the positive level-0 roots."""
    return km_order(g.rs, g.rs.roots_of(g.delta0_mask))


# -- minimal coset representatives --------------------------------------


class CosetTable:
    """All minimal-length representatives of W modulo the level-0 parabolic,
    in breadth-first (hence length-sorted) order.

    elements() is the tuple of representatives, each built with its word and
    inversion mask; `minimal` and `maximal` hold those whose w^(-1)(alpha_j)
    all have level >= -1, resp. <= 1, over the simple roots alpha_j; by_tau
    maps a level-1 inversion mask to the positions of its fiber.  A table
    over the budget is refused before the walk starts."""

    def __init__(self, grading: Grading):
        rs = grading.rs
        count = km_order(rs) / levi_order(grading)
        check_budget(int(count), f"cosets of {grading.spec_string()}")
        npos = len(rs.positive_roots)
        simple_positions = rs.simple_indices
        refl = rs.reflection_table
        ident = _identity_perm(rs)
        elements: list[WeylElement] = []
        minimal: list[WeylElement] = []
        maximal: list[WeylElement] = []
        self.by_tau: dict[int, list[int]] = {}
        seen = {ident}
        # (permutation of w, permutation of w^(-1), word, inversion mask)
        queue: deque[tuple[Perm, Perm, tuple[int, ...], int]] = deque(
            [(ident, ident, (), 0)]
        )
        while queue:
            perm, inv, word, inv_mask = queue.popleft()
            w = WeylElement(rs, perm, word=word, inv_mask=inv_mask)
            # w^(-1)(alpha_j) for each simple root alpha_j
            preimages = [inv[k] for k in simple_positions]
            levels = [_signed_level(grading, k) for k in preimages]
            if all(lv >= -1 for lv in levels):
                minimal.append(w)
            if all(lv <= 1 for lv in levels):
                maximal.append(w)
            self.by_tau.setdefault(inv_mask & grading.delta1_mask, []).append(len(elements))
            elements.append(w)
            for i, gained in enumerate(preimages):
                # s_i w is a longer representative iff w^(-1)(alpha_i) is a
                # positive root of positive level; at level 0 it is in the
                # same coset, and a negative one is a descent
                if gained >= npos or grading.levels[gained] == 0:
                    continue
                new = _compose(refl[i], perm)
                if new in seen:
                    continue
                seen.add(new)
                queue.append(
                    (
                        new,
                        _compose(inv, refl[i]),
                        (i,) + word,
                        inv_mask | 1 << gained,
                    )
                )
        if len(elements) != count:
            raise AssertionError("coset count disagrees with the order formula")
        self.grading = grading
        self._elements = tuple(elements)
        self.minimal = frozenset(minimal)
        self.maximal = frozenset(maximal)

    def __len__(self) -> int:
        return len(self._elements)

    def elements(self) -> tuple[WeylElement, ...]:
        return self._elements


def _signed_level(g: Grading, k: int) -> int:
    """Level of the root with index k in rs.roots()."""
    npos = len(g.levels)
    return g.levels[k] if k < npos else -g.levels[k - npos]


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
    ideal, in increasing length."""
    table = enumerate_W0(g)
    elements = table.elements()
    return [elements[k] for k in table.by_tau.get(ideal.mask, [])]


# -- closures and the minimal/maximal elements of a fiber ----------------


def closure_layers(rs: RootSystem, mask: int) -> list[int]:
    """Layers I^1, I^2, ... with I^k = (I + I^(k-1)) meet the roots."""
    sums = rs.sums
    layers = [mask]
    total = mask
    prev = mask
    while True:
        nxt = 0
        rest = mask
        while rest:
            i = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            other = prev
            while other:
                j = (other & -other).bit_length() - 1
                other &= other - 1
                k = sums[i].get(j)
                if k is not None:
                    nxt |= 1 << k
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
    p = ideals_mod.weight_poset(g, 1)
    return [w_min(g, i) for i in ideals_mod.iter_lower_ideals(p)]


def W0_max(g: Grading) -> list[WeylElement]:
    p = ideals_mod.weight_poset(g, 1)
    return [w_max(g, i) for i in ideals_mod.iter_lower_ideals(p)]


def involution(g: Grading, w: WeylElement) -> WeylElement:
    """w -> w0 w w0(parabolic), an involution of the minimal representatives
    intertwining ideal duality."""
    _require_W0(g, w)
    return longest_element(g.rs) * w * longest_element(g.rs, g.pi0)


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
    inv = w.inverse().perm
    return tuple(_signed_level(g, inv[k]) for k in g.rs.simple_indices)
