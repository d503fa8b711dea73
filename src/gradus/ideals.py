"""Weight posets of graded slices and their lower ideals.

The slice Delta(i) of a grading is partially ordered by
gamma' <= gamma iff gamma - gamma' is a nonnegative integer combination of
the level-0 simple roots; covers differ by a single level-0 simple root.
Both descriptions are computed and compared at construction time, by the
same order builder that gives the root poset (Delta+, <=) with all simple
roots as steps.  A grading builds each of its weight posets once.

A subset of a poset, an ideal or an antichain among them, is a
positive-root mask like every other set of positive roots, and a cover is
a root index.  The per-element tables (positive_index, covers_down,
down_masks, up_masks) are listed in canonical order, which is a linear
extension; lower ideals are enumerated by depth-first search along it, so
each ideal is produced exactly once.  The same down-sets keyed by root
index (`down_of`) check an ideal or an antichain at its members only.  A
poset enumerates its lower ideals once and holds them: `ideal_masks` for
counting, `lower_ideals` for every reader that needs validated `Ideal`s.
The connected components of a poset (`components`) are read off the same
tables; for a standard grading the components of Delta(1) are the weights
of the simple modules of the level-0 subalgebra, each with a level-1
simple root as its lowest element.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .grading import Grading
from .polys import Poly, from_exponent_counts
from .rootsys import Root, RootSystem, check_budget


def iter_downclosed(down_masks: Sequence[int]) -> Iterator[int]:
    """All downward-closed bitmasks, in depth-first order along the elements
    (which must be listed along a linear extension, each element's own bit
    being the top bit of its down-set)."""
    m = len(down_masks)
    own = [1 << (d.bit_length() - 1) for d in down_masks]
    strict = [d & ~b for d, b in zip(down_masks, own)]

    def rec(k: int, mask: int) -> Iterator[int]:
        if k == m:
            yield mask
            return
        yield from rec(k + 1, mask)
        if strict[k] & ~mask == 0:
            yield from rec(k + 1, mask | own[k])

    return rec(0, 0)


def _spread(index: Sequence[int], masks: Sequence[int], mask: int) -> int:
    """The union of masks[i] over the elements index[i] in mask: the
    down-set or up-set of a subset, as the masks are down- or up-sets."""
    out = 0
    for k, m in zip(index, masks):
        if mask >> k & 1:
            out |= m
    return out


def order_masks(
    rs: RootSystem, members: Sequence[int], steps: Sequence[int]
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Covers and down-sets of the order on the positive roots with the
    given indices, listed along a linear extension, generated by subtracting
    the simple roots with the given indices: each element covers the members
    one step below it.  Covers are root indices and down-sets positive-root
    masks, both listed in the order of `members`.

    The closure of the covers is checked against the arithmetic order
    (coordinatewise difference nonnegative) before it is returned.
    """
    npos = len(rs.positive_roots)
    minus = [rs.simple_indices[a] + npos for a in steps]
    down: dict[int, int] = {}
    covers_down = []
    for k in members:
        # gamma - alpha_a; a member below k is already placed
        covered = tuple(
            j for m in minus if (j := rs.sums[k].get(m)) is not None and j in down
        )
        covers_down.append(covered)
        down[k] = 1 << k
        for j in covered:
            down[k] |= down[j]
    roots = rs.positive_roots
    at_most = []  # at_most[t][v]: the members whose coordinate t is at most v
    for t in range(rs.rank):
        cumulative = [0] * (1 + max((roots[j].coords[t] for j in members), default=0))
        for j in members:
            cumulative[roots[j].coords[t]] |= 1 << j
        for v in range(1, len(cumulative)):
            cumulative[v] |= cumulative[v - 1]
        at_most.append(cumulative)
    for i in members:
        arith = -1
        for t, v in enumerate(roots[i].coords):
            arith &= at_most[t][v]
        if arith != down[i]:
            raise AssertionError(
                f"cover closure disagrees with the arithmetic order at {roots[i]}"
            )
    return tuple(covers_down), tuple(down[k] for k in members)


class WeightPoset:
    """The poset (Delta(i), <=) of a positive slice of a grading."""

    def __init__(self, grading: Grading, level: int = 1):
        if level < 1:
            raise ValueError("weight posets are defined for levels >= 1")
        rs = grading.rs
        self.full_mask = grading.level_mask(level)
        self.positive_index: tuple[int, ...] = rs.indices_of(self.full_mask)
        self.elements = rs.roots_of(self.full_mask)
        if not self.elements:
            raise ValueError(f"slice {level} of {grading.spec_string()} is empty")
        self.grading = grading
        self.level = level
        self.size = len(self.elements)

        self.covers_down, self.down_masks = order_masks(rs, self.positive_index, grading.pi0)
        bits = [1 << k for k in self.positive_index]
        self.up_masks: tuple[int, ...] = tuple(
            sum(b for b, d in zip(bits, self.down_masks) if d & bit) for bit in bits
        )

    def mask_of_roots(self, roots: Iterable[Root]) -> int:
        mask = 0
        for r in roots:
            k = self.grading.rs.index.get(r.coords)
            if k is None or not self.full_mask >> k & 1:
                raise ValueError(f"{r} is not in slice {self.level}")
            mask |= 1 << k
        return mask

    def is_lower_mask(self, mask: int) -> bool:
        """Whether the mask lies in the slice and holds the down-set of each
        of its members; only the members are read."""
        if mask & ~self.full_mask:
            return False
        down_of, rest = self.down_of, mask
        while rest:
            low = rest & -rest
            rest ^= low
            if down_of[low.bit_length() - 1] & ~mask:
                return False
        return True

    @cached_property
    def down_of(self) -> dict[int, int]:
        """Each element's root index -> its down-set, in poset order."""
        return dict(zip(self.positive_index, self.down_masks))

    @cached_property
    def components(self) -> tuple[int, ...]:
        """The connected components, as positive-root masks in order of
        their lowest root."""
        links = tuple(d | u for d, u in zip(self.down_masks, self.up_masks))
        out = []
        rest = self.full_mask
        while rest:
            comp, grown = 0, rest & -rest
            while grown != comp:
                comp, grown = grown, _spread(self.positive_index, links, grown)
            out.append(comp)
            rest &= ~comp
        return tuple(out)

    @cached_property
    def ideal_masks(self) -> tuple[int, ...]:
        """Every lower ideal as a positive-root mask, in depth-first order.
        On Delta(1) the walk is refused before it starts when the ideals,
        counted by Grading.ideal_count (ABCHT), exceed the budget; other
        levels are not bounded."""
        if self.level == 1:
            check_budget(int(self.grading.ideal_count),
                         f"lower ideals of {self.grading.spec_string()}")
        return tuple(iter_downclosed(self.down_masks))

    @cached_property
    def lower_ideals(self) -> tuple[Ideal, ...]:
        return tuple(Ideal(self, m) for m in self.ideal_masks)

    @cached_property
    def dual_permutation(self) -> tuple[int, ...]:
        """The permutation of the roots by the longest element of the
        level-0 parabolic subgroup, which preserves the slice."""
        from . import weyl

        perm = weyl.longest_element(self.grading.rs, self.grading.pi0).perm
        if sum(1 << perm[k] for k in self.positive_index) != self.full_mask:
            raise AssertionError("parabolic longest element must preserve the slice")
        return perm

    def __repr__(self) -> str:
        return f"WeightPoset({self.grading.spec_string()}, level={self.level})"


def weight_poset(g: Grading, i: int = 1) -> WeightPoset:
    """The weight poset of Delta(i), built once per grading and level."""
    return g.weight_poset(i)


def _require_in_slice(p: WeightPoset, mask: int) -> None:
    if mask & ~p.full_mask:
        raise ValueError(f"mask has bits outside slice {p.level}")


@dataclass(frozen=True)
class Ideal:
    """A lower ideal of a weight poset, as a positive-root mask."""

    poset: WeightPoset
    mask: int

    def __post_init__(self) -> None:
        _require_in_slice(self.poset, self.mask)
        if not self.poset.is_lower_mask(self.mask):
            raise ValueError("mask is not downward closed")

    @property
    def size(self) -> int:
        return bin(self.mask).count("1")

    @property
    def complement_mask(self) -> int:
        return self.poset.full_mask & ~self.mask

    def roots(self) -> tuple[Root, ...]:
        return self.poset.grading.rs.roots_of(self.mask)

    def __str__(self) -> str:
        return "{" + ", ".join(str(r) for r in self.roots()) + "}"


@dataclass(frozen=True)
class Antichain:
    """An antichain of a weight poset, as a positive-root mask."""

    poset: WeightPoset
    mask: int

    def __post_init__(self) -> None:
        m = self.mask
        _require_in_slice(self.poset, m)
        # comparability is symmetric, so a pair a < b shows in b's down-set
        down_of, rest = self.poset.down_of, m
        while rest:
            low = rest & -rest
            rest ^= low
            if down_of[low.bit_length() - 1] & m != low:
                raise ValueError("elements are not pairwise incomparable")

    def roots(self) -> tuple[Root, ...]:
        return self.poset.grading.rs.roots_of(self.mask)


def iter_lower_ideals(p: WeightPoset) -> Iterator[Ideal]:
    yield from p.lower_ideals


def count_lower_ideals(p: WeightPoset) -> int:
    return len(p.ideal_masks)


def m_polynomial(p: WeightPoset) -> Poly:
    """Generating polynomial sum over lower ideals of t^(#ideal)."""
    return from_exponent_counts(map(int.bit_count, p.ideal_masks))


def count_antichains(p: WeightPoset) -> int:
    """Antichain count by direct DFS over incomparable subsets; independent
    of the ideal enumeration, so the two can be compared."""
    bits = [1 << k for k in p.positive_index]
    comp = [d | u for d, u in zip(p.down_masks, p.up_masks)]

    def rec(start: int, chosen: int) -> int:
        total = 1
        for j in range(start, p.size):
            if not comp[j] & chosen:
                total += rec(j + 1, chosen | bits[j])
        return total

    return rec(0, 0)


def max_elements(p: WeightPoset, ideal: Ideal | int) -> Antichain:
    mask = ideal.mask if isinstance(ideal, Ideal) else ideal
    out = 0
    for k, u in zip(p.positive_index, p.up_masks):
        if mask >> k & 1 and u & mask == 1 << k:
            out |= 1 << k
    return Antichain(p, out)


def min_elements(p: WeightPoset, subset: int) -> Antichain:
    out = 0
    for k, d in zip(p.positive_index, p.down_masks):
        if subset >> k & 1 and d & subset == 1 << k:
            out |= 1 << k
    return Antichain(p, out)


def lower_ideal_from_antichain(p: WeightPoset, a: Antichain | int) -> Ideal:
    """Downward closure; a bare mask is checked as an Antichain of p first."""
    if not isinstance(a, Antichain):
        a = Antichain(p, a)
    return Ideal(p, _spread(p.positive_index, p.down_masks, a.mask))


def upper_ideal_from_antichain(p: WeightPoset, a: Antichain | int) -> int:
    """Upward closure, returned as a bare mask (upper ideals are stored as
    complements of lower ideals); a bare mask is checked as an Antichain of
    p first."""
    if not isinstance(a, Antichain):
        a = Antichain(p, a)
    return _spread(p.positive_index, p.up_masks, a.mask)


def lower_ideal_from_roots(p: WeightPoset, roots: Iterable[Root]) -> Ideal:
    """Build an ideal from an explicit member list, naming any violated cover."""
    mask = p.mask_of_roots(roots)
    positive = p.grading.rs.positive_roots
    for k, covered in zip(p.positive_index, p.covers_down):
        if mask >> k & 1:
            for c in covered:
                if not mask >> c & 1:
                    raise ValueError(
                        f"not a lower ideal: contains {positive[k]} "
                        f"but not {positive[c]}"
                    )
    return Ideal(p, mask)


def dual_ideal(p: WeightPoset, ideal: Ideal) -> Ideal:
    """The dual ideal: image of the complement under the longest element of
    the level-0 parabolic subgroup."""
    return Ideal(p, _dual_mask(p, ideal.mask))


def _dual_mask(p: WeightPoset, mask: int) -> int:
    return sum(1 << p.dual_permutation[k] for k in p.positive_index if not mask >> k & 1)


def self_dual_count(p: WeightPoset) -> int:
    return sum(_dual_mask(p, m) == m for m in p.ideal_masks)
