"""Weight posets of graded slices and their lower ideals.

The slice Delta(i) of a grading is partially ordered by
gamma' <= gamma iff gamma - gamma' is a nonnegative integer combination of
the level-0 simple roots; covers differ by a single level-0 simple root.
Both descriptions are computed and compared at construction time, by the
same order builder that gives the root poset (Delta+, <=) with all simple
roots as steps.  A grading builds each of its weight posets once.

Subsets of a poset are bitmasks over its canonical element order.  Lower
ideals are enumerated by depth-first search along that order, which is a
linear extension, so each ideal is produced exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .grading import Grading
from .polys import Poly, trimmed
from .rootsys import Root


def downclosure_masks(covers_down: Sequence[Sequence[int]]) -> list[int]:
    """Reflexive-transitive closure of a cover relation given as, for each
    element, the indices of the elements it covers (all smaller)."""
    masks: list[int] = []
    for k, covered in enumerate(covers_down):
        mask = 1 << k
        for j in covered:
            mask |= masks[j]
        masks.append(mask)
    return masks


def upclosure_masks(down_masks: Sequence[int]) -> list[int]:
    m = len(down_masks)
    ups = [1 << k for k in range(m)]
    for i, di in enumerate(down_masks):
        for j in range(m):
            if di >> j & 1:
                ups[j] |= 1 << i
    return ups


def iter_downclosed(down_masks: Sequence[int]) -> Iterator[int]:
    """All downward-closed bitmasks, in depth-first order along the element
    numbering (which must be a linear extension)."""
    m = len(down_masks)
    strict = [down_masks[k] & ~(1 << k) for k in range(m)]

    def rec(k: int, mask: int) -> Iterator[int]:
        if k == m:
            yield mask
            return
        yield from rec(k + 1, mask)
        if strict[k] & ~mask == 0:
            yield from rec(k + 1, mask | (1 << k))

    return rec(0, 0)


def order_masks(
    elements: Sequence[Root], steps: Sequence[int]
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Covers and down-sets of the order on roots listed along a linear
    extension, generated by subtracting the simple roots with the given
    indices: each element covers those one step below it.

    The closure of the covers is checked against the arithmetic order
    (coordinatewise difference nonnegative) before it is returned.
    """
    index = {r.coords: j for j, r in enumerate(elements)}
    covers_down = []
    for r in elements:
        covered = []
        for a in steps:
            j = index.get(tuple(c - (1 if t == a else 0) for t, c in enumerate(r.coords)))
            if j is not None:
                covered.append(j)
        covers_down.append(tuple(covered))
    down_masks = tuple(downclosure_masks(covers_down))
    for i, gi in enumerate(elements):
        arith = 0
        for j, gj in enumerate(elements):
            if all(a - b >= 0 for a, b in zip(gi.coords, gj.coords)):
                arith |= 1 << j
        if arith != down_masks[i]:
            raise AssertionError(
                f"cover closure disagrees with the arithmetic order at {gi}"
            )
    return tuple(covers_down), down_masks


class WeightPoset:
    """The poset (Delta(i), <=) of a positive slice of a grading."""

    def __init__(self, grading: Grading, level: int = 1):
        if level < 1:
            raise ValueError("weight posets are defined for levels >= 1")
        rs = grading.rs
        self.positive_index: tuple[int, ...] = rs.indices_of(grading.level_mask(level))
        self.elements = tuple(rs.positive_roots[k] for k in self.positive_index)
        if not self.elements:
            raise ValueError(f"slice {level} of {grading.spec_string()} is empty")
        self.grading = grading
        self.level = level
        self.index: dict[tuple[int, ...], int] = {
            r.coords: j for j, r in enumerate(self.elements)
        }

        self.covers_down, self.down_masks = order_masks(self.elements, grading.pi0)
        self.up_masks: tuple[int, ...] = tuple(upclosure_masks(self.down_masks))
        self.size = len(self.elements)
        self.full_mask = (1 << self.size) - 1

    def roots_of_mask(self, mask: int) -> tuple[Root, ...]:
        return tuple(r for j, r in enumerate(self.elements) if mask >> j & 1)

    def mask_of_roots(self, roots: Iterable[Root]) -> int:
        mask = 0
        for r in roots:
            j = self.index.get(r.coords)
            if j is None:
                raise ValueError(f"{r} is not in slice {self.level}")
            mask |= 1 << j
        return mask

    def is_lower_mask(self, mask: int) -> bool:
        closed = 0
        for j in range(self.size):
            if mask >> j & 1:
                closed |= self.down_masks[j]
        return closed == mask

    def positive_mask(self, mask: int) -> int:
        """Reinterpret a poset mask as a mask over all positive roots."""
        return sum(1 << k for j, k in enumerate(self.positive_index) if mask >> j & 1)

    def poset_mask(self, pos_mask: int) -> int:
        """Restrict a mask over all positive roots to this slice, as a poset
        mask; the inverse of positive_mask."""
        return sum(1 << j for j, k in enumerate(self.positive_index) if pos_mask >> k & 1)

    @cached_property
    def dual_permutation(self) -> tuple[int, ...]:
        """Index permutation of the slice induced by the longest element of
        the level-0 parabolic subgroup."""
        from . import weyl

        w0p = weyl.longest_element(self.grading.rs, self.grading.pi0)
        local = {k: j for j, k in enumerate(self.positive_index)}
        perm = []
        for k in self.positive_index:
            j = local.get(w0p.perm[k])
            if j is None:
                raise AssertionError("parabolic longest element must preserve the slice")
            perm.append(j)
        return tuple(perm)

    def __repr__(self) -> str:
        return f"WeightPoset({self.grading.spec_string()}, level={self.level})"


def weight_poset(g: Grading, i: int = 1) -> WeightPoset:
    """The weight poset of Delta(i), built once per grading and level."""
    return g.weight_poset(i)


@dataclass(frozen=True)
class Ideal:
    """A lower ideal of a weight poset, as a bitmask."""

    poset: WeightPoset
    mask: int

    def __post_init__(self) -> None:
        if not self.poset.is_lower_mask(self.mask):
            raise ValueError("mask is not downward closed")

    @property
    def size(self) -> int:
        return bin(self.mask).count("1")

    @property
    def complement_mask(self) -> int:
        return self.poset.full_mask & ~self.mask

    def roots(self) -> tuple[Root, ...]:
        return self.poset.roots_of_mask(self.mask)

    def __str__(self) -> str:
        return "{" + ", ".join(str(r) for r in self.roots()) + "}"


@dataclass(frozen=True)
class Antichain:
    poset: WeightPoset
    mask: int

    def __post_init__(self) -> None:
        p, m = self.poset, self.mask
        for j in range(p.size):
            if m >> j & 1 and (p.down_masks[j] | p.up_masks[j]) & m != 1 << j:
                raise ValueError("elements are not pairwise incomparable")

    def roots(self) -> tuple[Root, ...]:
        return self.poset.roots_of_mask(self.mask)


def iter_lower_ideals(p: WeightPoset) -> Iterator[Ideal]:
    for mask in iter_downclosed(p.down_masks):
        yield Ideal(p, mask)


def enumerate_lower_ideals(p: WeightPoset) -> list[Ideal]:
    return list(iter_lower_ideals(p))


def count_lower_ideals(p: WeightPoset) -> int:
    return sum(1 for _ in iter_downclosed(p.down_masks))


def m_polynomial(p: WeightPoset) -> Poly:
    """Generating polynomial sum over lower ideals of t^(#ideal)."""
    counts = [0] * (p.size + 1)
    for mask in iter_downclosed(p.down_masks):
        counts[bin(mask).count("1")] += 1
    return trimmed(counts)


def count_antichains(p: WeightPoset) -> int:
    """Antichain count by direct DFS over incomparable subsets; independent
    of the ideal enumeration, so the two can be compared."""
    comp = [p.down_masks[j] | p.up_masks[j] for j in range(p.size)]

    def rec(start: int, chosen: int) -> int:
        total = 1
        for j in range(start, p.size):
            if not comp[j] & chosen:
                total += rec(j + 1, chosen | 1 << j)
        return total

    return rec(0, 0)


def max_elements(p: WeightPoset, ideal: Ideal | int) -> Antichain:
    mask = ideal.mask if isinstance(ideal, Ideal) else ideal
    out = 0
    for j in range(p.size):
        if mask >> j & 1 and p.up_masks[j] & mask == 1 << j:
            out |= 1 << j
    return Antichain(p, out)


def min_elements(p: WeightPoset, subset: int) -> Antichain:
    out = 0
    for j in range(p.size):
        if subset >> j & 1 and p.down_masks[j] & subset == 1 << j:
            out |= 1 << j
    return Antichain(p, out)


def lower_ideal_from_antichain(p: WeightPoset, a: Antichain | int) -> Ideal:
    mask = a.mask if isinstance(a, Antichain) else a
    out = 0
    for j in range(p.size):
        if mask >> j & 1:
            out |= p.down_masks[j]
    return Ideal(p, out)


def upper_ideal_from_antichain(p: WeightPoset, a: Antichain | int) -> int:
    """Upward closure, returned as a bare mask (upper ideals are stored as
    complements of lower ideals)."""
    mask = a.mask if isinstance(a, Antichain) else a
    out = 0
    for j in range(p.size):
        if mask >> j & 1:
            out |= p.up_masks[j]
    return out


def lower_ideal_from_roots(p: WeightPoset, roots: Iterable[Root]) -> Ideal:
    """Build an ideal from an explicit member list, naming any violated cover."""
    mask = p.mask_of_roots(roots)
    for j in range(p.size):
        if mask >> j & 1:
            for c in p.covers_down[j]:
                if not mask >> c & 1:
                    raise ValueError(
                        f"not a lower ideal: contains {p.elements[j]} "
                        f"but not {p.elements[c]}"
                    )
    return Ideal(p, mask)


def dual_ideal(p: WeightPoset, ideal: Ideal) -> Ideal:
    """The dual ideal: image of the complement under the longest element of
    the level-0 parabolic subgroup."""
    perm = p.dual_permutation
    out = 0
    comp = ideal.complement_mask
    for j in range(p.size):
        if comp >> j & 1:
            out |= 1 << perm[j]
    return Ideal(p, out)


def self_dual_count(p: WeightPoset) -> int:
    return sum(1 for i in iter_lower_ideals(p) if dual_ideal(p, i).mask == i.mask)
