"""Z-gradings of a root system defined by nonnegative marks on the simple roots.

A mark vector (m_1, ..., m_n) grades every root by
level(gamma) = sum_i [gamma : alpha_i] * m_i, slicing the root system into
levels Delta(i).  Standard gradings have marks in {0,1}; the abelian ones
are those of maximal level 1 and the extra-special ones those of maximal
level 2 with a single root on top.

What a grading derives once (its levels, its level masks, its weight
posets, its coset table, the extremes of its fibers, and the sizes of its
coset table and of its lower ideals that the budget checks before either
walk) is a cached_property of the Grading, computed on first use and kept
exactly as long as the grading lives, so building a grading costs only its
marks.  The level masks come from one pass over the levels; a slice, and
every other set of positive roots a grading names, is read off a mask by
RootSystem.roots_of.
The order on a slice, and so its connected components, belongs to the
slice's WeightPoset.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache, cached_property, partial
from typing import TYPE_CHECKING, Callable, Sequence

from .rootsys import Root, RootSystem, build, parse_cartan_type

if TYPE_CHECKING:
    from .ideals import WeightPoset
    from .weyl import CosetTable, WeylElement


class Grading:
    """A root system together with a fixed mark vector."""

    def __init__(self, rs: RootSystem, marks: Sequence[int]):
        marks = tuple(int(m) for m in marks)
        if len(marks) != rs.rank:
            raise ValueError(f"expected {rs.rank} marks, got {len(marks)}")
        if any(m < 0 for m in marks):
            raise ValueError("marks must be nonnegative")
        if not any(marks):
            raise ValueError("marks must not all vanish")
        self.rs = rs
        self.marks = marks

    @cached_property
    def levels(self) -> tuple[int, ...]:
        """Level of each positive root, by index."""
        return tuple(self.level(r) for r in self.rs.positive_roots)

    @cached_property
    def max_level(self) -> int:
        return max(self.levels)

    def level(self, gamma: Root | Sequence[int]) -> int:
        coords = gamma.coords if isinstance(gamma, Root) else tuple(gamma)
        return sum(c * m for c, m in zip(coords, self.marks))

    def slice(self, i: int) -> tuple[Root, ...]:
        """Delta(i); level 0 contains both signs, other levels one sign."""
        pos = self.rs.roots_of(self.level_mask(abs(i)))
        if i > 0:
            return pos
        neg = tuple(-r for r in pos)
        return pos + neg if i == 0 else neg

    @cached_property
    def signed_levels(self) -> tuple[int, ...]:
        """Level of each root of rs.roots(), by index: root k + N, the
        negative of positive root k, has level -levels[k]."""
        return self.levels + tuple(-lv for lv in self.levels)

    @cached_property
    def _level_masks(self) -> dict[int, int]:
        # keyed by the levels that occur: marks, and so levels, are unbounded
        masks: dict[int, int] = {}
        for k, lv in enumerate(self.levels):
            masks[lv] = masks.get(lv, 0) | 1 << k
        return masks

    def level_mask(self, i: int) -> int:
        """Positive-root mask of the roots at level i >= 0 (0 where empty)."""
        if i < 0:
            raise ValueError("level masks cover positive roots only")
        return self._level_masks.get(i, 0)

    @property
    def delta0_mask(self) -> int:
        return self.level_mask(0)

    @property
    def delta1_mask(self) -> int:
        return self.level_mask(1)

    @cached_property
    def ge1_mask(self) -> int:
        return (1 << len(self.levels)) - 1 & ~self.delta0_mask

    def pi(self, i: int) -> tuple[int, ...]:
        """Simple-root indices at level i, i.e. with mark i (0-based)."""
        return tuple(j for j, m in enumerate(self.marks) if m == i)

    @cached_property
    def pi0(self) -> tuple[int, ...]:
        return self.pi(0)

    @cached_property
    def weight_poset(self) -> Callable[[int], WeightPoset]:
        """weight_poset(i) is the weight poset of Delta(i), built on first
        use and kept for the life of the grading."""
        from .ideals import WeightPoset

        return cache(partial(WeightPoset, self))

    @cached_property
    def coset_table(self) -> CosetTable:
        """The minimal coset representatives W0, kept for the life of the
        grading."""
        from .weyl import CosetTable

        return CosetTable(self)

    @cached_property
    def coset_count(self) -> Fraction:
        """|W/W(0)|, the size of the coset table, counted without the walk."""
        from .weyl import km_order, levi_order

        return km_order(self.rs) / levi_order(self)

    @cached_property
    def ideal_count(self) -> Fraction:
        """The number of lower ideals of Delta(1), counted without the walk
        by arrangement.ideal_count_formula."""
        from .arrangement import ideal_count_formula

        return ideal_count_formula(self)

    @cached_property
    def fiber_extremes(self) -> Callable[[int, bool], WeylElement]:
        """fiber_extremes(mask, top) is w_max (top) or w_min of the lower
        ideal of Delta(1) with positive-root mask `mask`, peeled on first use
        and kept for the life of the grading."""
        from .weyl import fiber_extreme

        return cache(partial(fiber_extreme, self))

    @property
    def is_standard(self) -> bool:
        return all(m in (0, 1) for m in self.marks)

    @property
    def k_standard(self) -> int | None:
        """Number of simple roots of level 1 for a standard grading."""
        return sum(self.marks) if self.is_standard else None

    @property
    def is_abelian(self) -> bool:
        return self.max_level == 1

    @property
    def is_extra_special(self) -> bool:
        return self.max_level == 2 and bin(self.level_mask(2)).count("1") == 1

    def spec_string(self) -> str:
        return f"{self.rs.cartan_type}:{','.join(str(m) for m in self.marks)}"

    def __repr__(self) -> str:
        return f"Grading({self.spec_string()})"


def grade(rs: RootSystem, marks: Sequence[int]) -> Grading:
    return Grading(rs, marks)


def extra_special(rs: RootSystem) -> Grading:
    """The grading by the highest coroot: level(gamma) = <gamma, theta^vee>.
    A new Grading each call, on marks computed once per root system."""
    return Grading(rs, _extra_special_marks(rs))


@cache
def _extra_special_marks(rs: RootSystem) -> tuple[int, ...]:
    marks = tuple(rs.pairing(alpha, rs.theta) for alpha in rs.simple_roots)
    if Grading(rs, marks).slice(2) != (rs.theta,):
        raise AssertionError("highest-coroot grading must put exactly theta at level 2")
    return marks


def parse_grading_spec(text: str) -> Grading:
    """Parse 'B2:0,1', 'B2:es', or 'A3:std=1,3' into a grading."""
    parts = text.strip().split(":", 1)
    if len(parts) != 2 or not parts[1]:
        raise ValueError(f"grading spec {text!r} must look like TYPE:MARKS")
    # the spec is checked against the parsed type before a build (20 s for A120)
    ct = parse_cartan_type(parts[0])
    body = parts[1].strip().lower()
    if body == "es":
        return extra_special(build(ct))
    if body.startswith("std="):
        marks = [0] * ct.rank
        for tok in body[4:].split(","):
            if not tok.strip().isdigit():
                raise ValueError(f"cannot parse node list in grading spec {text!r}")
            idx = int(tok)
            if not 1 <= idx <= ct.rank:
                raise ValueError(f"simple-root index {idx} out of range for {ct}")
            marks[idx - 1] = 1
        return Grading(build(ct), marks)
    if not re.fullmatch(r"-?\d+(,-?\d+)*", body):
        raise ValueError(f"cannot parse marks in grading spec {text!r}")
    marks = [int(tok) for tok in body.split(",")]
    if len(marks) != ct.rank:
        raise ValueError(f"expected {ct.rank} marks, got {len(marks)}")
    return Grading(build(ct), marks)
