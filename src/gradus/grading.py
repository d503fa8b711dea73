"""Z-gradings of a root system defined by nonnegative marks on the simple roots.

A mark vector (m_1, ..., m_n) grades every root by
level(gamma) = sum_i [gamma : alpha_i] * m_i, slicing the root system into
levels Delta(i).  Standard gradings have marks in {0,1}; the abelian ones
are those of maximal level 1 and the extra-special ones those of maximal
level 2 with a single root on top.

What a grading derives once (its level masks, its weight posets, its
coset table and the extremes of its fibers) is a cached_property of the
Grading, so it lives exactly as long as the grading does.
"""

from __future__ import annotations

import re
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
        self.levels = tuple(self.level(r) for r in rs.positive_roots)
        self.max_level = max(self.levels)

    def level(self, gamma: Root | Sequence[int]) -> int:
        coords = gamma.coords if isinstance(gamma, Root) else tuple(gamma)
        return sum(c * m for c, m in zip(coords, self.marks))

    def slice(self, i: int) -> tuple[Root, ...]:
        """Delta(i); level 0 contains both signs, other levels one sign."""
        if i == 0:
            pos = tuple(r for r, lv in zip(self.rs.positive_roots, self.levels) if lv == 0)
            return pos + tuple(-r for r in pos)
        sign = 1 if i > 0 else -1
        picked = tuple(
            r for r, lv in zip(self.rs.positive_roots, self.levels) if lv == abs(i)
        )
        return picked if sign > 0 else tuple(-r for r in picked)

    def level_mask(self, i: int) -> int:
        """Bitmask of positive-root indices at level i >= 0."""
        if i < 0:
            raise ValueError("level masks cover positive roots only")
        mask = 0
        for k, lv in enumerate(self.levels):
            if lv == i:
                mask |= 1 << k
        return mask

    @cached_property
    def delta0_mask(self) -> int:
        return self.level_mask(0)

    @cached_property
    def delta1_mask(self) -> int:
        return self.level_mask(1)

    @cached_property
    def ge1_mask(self) -> int:
        mask = 0
        for k, lv in enumerate(self.levels):
            if lv >= 1:
                mask |= 1 << k
        return mask

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

    def simple_components(self) -> dict[int, list[tuple[Root, ...]]]:
        """Connected components of each positive slice Delta(i), i >= 1,
        linked by covers gamma -> gamma + alpha with alpha of level 0.

        Requires a standard grading; the Delta(1) components are then the
        weights of the simple modules for the level-0 subalgebra, and their
        lowest elements are exactly the level-1 simple roots.
        """
        if not self.is_standard:
            raise ValueError("simple components are defined for standard gradings")
        rs = self.rs
        level0_simples = [rs.simple_indices[j] for j in self.pi0]
        out: dict[int, list[tuple[Root, ...]]] = {}
        for i in range(1, self.max_level + 1):
            members = [k for k, lv in enumerate(self.levels) if lv == i]
            parent = {k: k for k in members}

            def find(k: int) -> int:
                while parent[k] != k:
                    parent[k] = parent[parent[k]]
                    k = parent[k]
                return k

            # gamma + alpha_j keeps the level of gamma, so it is a member
            # whenever it is a root at all
            for k in members:
                for j in level0_simples:
                    other = rs.sum_table.get((j, k) if j <= k else (k, j))
                    if other is not None:
                        parent[find(k)] = find(other)
            groups: dict[int, list[int]] = {}
            for k in members:
                groups.setdefault(find(k), []).append(k)
            out[i] = [
                tuple(rs.positive_roots[k] for k in sorted(g))
                for g in sorted(groups.values(), key=min)
            ]
        return out

    def __repr__(self) -> str:
        return f"Grading({self.spec_string()})"


def grade(rs: RootSystem, marks: Sequence[int]) -> Grading:
    return Grading(rs, marks)


def extra_special(rs: RootSystem) -> Grading:
    """The grading by the highest coroot: level(gamma) = <gamma, theta^vee>."""
    marks = tuple(rs.pairing(alpha, rs.theta) for alpha in rs.simple_roots)
    g = Grading(rs, marks)
    if g.slice(2) != (rs.theta,):
        raise AssertionError("highest-coroot grading must put exactly theta at level 2")
    return g


def parse_grading_spec(text: str) -> Grading:
    """Parse 'B2:0,1', 'B2:es', or 'A3:std=1,3' into a grading."""
    parts = text.strip().split(":", 1)
    if len(parts) != 2 or not parts[1]:
        raise ValueError(f"grading spec {text!r} must look like TYPE:MARKS")
    rs = build(parse_cartan_type(parts[0]))
    body = parts[1].strip().lower()
    if body == "es":
        return extra_special(rs)
    if body.startswith("std="):
        marks = [0] * rs.rank
        for tok in body[4:].split(","):
            if not tok.strip().isdigit():
                raise ValueError(f"cannot parse node list in grading spec {text!r}")
            idx = int(tok)
            if not 1 <= idx <= rs.rank:
                raise ValueError(f"simple-root index {idx} out of range for {rs.cartan_type}")
            marks[idx - 1] = 1
        return Grading(rs, marks)
    if not re.fullmatch(r"-?\d+(,-?\d+)*", body):
        raise ValueError(f"cannot parse marks in grading spec {text!r}")
    return Grading(rs, [int(tok) for tok in body.split(",")])
