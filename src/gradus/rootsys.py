"""Irreducible crystallographic root systems with exact arithmetic.

Conventions used throughout the package:

- Simple roots are numbered per Bourbaki (1-based in user-facing text,
  0-based in code).
- Roots are integer coordinate vectors over the simple-root basis.
- The invariant inner product is normalised so long roots have squared
  length 2; its Gram matrix on the simple roots is rational and exact.
- The Cartan matrix is a[i][j] = <alpha_j, alpha_i^vee>, so the simple
  reflection acts by s_i(alpha_j) = alpha_j - a[i][j] alpha_i.
- The roots are the W-orbit of the simple roots (Bourbaki, Lie VI 1.5).
  One walk applies each simple reflection to each root it finds, so it
  finds every root and fills the table of simple reflections at once; a
  build is refused when that table's 2Nn entries exceed the budget.
- Positive roots are listed in "canonical order": by height, then
  lexicographically by coordinates.  Bitmask positions over the positive
  roots always refer to this order, and a set of positive roots is held
  as such a mask; roots_of is the one conversion from a mask to roots.
- A root is also an index into roots(): positive root k keeps k, and its
  negative is k + N.  `index` maps the coordinates of every root to its
  index, and `sums` is the one table of root sums, so closures, convexity
  and the three-root lemma are lookups, not coordinate arithmetic.

Everything is integer or Fraction arithmetic; no floating point.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Iterable, Optional, Sequence

Q = Fraction

# The most an enumeration may visit, in the units it counts (reflection
# images, cosets, ideals, fibre points): |W(E6)|.  The largest query it admits,
# the all-marked E6 coset table, takes about 4 s and 100 MB on a 2-vCPU VM.
BUDGET = 51_840

Coords = tuple[int, ...]

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}
_FIXED_RANK = {"E": (6, 7, 8), "F": (4,), "G": (2,)}

# Positive-root counts for every family, used as a construction cross-check.
_NUM_POSITIVE = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}


@dataclass(frozen=True)
class CartanType:
    family: str
    rank: int

    def __post_init__(self) -> None:
        fam, n = self.family, self.rank
        if fam in _MIN_RANK:
            if n < _MIN_RANK[fam]:
                raise ValueError(f"type {fam} requires rank >= {_MIN_RANK[fam]}, got {n}")
        elif fam in _FIXED_RANK:
            if n not in _FIXED_RANK[fam]:
                raise ValueError(f"type {fam} admits ranks {_FIXED_RANK[fam]}, got {n}")
        else:
            raise ValueError(f"unknown family {fam!r}")

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def parse_cartan_type(text: str) -> CartanType:
    m = re.fullmatch(r"([A-Ga-g])([0-9]+)", text.strip())
    if m is None:
        raise ValueError(f"cannot parse Cartan type {text!r}")
    return CartanType(m.group(1).upper(), int(m.group(2)))


@dataclass(frozen=True)
class Root:
    """A root, stored by its simple-root coordinates."""

    coords: Coords

    @property
    def height(self) -> int:
        return sum(self.coords)

    @property
    def is_positive(self) -> bool:
        return self.height > 0

    def __neg__(self) -> "Root":
        return Root(tuple(-c for c in self.coords))

    def __str__(self) -> str:
        terms = []
        for i, c in enumerate(self.coords):
            if c == 0:
                continue
            head = "" if abs(c) == 1 else str(abs(c))
            body = f"{head}a{i + 1}"
            if not terms:
                terms.append(body if c > 0 else f"-{body}")
            else:
                terms.append(f"+{body}" if c > 0 else f"-{body}")
        return "".join(terms) if terms else "0"


def _diagram(ct: CartanType) -> tuple[list[tuple[int, int]], list[Q]]:
    """Dynkin diagram edges (0-based) and half squared lengths d_i."""
    fam, n = ct.family, ct.rank
    chain = [(i, i + 1) for i in range(n - 1)]
    one = Q(1)
    half = Q(1, 2)
    if fam == "A":
        return chain, [one] * n
    if fam == "B":
        return chain, [one] * (n - 1) + [half]
    if fam == "C":
        return chain, [half] * (n - 1) + [one]
    if fam == "D":
        return [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)], [one] * n
    if fam == "E":
        edges = [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)]
        edges += [(i, i + 1) for i in range(5, n - 1)]
        return edges, [one] * n
    if fam == "F":
        return chain, [one, one, half, half]
    if fam == "G":
        return [(0, 1)], [Q(1, 3), one]
    raise AssertionError(fam)


class RootSystem:
    """An irreducible root system, built by walking the W-orbit of the simple
    roots."""

    def __init__(self, cartan_type: CartanType):
        self.cartan_type = cartan_type
        n = cartan_type.rank
        self.rank = n
        num_positive = _NUM_POSITIVE[cartan_type.family](n)
        check_budget(2 * num_positive * n, f"reflection images of {cartan_type}")

        edges, d = _diagram(cartan_type)
        gram = [[Q(0)] * n for _ in range(n)]
        for i in range(n):
            gram[i][i] = 2 * d[i]
        for i, j in edges:
            gram[i][j] = gram[j][i] = -max(d[i], d[j])
        self.gram: tuple[tuple[Q, ...], ...] = tuple(tuple(row) for row in gram)

        cartan = [[gram[i][j] / d[i] for j in range(n)] for i in range(n)]
        if any(c.denominator != 1 for row in cartan for c in row):
            raise AssertionError("non-integer Cartan matrix")
        self.cartan_matrix: tuple[tuple[int, ...], ...] = tuple(
            tuple(int(c) for c in row) for row in cartan
        )

        walk, image = self._orbit()
        pos = sorted((c for c in walk if sum(c) > 0), key=lambda c: (sum(c), c))
        if len(pos) != num_positive:
            raise AssertionError(f"positive-root count mismatch for {cartan_type}")
        self.positive_roots: tuple[Root, ...] = tuple(Root(c) for c in pos)
        self._roots = self.positive_roots + tuple(-r for r in self.positive_roots)
        # Every root's coordinates -> its index in roots(): positive root k
        # keeps k, and its negative sits at k + N.
        self.index: dict[Coords, int] = {r.coords: k for k, r in enumerate(self._roots)}
        # Row i maps the index of each root to the index of its image under
        # s_i, read from the walk's images through the two numberings.
        new = [self.index[c] for c in walk]
        old = [walk[r.coords] for r in self._roots]
        self.reflection_table: tuple[tuple[int, ...], ...] = tuple(
            tuple(new[row[k]] for k in old) for row in image
        )

        top = self.positive_roots[-1]
        if len(pos) > 1 and top.height == self.positive_roots[-2].height:
            raise AssertionError("highest root is not unique")
        self.theta: Root = top
        self.coxeter_number: int = top.height + 1
        self.simple_roots: tuple[Root, ...] = tuple(
            self.root(tuple(1 if j == i else 0 for j in range(n))) for i in range(n)
        )
        max_norm = max(self.norm2(r) for r in self.simple_roots)
        if max_norm != 2:
            raise AssertionError("long roots must have squared length 2")
        self.long_simple: tuple[int, ...] = tuple(
            i for i in range(n) if self.norm2(self.simple_roots[i]) == 2
        )

    # -- construction ---------------------------------------------------

    def _orbit(self) -> tuple[dict[Coords, int], list[list[int]]]:
        """Walk the W-orbit of the simple roots, which is every root of both
        signs, by s_i(gamma) = gamma - <gamma, alpha_i^vee> alpha_i until no
        new root appears.  Returns each root's position in the walk and, for
        each i, the position of s_i of the root at each position."""
        n = self.rank
        walk = {tuple(int(j == i) for j in range(n)): i for i in range(n)}
        found = list(walk)
        image: list[list[int]] = [[] for _ in range(n)]
        for gamma in found:  # grows as the walk finds roots
            for i, a in enumerate(self.cartan_matrix):
                c = list(gamma)
                c[i] -= sum(x * y for x, y in zip(a, gamma))
                beta = tuple(c)
                k = walk.setdefault(beta, len(found))
                if k == len(found):
                    found.append(beta)
                image[i].append(k)
        return walk, image

    # -- basic queries --------------------------------------------------

    def root(self, coords: Sequence[int]) -> Root:
        """The root with these coordinates, as held in roots()."""
        k = self.index.get(tuple(coords))
        if k is None:
            raise ValueError(f"{Root(tuple(coords))} is not a root")
        return self._roots[k]

    def is_root(self, coords: Sequence[int] | Root) -> bool:
        key = coords.coords if isinstance(coords, Root) else tuple(coords)
        return key in self.index

    def roots(self) -> tuple[Root, ...]:
        """All roots, positive then negative, each side in canonical order:
        the negative of positive root k is root k + N."""
        return self._roots

    def inner(self, x: Sequence, y: Sequence) -> Q:
        """Invariant form on coordinate vectors (entries int or Fraction)."""
        xs = x.coords if isinstance(x, Root) else tuple(x)
        ys = y.coords if isinstance(y, Root) else tuple(y)
        if len(xs) != self.rank or len(ys) != self.rank:
            raise ValueError("coordinate vector of wrong length")
        acc = Q(0)
        for i, xi in enumerate(xs):
            if xi:
                row = self.gram[i]
                acc += xi * sum(row[j] * yj for j, yj in enumerate(ys) if yj)
        return acc

    def norm2(self, gamma: Root) -> Q:
        return self.inner(gamma, gamma)

    def pairing(self, mu: Root, gamma: Root) -> int:
        """<mu, gamma^vee> = 2(mu,gamma)/(gamma,gamma), always an integer."""
        val = 2 * self.inner(mu, gamma) / self.norm2(gamma)
        if val.denominator != 1:
            raise AssertionError("non-integral Cartan pairing")
        return int(val)

    def reflect(self, gamma: Root, mu: Root) -> Root:
        """Reflection of mu in the hyperplane orthogonal to gamma."""
        k = self.pairing(mu, gamma)
        return self.root(tuple(m - k * g for m, g in zip(mu.coords, gamma.coords)))

    def add_roots(self, gamma: Root, mu: Root) -> Optional[Root]:
        k = self.index.get(tuple(a + b for a, b in zip(gamma.coords, mu.coords)))
        return None if k is None else self._roots[k]

    def is_long(self, gamma: Root) -> bool:
        return self.norm2(gamma) == 2

    def indices_of(self, mask: int) -> tuple[int, ...]:
        """The indices of the set bits of a positive-root mask, in order;
        the walk visits the set bits only."""
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return tuple(out)

    def roots_of(self, mask: int) -> tuple[Root, ...]:
        """The positive roots whose bits are set in a positive-root mask, in
        canonical order: the one conversion from a mask to roots."""
        return tuple(self.positive_roots[k] for k in self.indices_of(mask))

    def three_root_witness(self, mu: Root, nu1: Root, nu2: Root) -> Root:
        """Given roots with nu1+nu2 and mu+nu1+nu2 roots, return nu_i with
        mu+nu_i a root, preferring nu1.  mu in {-nu1, -nu2} is outside the
        domain: one partial sum would vanish, and a witness need not exist."""
        for r in (mu, nu1, nu2):
            if not self.is_root(r):
                raise ValueError(f"{r} is not a root")
        m, a, b = (self.index[r.coords] for r in (mu, nu1, nu2))
        return nu1 if self.three_root_witness_index(m, a, b) == a else nu2

    def three_root_witness_index(self, m: int, a: int, b: int) -> int:
        """three_root_witness on indices into roots(): a or b, preferring a."""
        npos = len(self.positive_roots)
        if m in ((a + npos) % (2 * npos), (b + npos) % (2 * npos)):
            raise ValueError("mu must not cancel nu1 or nu2")
        sums = self.sums
        c = sums[a].get(b)
        if c is None:
            raise ValueError("nu1 + nu2 must be a root")
        if m not in sums[c]:
            raise ValueError("mu + nu1 + nu2 must be a root")
        if a in sums[m]:
            return a
        if b in sums[m]:
            return b
        raise AssertionError("no witness despite valid input")

    # -- derived data ---------------------------------------------------

    @cached_property
    def height_counts(self) -> tuple[int, ...]:
        """Number of positive roots of each height 1..h-1."""
        counts = [0] * (self.coxeter_number - 1)
        for r in self.positive_roots:
            counts[r.height - 1] += 1
        return tuple(counts)

    @cached_property
    def exponents(self) -> tuple[int, ...]:
        """Exponents, extracted as the dual partition of the height counts."""
        m = dual_partition(self.height_counts)
        if len(m) != self.rank:
            raise AssertionError("height distribution is not a partition of the rank")
        return tuple(sorted(m))

    @cached_property
    def simple_indices(self) -> tuple[int, ...]:
        """Index of each simple root alpha_i in roots()."""
        return tuple(self.index[a.coords] for a in self.simple_roots)

    @cached_property
    def sums(self) -> tuple[dict[int, int], ...]:
        """Row a maps each b with root_a + root_b a root to the index of that
        sum, indices being those of roots(), in increasing b; so the positive
        partners of a positive root come first, and their sums are positive."""
        # Each root as one integer with a signed 5-bit digit per coordinate,
        # so that adding two codes adds the roots: a digit of a sum is at
        # most twice a coefficient of theta (6 in E8), well below 16.
        codes = [sum(c << 5 * i for i, c in enumerate(r.coords)) for r in self._roots]
        by_code = {c: k for k, c in enumerate(codes)}
        return tuple(
            {b: k for b, cb in enumerate(codes) if (k := by_code.get(ca + cb)) is not None}
            for ca in codes
        )

    def __repr__(self) -> str:
        return f"RootSystem({self.cartan_type})"


def check_budget(size: int, what: str) -> None:
    """Refuse an enumeration of `size` items before it starts, naming the
    size and the budget."""
    if size > BUDGET:
        raise ValueError(f"{size:,} {what} exceed the budget of {BUDGET:,}")


def dual_partition(counts: Sequence[int]) -> tuple[int, ...]:
    """Conjugate of a sequence of column heights: part_i = #{j : counts_j >= i}."""
    if not counts or max(counts) == 0:
        return ()
    return tuple(
        sum(1 for c in counts if c >= i) for i in range(1, max(counts) + 1)
    )


def build(cartan_type: CartanType | str) -> RootSystem:
    """The root system of a type, built once per type: its derived tables are
    cached on the instance, and the other modules' functools caches keyed by
    it live as long as it does, so every caller shares them."""
    if isinstance(cartan_type, str):
        cartan_type = parse_cartan_type(cartan_type)
    return _build(cartan_type)


@cache
def _build(cartan_type: CartanType) -> RootSystem:
    return RootSystem(cartan_type)
