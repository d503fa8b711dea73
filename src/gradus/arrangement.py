"""Hyperplane arrangements attached to a graded root system.

The central objects are the arrangement with normals Delta(0)+ union
Delta(1), the full Coxeter arrangement Delta+, and the arrangements that
drop an upper ideal of the root poset.  Regions inside the dominant cone of
the level-0 subsystem are read off from the level-1 signs of the minimal
coset representatives and are in bijection with the lower ideals of the
weight poset.  The walls that separate a chamber w^(-1)(C) from the
dominant chamber C are exactly the inversion set of w, so the arrangement
side's answer is a positive-root mask too: geometric_inversions reads an
interior point of each chamber off the permutation of w and takes the walls
of a whole batch from one integer product, without an inversion set.
numpy is used for that product and for the point counts, nowhere else.

Characteristic polynomials are computed by exact point counts over the
prime fields F_q with q above the Coxeter number h.  By Kamiya-Takemura-Terao
(2010) the lcm period of the characteristic quasi-polynomial of a root-system
arrangement is the lcm of the coefficients of the highest root theta, and
that of any subset of Delta+ divides it, so the count at a prime dividing no
coefficient of theta is chi(q).  Those coefficients are at most 6, and one
above 2 occurs only where h >= 6, so every prime above h will do.  As
chi = (t - 1) * chibar with chibar monic, rank-1 such primes interpolate it,
its t^(n-1) coefficient must be -|A|, and one more prime confirms it.
A count never visits all of F_q^n: a nonempty central complement is stable
under F_q^*, so only points whose first nonzero coordinate is 1 are counted,
fibred over the last coordinate, for about q^(n-2) steps per normal.

An arrangement is the pair (rs, mask): its normals are the positive roots
whose bits are set, read off by RootSystem.roots_of, so equal sets of
normals are equal arrangements and every constructor is a mask expression.
The root poset and the characteristic polynomials depend only on the root
system (memoised by build) and the mask, so each is a functools.cache and
is computed once per process; heights are read from RootSystem.heights.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import isqrt
from typing import Sequence

import numpy as np

from . import ideals as ideals_mod
from . import weyl as weyl_mod
from .grading import Grading
from .ideals import Ideal, iter_downclosed, order_masks
from .polys import Poly, from_int_roots, interpolate, mul, value
from .rootsys import BUDGET, Root, RootSystem, check_budget, dual_partition


@dataclass(frozen=True)
class Arrangement:
    """A central arrangement whose normals are the positive roots of a mask."""

    rs: RootSystem
    mask: int

    def __post_init__(self) -> None:
        if not 0 <= self.mask < 1 << len(self.rs.positive_roots):
            raise ValueError(f"{self.mask} is not a positive-root mask of {self.rs.cartan_type}")

    @property
    def normals(self) -> tuple[Root, ...]:
        """The normals, in canonical order."""
        return self.rs.roots_of(self.mask)


def sub_arrangement_01(g: Grading) -> Arrangement:
    return Arrangement(g.rs, g.delta0_mask | g.delta1_mask)


def coxeter_arrangement(rs: RootSystem) -> Arrangement:
    return Arrangement(rs, (1 << len(rs.positive_roots)) - 1)


@cache
def root_poset_down_masks(rs: RootSystem) -> tuple[int, ...]:
    """Down-sets in the root poset (Delta+, <=), covers being differences by
    a single simple root."""
    return order_masks(rs, range(len(rs.positive_roots)), range(rs.rank))[1]


def upper_ideals_of_root_poset(rs: RootSystem) -> list[int]:
    """All upper ideals of (Delta+, <=) as positive-root masks."""
    down = root_poset_down_masks(rs)
    full = (1 << len(rs.positive_roots)) - 1
    return [full & ~mask for mask in iter_downclosed(down)]


def ideal_arrangement(rs: RootSystem, upper_mask: int) -> Arrangement:
    """The arrangement whose normals are the positive roots outside an upper
    ideal of the root poset."""
    down = root_poset_down_masks(rs)
    for j in range(len(rs.positive_roots)):
        if not upper_mask >> j & 1 and down[j] & upper_mask:
            raise ValueError("mask is not an upper ideal of the root poset")
    return Arrangement(rs, (1 << len(rs.positive_roots)) - 1 & ~upper_mask)


def deleted_arrangement(rs: RootSystem) -> Arrangement:
    """The Coxeter arrangement minus the highest-root hyperplane."""
    theta_mask = 1 << rs.index[rs.theta.coords]
    return ideal_arrangement(rs, theta_mask)


# -- regions of the level-(0,1) arrangement -----------------------------


@dataclass
class Region:
    """A region inside the level-0 dominant cone, i.e. a fiber of chambers."""

    ideal: Ideal
    chambers: list[weyl_mod.WeylElement]  # sorted by increasing length


def regions_in_dominant_chamber(g: Grading) -> list[Region]:
    """Group the minimal coset representatives by their level-1 signs; each
    group is one region, labelled by a lower ideal."""
    table = weyl_mod.enumerate_W0(g)
    elements = table.elements()
    p = ideals_mod.weight_poset(g, 1)
    return [
        Region(
            ideal=Ideal(p, tau_mask),
            chambers=[elements[k] for k in table.by_tau[tau_mask]],
        )
        for tau_mask in sorted(table.by_tau)
    ]


def geometric_inversions(rs: RootSystem, elements: Sequence[weyl_mod.WeylElement]) -> list[int]:
    """The walls that separate each chamber w^(-1)(dominant) from the
    dominant one, as a positive-root mask per element: the gamma > 0 with
    <p, gamma> < 0 at an interior point p, the inverse image of the sum of
    fundamental coweights.

    In coweight coordinates p has coordinates ht(w(alpha_j)), read off the
    permutation of w at the simple roots, so the pairings of the batch with
    every positive root are one integer product, points x roots^T; it is
    exact in int64, each entry being at most rank * h * 6 in size.  It never
    reads an inversion set, so it is a second route to the masks that
    inversion sets give.
    """
    heights = rs.heights
    points = np.array(
        [[heights[w.perm[k]] for k in rs.simple_indices] for w in elements],
        dtype=np.int64,
    ).reshape(len(elements), rs.rank)
    values = points @ np.array([r.coords for r in rs.positive_roots], dtype=np.int64).T
    if not values.all():
        _, c = np.argwhere(values == 0)[0]
        raise ValueError(f"chamber point lies on the hyperplane of {rs.positive_roots[c]}")
    rows = np.packbits(values < 0, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


# -- characteristic polynomials by finite-field point counts ------------


def good_primes(rs: RootSystem, count: int) -> list[int]:
    """The first count primes above the Coxeter number; point counts at these
    primes match the rational answer (see the module docstring)."""
    out: list[int] = []
    candidate = rs.coxeter_number + 1
    while len(out) < count:
        if all(candidate % p for p in range(2, isqrt(candidate) + 1)):
            out.append(candidate)
        candidate += 1
    return out


@cache
def char_poly_points(rs: RootSystem) -> int:
    """The fibre points char_poly visits on rs, the size the budget bounds:
    sum over the primes q of good_primes of q^(n-2) + ... + q + 1.  It is
    29,024 at most up to rank 5 (B5, C5, D5) and 1,298,450 at least from
    rank 6 on (A6, D6), so the budget admits chi exactly up to rank 5."""
    n = rs.rank
    return sum(q ** (n - 2 - k) for q in good_primes(rs, n) for k in range(n - 1))


def _point_count(normals: Sequence[Root], n: int, q: int) -> int:
    """#{x in F_q^n : <x, gamma> != 0 for all normals}, with x written in
    coweight coordinates so each functional has the root's integer coords.

    The count is q-1 times that of the points whose first nonzero coordinate
    x_k is 1.  Each class k is fibred over x_n: a fibre point x' keeps q minus
    the distinct values x_n = -<x', gamma'>/c_n forbidden by the normals with
    c_n != 0, or nothing when a normal with c_n = 0 vanishes on x'.
    """
    if not normals:
        return q**n
    coords = np.array([g.coords for g in normals], dtype=np.int64) % q
    # Scaled to c_n = -1, a normal forbids exactly x_n = <x', gamma'>.
    unit = [-pow(int(c), -1, q) if c else 1 for c in coords[:, -1]]
    coords = coords * np.array(unit, dtype=np.int64)[:, None] % q
    moving = coords[:, -1] != 0
    reps = int(moving.all())  # the class k = n-1 is the single point e_n
    chunk = max(1, (1 << 18) // max(len(normals), q))  # bounds the temporaries
    for k in range(n - 1):
        size = q ** (n - 2 - k)
        for start in range(0, size, chunk):
            idx = np.arange(start, min(start + chunk, size), dtype=np.int64)
            acc = np.tile(coords[:, k], (len(idx), 1))
            for col in coords[:, k + 1 : n - 1].T:
                acc += np.outer(idx % q, col)
                idx //= q
            acc %= q
            acc = acc[(acc[:, ~moving] != 0).all(axis=1)]
            hit = np.zeros((len(acc), q), dtype=bool)
            hit[np.arange(len(acc))[:, None], acc[:, moving]] = True
            reps += q * len(acc) - int(hit.sum())
    return (q - 1) * reps


@cache
def char_poly(arr: Arrangement) -> Poly:
    """Characteristic polynomial from n point counts at primes above h: the
    count over q - 1 at n - 1 primes interpolates chibar - t^(n-1) (see the
    module docstring); computed once per arrangement."""
    n, normals = arr.rs.rank, arr.normals
    check_budget(char_poly_points(arr.rs), f"char_poly fibre points on {arr.rs.cartan_type}")
    if not normals:
        return (0,) * n + (1,)
    *primes, q_check = good_primes(arr.rs, n)
    low = interpolate(
        [(q, _point_count(normals, n, q) // (q - 1) - q ** (n - 1)) for q in primes]
    )
    # chibar is low padded to n - 1 coefficients (none at n = 1), then t^(n-1)
    chi = mul((-1, 1), (low + (0,) * n)[: n - 1] + (1,))
    if chi[n - 1] != -len(normals):
        raise AssertionError("characteristic polynomial must be t^n - |A| t^(n-1) + ...")
    if value(chi, q_check) != _point_count(normals, n, q_check):
        raise AssertionError("interpolated polynomial fails at the verification prime")
    return chi


def zaslavsky_regions(chi: Sequence[int]) -> int:
    """Total number of regions: (-1)^deg chi(-1)."""
    return (-1) ** (len(chi) - 1) * value(chi, -1)


# -- height partitions and the exponents ---------------------------------


def height_partition(rs: RootSystem, mask: int) -> tuple[int, ...]:
    """Occurrences of each height 1, 2, ... among the positive roots of a
    mask, trailing zeros trimmed."""
    counts = [0] * (rs.coxeter_number - 1)
    for k in rs.indices_of(mask):
        counts[rs.heights[k] - 1] += 1
    while counts and not counts[-1]:
        counts.pop()
    return tuple(counts)


def conjectural_exponents(g: Grading) -> tuple[int, ...]:
    """Dual of the height partition of the level-(0,1) normals, padded with
    zeros to the rank, ascending.  These normals are an ideal subarrangement,
    so by the theorem of Abe-Barakat-Cuntz-Hoge-Terao (ABCHT) they are its
    exponents; a zero for each dimension the normals do not span."""
    dual = dual_partition(height_partition(g.rs, sub_arrangement_01(g).mask))
    return (0,) * (g.rs.rank - len(dual)) + tuple(sorted(dual))


def ideal_count_formula(g: Grading) -> Fraction:
    """Product over Delta(1) of (height+1)/height; equals the number of
    lower ideals in every type, a theorem (ABCHT)."""
    return weyl_mod.km_order(g.rs, g.delta1_mask)


def arrangement_report(g: Grading) -> dict:
    """Summary of the level-(0,1) arrangement of a grading, with the
    characteristic polynomial when its point counts are within the budget."""
    arr = sub_arrangement_01(g)
    partition = height_partition(g.rs, arr.mask)
    dual = dual_partition(partition)
    regions = regions_in_dominant_chamber(g)
    p = ideals_mod.weight_poset(g, 1)
    count = ideals_mod.count_lower_ideals(p)
    report = {
        "grading": g.spec_string(),
        "partition": list(partition),
        "dual_partition": list(dual),
        "region_count": len(regions),
        "ideal_count": count,
        "formula_value": str(ideal_count_formula(g)),
    }
    if char_poly_points(g.rs) <= BUDGET:
        chi = char_poly(arr)
        report["char_poly"] = list(chi)
        report["exponents_match"] = chi == from_int_roots(conjectural_exponents(g))
    return report


def catalan(rs: RootSystem) -> int:
    """Upper-ideal count of the root poset, from the exponents: the product
    of (h + m + 1)/(m + 1) over the exponents m."""
    num = den = 1
    for m in rs.exponents:
        num *= rs.coxeter_number + m + 1
        den *= m + 1
    assert num % den == 0
    return num // den


def upper_ideal_partition_check(rs: RootSystem) -> dict:
    """Check that, for every upper ideal of the root poset, the heights of
    the remaining roots form a partition, with a strict first step unless
    nothing remains.  Refused when the Catalan count exceeds the budget."""
    check_budget(catalan(rs), f"upper ideals of the {rs.cartan_type} root poset")
    violations = []
    total = 0
    full = (1 << len(rs.positive_roots)) - 1
    for upper in upper_ideals_of_root_poset(rs):
        total += 1
        lam = height_partition(rs, full & ~upper)
        ok = all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))
        if lam:
            ok = ok and (len(lam) == 1 or lam[0] > lam[1])
        if not ok:
            violations.append(lam)
    return {
        "type": str(rs.cartan_type),
        "upper_ideals": total,
        "violations": violations,
        "ok": not violations,
    }
