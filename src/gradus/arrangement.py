"""Hyperplane arrangements attached to a graded root system.

The central objects are the arrangement with normals Delta(0)+ union
Delta(1), the full Coxeter arrangement Delta+, and the arrangements that
drop an upper ideal of the root poset.  Regions inside the dominant cone of
the level-0 subsystem are read off from the level-1 signs of the minimal
coset representatives and are in bijection with the lower ideals of the
weight poset.  geometric_signs is a second route to those signs: it reads
an interior point of each chamber off the permutation of w and takes the
signs of a whole batch from one integer product, without an inversion set.

Characteristic polynomials are computed by exact point counts over the
prime fields F_q with q above the Coxeter number h.  By Kamiya-Takemura-Terao
(2010) the lcm period of the characteristic quasi-polynomial of a root-system
arrangement is the lcm of the coefficients of the highest root theta, and
that of any subset of Delta+ divides it, so the count at a prime dividing no
coefficient of theta is chi(q).  Those coefficients are at most 6, and one
above 2 occurs only where h >= 6, so every prime above h will do.  The
polynomial is interpolated from rank+1 such primes and confirmed on one more.
A count never visits all of F_q^n: a nonempty central complement is stable
under F_q^*, so only points whose first nonzero coordinate is 1 are counted,
fibred over the last coordinate, for about q^(n-2) steps per normal.

The root poset, the signed heights and the characteristic polynomials depend
only on the root system (memoised by build) and the normals, so each is a
functools.cache and is computed once per process.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import isqrt
from typing import Iterable, Optional, Sequence

import numpy as np

from . import ideals as ideals_mod
from . import weyl as weyl_mod
from .grading import Grading
from .ideals import Ideal, iter_downclosed, order_masks
from .polys import Poly, from_int_roots, interpolate, value
from .rootsys import Root, RootSystem, dual_partition

# Above rank 5 a char_poly is n + 2 point counts of about q^(n-2) * |A| steps
# each (the E6 Coxeter arrangement: about 5 s over q = 13...41 on a 2-vCPU
# VM), and the sweep over all upper ideals of the root poset stops being
# desk-sized.
CHAR_POLY_MAX_RANK = 5
UPPER_IDEAL_MAX_RANK = 5


@dataclass(frozen=True)
class Arrangement:
    """A central arrangement with root normals, in canonical order."""

    rs: RootSystem
    normals: tuple[Root, ...]

    def __post_init__(self) -> None:
        if len(set(self.normals)) != len(self.normals):
            raise ValueError("arrangement normals must be distinct")
        for r in self.normals:
            if not r.is_positive or not self.rs.is_root(r):
                raise ValueError(f"normal {r} is not a positive root")


def sub_arrangement_01(g: Grading) -> Arrangement:
    picked = tuple(
        r
        for r, lv in zip(g.rs.positive_roots, g.levels)
        if lv in (0, 1)
    )
    return Arrangement(g.rs, picked)


def coxeter_arrangement(rs: RootSystem) -> Arrangement:
    return Arrangement(rs, rs.positive_roots)


@cache
def root_poset_down_masks(rs: RootSystem) -> tuple[int, ...]:
    """Down-sets in the root poset (Delta+, <=), covers being differences by
    a single simple root."""
    return order_masks(rs.positive_roots, range(rs.rank))[1]


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
    picked = tuple(
        r for j, r in enumerate(rs.positive_roots) if not upper_mask >> j & 1
    )
    return Arrangement(rs, picked)


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
            ideal=Ideal(p, p.poset_mask(tau_mask)),
            chambers=[elements[k] for k in table.by_tau[tau_mask]],
        )
        for tau_mask in sorted(table.by_tau)
    ]


@cache
def _signed_heights(rs: RootSystem) -> tuple[int, ...]:
    """Height of each root of rs.roots(), indexed as permutations index it."""
    heights = tuple(r.height for r in rs.positive_roots)
    return heights + tuple(-h for h in heights)


def geometric_signs(
    g: Grading,
    elements: Sequence[weyl_mod.WeylElement],
    normals: Optional[Sequence[Root]] = None,
) -> np.ndarray:
    """Signs of each chamber w^(-1)(dominant) against each hyperplane, from
    an interior point: the inverse image of the sum of fundamental coweights.
    Row r holds the signs of elements[r], column c those against normals[c].

    In coweight coordinates that point has coordinates ht(w(alpha_j)), read
    off the permutation of w at the simple roots, so every sign of the batch
    comes from one integer product, points x normals^T; it is exact in int64,
    each entry being at most rank * h * 6 in size.  It never reads an
    inversion set, so it is a second route to the signs that inversion masks
    give.
    """
    if normals is None:
        normals = sub_arrangement_01(g).normals
    rs = g.rs
    heights = _signed_heights(rs)
    points = np.array(
        [[heights[w.perm[k]] for k in rs.simple_indices] for w in elements],
        dtype=np.int64,
    ).reshape(len(elements), rs.rank)
    coords = np.array([gamma.coords for gamma in normals], dtype=np.int64)
    values = points @ coords.reshape(len(normals), rs.rank).T
    if not values.all():
        _, c = np.argwhere(values == 0)[0]
        raise ValueError(f"chamber point lies on the hyperplane of {normals[c]}")
    return np.sign(values)


def geometric_sign_oracle(
    g: Grading, w: weyl_mod.WeylElement, normals: Optional[Sequence[Root]] = None
) -> tuple[int, ...]:
    """The signs of geometric_signs for the single element w."""
    return tuple(int(s) for s in geometric_signs(g, [w], normals)[0])


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
    """Characteristic polynomial via point counts over primes above h, with
    an extra prime confirming the interpolation; computed once per arrangement."""
    n = arr.rs.rank
    if n > CHAR_POLY_MAX_RANK:
        raise ValueError(
            f"rank {n} exceeds the char_poly bound {CHAR_POLY_MAX_RANK}: {n + 2} point "
            f"counts at primes q > {arr.rs.coxeter_number}, each of about "
            f"q^{n - 2} * {len(arr.normals)} steps"
        )
    primes = good_primes(arr.rs, n + 2)
    points = [(q, _point_count(arr.normals, n, q)) for q in primes[: n + 1]]
    chi = interpolate(points)
    if len(chi) != n + 1 or chi[-1] != 1:
        raise AssertionError("characteristic polynomial must be monic of full degree")
    q_check = primes[n + 1]
    if value(chi, q_check) != _point_count(arr.normals, n, q_check):
        raise AssertionError("interpolated polynomial fails at the verification prime")
    return chi


def zaslavsky_regions(chi: Sequence[int]) -> int:
    """Total number of regions: (-1)^deg chi(-1)."""
    return (-1) ** (len(chi) - 1) * value(chi, -1)


# -- height partitions and the exponents ---------------------------------


def height_partition(roots: Iterable[Root]) -> tuple[int, ...]:
    """Occurrences of each height 1, 2, ..., trailing zeros trimmed."""
    counts: dict[int, int] = {}
    for r in roots:
        counts[r.height] = counts.get(r.height, 0) + 1
    if not counts:
        return ()
    return tuple(counts.get(i, 0) for i in range(1, max(counts) + 1))


def conjectural_exponents(g: Grading) -> tuple[int, ...]:
    """Dual of the height partition of the level-(0,1) normals, ascending.
    These normals are an ideal subarrangement, so by the theorem of
    Abe-Barakat-Cuntz-Hoge-Terao (ABCHT) they are its exponents."""
    return tuple(sorted(dual_partition(height_partition(sub_arrangement_01(g).normals))))


def ideal_count_formula(g: Grading) -> Fraction:
    """Product over Delta(1) of (height+1)/height; equals the number of
    lower ideals in every type, a theorem (ABCHT)."""
    return weyl_mod.km_order(g.rs, g.slice(1))


def arrangement_report(g: Grading) -> dict:
    """Summary of the level-(0,1) arrangement of a grading, with the
    characteristic polynomial up to rank CHAR_POLY_MAX_RANK."""
    arr = sub_arrangement_01(g)
    partition = height_partition(arr.normals)
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
    if g.rs.rank <= CHAR_POLY_MAX_RANK:
        chi = char_poly(arr)
        report["char_poly"] = list(chi)
        report["exponents_match"] = chi == from_int_roots(sorted(dual))
    return report


def upper_ideal_partition_check(rs: RootSystem) -> dict:
    """Check that, for every upper ideal of the root poset, the heights of
    the remaining roots form a partition, with a strict first step unless
    nothing remains."""
    if rs.rank > UPPER_IDEAL_MAX_RANK:
        raise ValueError(f"upper-ideal sweep is bounded at rank {UPPER_IDEAL_MAX_RANK}")
    violations = []
    total = 0
    for upper in upper_ideals_of_root_poset(rs):
        total += 1
        rest = [r for j, r in enumerate(rs.positive_roots) if not upper >> j & 1]
        lam = height_partition(rest)
        ok = all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))
        if rest:
            ok = ok and (len(lam) == 1 or lam[0] > lam[1])
        if not ok:
            violations.append(lam)
    return {
        "type": str(rs.cartan_type),
        "upper_ideals": total,
        "violations": violations,
        "ok": not violations,
    }
