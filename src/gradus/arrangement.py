"""Hyperplane arrangements attached to a graded root system.

The central objects are the arrangement with normals Delta(0)+ union
Delta(1), the full Coxeter arrangement Delta+, and the arrangements that
drop an upper ideal of the root poset.  A region inside the dominant cone
of the level-0 subsystem is the set of chambers of the minimal coset
representatives with one set of level-1 signs, a fiber of tau, so the
regions are the fibers of the coset table (CosetTable.by_tau) and are in
bijection with the lower ideals of the weight poset.  The walls that
separate a chamber w^(-1)(C) from the dominant chamber C are exactly the
inversion set of w, so the arrangement side's answer is a positive-root
mask too: geometric_inversions reads an interior point of each chamber off
the permutation of w and takes the walls of a batch from one packed integer
per chamber, without an inversion set.

Characteristic polynomials are computed by exact point counts over the
prime fields F_q.  By Kamiya-Takemura-Terao (2008, 2010) the count over
Z/qZ is a quasi-polynomial in q whose constituent at q coprime to its lcm
period is chi(q); the period of Delta+ is the lcm of the coefficients of the
highest root theta, and that of any subset of Delta+ divides it, as its
minors are minors of Delta+.  So the count at any prime dividing no
coefficient of theta is chi(q), and good_primes takes the smallest such
primes: from 2 in type A, and from 7 at the latest (E8).  As
chi = (t - 1) * chibar with chibar monic and chi's t^(n-1) coefficient is
-|A|, chibar = t^(n-1) + (1 - |A|) t^(n-2) + (terms of degree < n - 2):
n - 2 such primes interpolate the rest and one more prime confirms chi, so
rank n takes max(n - 1, 1) counts.
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
from operator import add, getitem
from typing import Sequence

from . import ideals as ideals_mod
from . import weyl as weyl_mod
from .grading import Grading
from .ideals import iter_downclosed, order_masks
from .polys import Poly, from_int_roots, interpolate, mul, value
from .rootsys import BudgetExceeded, Root, RootSystem, check_budget, dual_partition


@dataclass(frozen=True)
class Arrangement:
    """A central arrangement whose normals are the positive roots of a mask."""

    rs: RootSystem
    mask: int

    def __post_init__(self) -> None:
        self.rs.require_mask(self.mask)

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
    rs.require_mask(upper_mask)
    down = root_poset_down_masks(rs)
    for j in range(len(rs.positive_roots)):
        if not upper_mask >> j & 1 and down[j] & upper_mask:
            raise ValueError("mask is not an upper ideal of the root poset")
    return Arrangement(rs, (1 << len(rs.positive_roots)) - 1 & ~upper_mask)


def deleted_arrangement(rs: RootSystem) -> Arrangement:
    """The Coxeter arrangement minus the highest-root hyperplane."""
    theta_mask = 1 << rs.index[rs.theta.coords]
    return ideal_arrangement(rs, theta_mask)


# -- the walls of a chamber ---------------------------------------------


@cache
def _wall_lanes(rs: RootSystem) -> tuple[int, tuple[tuple[int, ...], ...], int, int]:
    """The lane width W; per simple root j the products ht(root k) * C_j
    over every root index k, where the packed column C_j holds c_j(gamma)
    in lane gamma (bits W * gamma on); and the packed bias and ones of every
    lane.  A pairing is at most rank * (h - 1) * max coefficient of theta in
    size, which the bias 2^(W-1) exceeds, so each biased lane stays in
    [1, 2^W)."""
    bound = rs.rank * (rs.coxeter_number - 1) * max(rs.theta.coords)
    width = bound.bit_length() + 1
    roots = rs.positive_roots
    products = tuple(
        tuple(height * sum(r.coords[j] << width * k for k, r in enumerate(roots))
              for height in rs.heights)
        for j in range(rs.rank)
    )
    ones = sum(1 << width * k for k in range(len(roots)))
    return width, products, ones << width - 1, ones


def geometric_inversions(rs: RootSystem, elements: Sequence[weyl_mod.WeylElement]) -> list[int]:
    """The walls that separate each chamber w^(-1)(dominant) from the
    dominant one, as a positive-root mask per element: the gamma > 0 with
    <p, gamma> < 0 at an interior point p, the inverse image of the sum of
    fundamental coweights.

    In coweight coordinates p has coordinates ht(w(alpha_j)), read off the
    permutation of w at the simple roots, so the pairings with every
    positive root are one sum over j of ht(w(alpha_j)) * C_j, each lane
    holding bias + <p, gamma> (see _wall_lanes).  A lane is negative where
    its top bit is clear, and zero where subtracting one flips that bit.  It
    never reads an inversion set, so it is a second route to the masks that
    inversion sets give.
    """
    width, products, bias, ones = _wall_lanes(rs)
    pairs = tuple(zip(products, rs.simple_indices))
    digits = f"0{width * len(rs.positive_roots)}b"
    full = (1 << len(rs.positive_roots)) - 1
    out = []
    for w in elements:
        perm = w.perm
        packed = sum([row[perm[k]] for row, k in pairs], bias)
        if (packed ^ (packed - ones)) & bias:  # the bias is the top bit of every lane
            zero = _top_bits(packed ^ (packed - ones), width, digits)
            raise ValueError(
                "chamber point lies on the hyperplane of "
                f"{rs.positive_roots[(zero & -zero).bit_length() - 1]}"
            )
        out.append(full ^ _top_bits(packed, width, digits))
    return out


def _top_bits(packed: int, width: int, digits: str) -> int:
    """The mask of the lanes of packed whose top bit is set."""
    return int(format(packed, digits)[::width], 2)


# -- characteristic polynomials by finite-field point counts ------------


def good_primes(rs: RootSystem, count: int) -> list[int]:
    """The first count primes dividing no coefficient of theta: from 2 in
    type A (and D3, which is A3), from 3 in types B, C and D, from 5 in E6,
    E7, F4 and G2 and from 7 in E8.  Point counts at these primes are chi(q)
    (see the module docstring)."""
    out: list[int] = []
    candidate = 2
    while len(out) < count:
        if all(candidate % p for p in range(2, isqrt(candidate) + 1)) and all(
            c % candidate for c in rs.theta.coords
        ):
            out.append(candidate)
        candidate += 1
    return out


@cache
def char_poly_points(rs: RootSystem) -> int:
    """The fibre points char_poly visits on rs, the size the budget bounds:
    over the primes q that char_poly counts at, the sum of q^(n-2) + ... +
    q + 1.  It is 2,060 at most up to rank 5 (B5, C5, D5), 19,839 at A6,
    50,749 at B6, C6 and D6 and 139,369 at E6, so the budget admits chi
    exactly up to rank 5, at A6 and at B6, C6 and D6."""
    n = rs.rank
    return sum(q ** (n - 2 - k) for q in good_primes(rs, max(n - 1, 1)) for k in range(n - 1))


_EVERY = -1  # the kill of a static normal that vanishes at every x


def _point_count(normals: Sequence[Root], n: int, q: int) -> int:
    """#{x in F_q^n : <x, gamma> != 0 for all normals}, with x written in
    coweight coordinates so each functional has the root's integer coords.

    The count is q-1 times that of the points whose first nonzero coordinate
    x_k is 1.  Each class k is fibred over x_n: a fibre point x' keeps q minus
    the distinct values x_n = -<x', gamma'>/c_n forbidden by the moving
    normals (c_n != 0), or nothing when a static normal (c_n = 0) vanishes
    on x'.  The values of the distinct normals at a fibre point are one
    tuple, built a coordinate at a time by adding x_j * c_j and folding
    [0, 2q) back to [0, q); along the last free coordinate a static normal
    vanishes at one x_j, or at every one or none when its c_j is 0.
    """
    if not normals:
        return q**n
    moving, static = set(), set()
    for gamma in normals:
        c = [x % q for x in gamma.coords]
        if c[-1]:
            # Scaled to c_n = -1, a normal forbids exactly x_n = <x', gamma'>.
            unit = -pow(c[-1], -1, q)
            moving.add(tuple(x * unit % q for x in c[:-1]))
        else:
            static.add(tuple(c[:-1]))
    reps = 0 if static else 1  # the class k = n-1 is the single point e_n
    fold = (tuple(range(q)) * 2).__getitem__
    for k in range(n - 1):
        # The class x_0 = ... = x_(k-1) = 0, x_k = 1 sees only c_k ... c_(n-2).
        stat = list({c[k:] for c in static})
        mov = list({c[k:] for c in moving})
        if k == n - 2:  # a single fibre point
            if all(c[0] for c in stat):
                reps += q - len({c[0] for c in mov})
            continue
        both, s, last = stat + mov, len(stat), n - 2 - k
        prefixes = [tuple(c[0] for c in both)]
        for j in range(1, last):
            rows = [tuple(x * c[j] % q for c in both) for x in range(q)]
            prefixes = [tuple(map(fold, map(add, v, r))) for v in prefixes for r in rows]
        # kills[i][v]: the x_last at which static normal i, at value v on the
        # prefix, vanishes; _EVERY when its c_last is 0 and v is 0.
        kills = [
            [-v * pow(c[last], -1, q) % q for v in range(q)]
            if c[last] else [_EVERY] + [None] * (q - 1)
            for c in stat
        ]
        steps = [tuple(x * c[last] % q for c in mov) for x in range(q)]
        for v in prefixes:
            killed = set(map(getitem, kills, v[:s]))
            if _EVERY in killed:
                continue
            moved = v[s:]
            for x, step in enumerate(steps):
                if x not in killed:
                    reps += q - len(set(map(fold, map(add, moved, step))))
    return (q - 1) * reps


@cache
def char_poly(arr: Arrangement) -> Poly:
    """Characteristic polynomial from max(n - 1, 1) point counts at the
    primes of good_primes: the count over q - 1 at n - 2 primes interpolates
    chibar - t^(n-1) - (1 - |A|) t^(n-2), and one more prime confirms chi
    (see the module docstring); computed once per arrangement."""
    n, normals = arr.rs.rank, arr.normals
    check_budget(char_poly_points(arr.rs), f"char_poly fibre points on {arr.rs.cartan_type}")
    if not normals:
        return (0,) * n + (1,)
    *primes, q_check = good_primes(arr.rs, max(n - 1, 1))
    # the t^(n-2) and t^(n-1) coefficients of chibar, which is 1 at n = 1
    top = (1 - len(normals), 1) if n > 1 else (1,)
    low = interpolate([(q, _point_count(normals, n, q) // (q - 1) - value(top, q) * q ** (n - 2))
                       for q in primes])
    # chibar is low padded to its n - 2 coefficients (one per prime), then top
    chi = mul((-1, 1), (low + (0,) * n)[: len(primes)] + top)
    if value(chi, q_check) != _point_count(normals, n, q_check):
        raise AssertionError("interpolated polynomial fails at the verification prime")
    return chi


def zaslavsky_regions(chi: Sequence[int]) -> int:
    """Total number of regions: (-1)^deg chi(-1)."""
    return (-1) ** (len(chi) - 1) * value(chi, -1)


# -- height partitions and the exponents ---------------------------------


def conjectural_exponents(g: Grading) -> tuple[int, ...]:
    """Dual of the height partition of the level-(0,1) normals, padded with
    zeros to the rank, ascending.  These normals are an ideal subarrangement,
    so by the theorem of Abe-Barakat-Cuntz-Hoge-Terao (ABCHT) they are its
    exponents; a zero for each dimension the normals do not span."""
    dual = dual_partition(g.rs.height_partition(sub_arrangement_01(g).mask))
    return (0,) * (g.rs.rank - len(dual)) + tuple(sorted(dual))


def ideal_count_formula(g: Grading) -> Fraction:
    """Product over Delta(1) of (height+1)/height; equals the number of
    lower ideals in every type, a theorem (ABCHT)."""
    return weyl_mod.km_order(g.rs, g.delta1_mask)


def arrangement_report(g: Grading) -> dict:
    """Summary of the level-(0,1) arrangement of a grading, with the
    characteristic polynomial when its point counts are within the budget."""
    arr = sub_arrangement_01(g)
    partition = g.rs.height_partition(arr.mask)
    dual = dual_partition(partition)
    p = ideals_mod.weight_poset(g, 1)
    count = ideals_mod.count_lower_ideals(p)
    report = {
        "grading": g.spec_string(),
        "partition": list(partition),
        "dual_partition": list(dual),
        "region_count": len(weyl_mod.enumerate_W0(g).by_tau),
        "ideal_count": count,
        "formula_value": str(ideal_count_formula(g)),
    }
    try:
        chi = char_poly(arr)
    except BudgetExceeded:
        return report
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
    if num % den:
        raise AssertionError(f"Catalan number of {rs.cartan_type} is not an integer")
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
        lam = rs.height_partition(full & ~upper)
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
