"""Dense integer polynomials as coefficient tuples, constant term first."""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

Poly = tuple[int, ...]


def trimmed(coeffs: Iterable[int]) -> Poly:
    out = list(coeffs)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def mul(a: Sequence[int], b: Sequence[int]) -> Poly:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return trimmed(out)


def divexact(num: Sequence[int], den: Sequence[int]) -> Poly:
    """Quotient num/den by long division over Z; raises ValueError unless exact."""
    den = trimmed(den)
    if den == (0,):
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(trimmed(num))
    quot = [0] * max(1, len(rem) - len(den) + 1)
    for k in range(len(rem) - len(den), -1, -1):
        c, r = divmod(rem[k + len(den) - 1], den[-1])
        if r:
            raise ValueError("quotient is not an integer polynomial")
        quot[k] = c
        for j, dj in enumerate(den):
            rem[k + j] -= c * dj
    if any(rem):
        raise ValueError("inexact polynomial division")
    return trimmed(quot)


def value(p: Sequence[int], x):
    """Evaluate at x (int or Fraction) by Horner's rule."""
    acc = x - x  # zero of the right type
    for c in reversed(p):
        acc = acc * x + c
    return acc


def from_exponent_counts(exponents: Iterable[int]) -> Poly:
    """Histogram polynomial sum_k t^e_k, e.g. from a list of lengths."""
    counts = Counter(exponents)
    out = [0] * (max(counts, default=0) + 1)
    for e, c in counts.items():
        out[e] = c
    return trimmed(out)


def from_int_roots(roots: Iterable[int]) -> Poly:
    """Expand prod (t - r) over the given integer roots."""
    p: Poly = (1,)
    for r in roots:
        p = mul(p, (-r, 1))
    return p


def interpolate(points: Sequence[tuple[int, int]]) -> Poly:
    """Exact interpolation by Newton divided differences in integers; raises
    unless the interpolant is an integer polynomial.  At integer nodes the
    divided differences of an integer polynomial are integers, and a Newton
    form with integer coefficients and nodes is one, so a divided difference
    that is not an integer occurs exactly when the interpolant is not."""
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    diffs = [y for _, y in points]  # diffs[i] becomes f[x_0, ..., x_i]
    for k in range(1, len(xs)):
        for i in range(len(xs) - 1, k - 1, -1):
            diffs[i], r = divmod(diffs[i] - diffs[i - 1], xs[i] - xs[i - k])
            if r:
                raise ValueError("interpolant is not an integer polynomial")
    out = [0]
    for x, c in zip(reversed(xs), reversed(diffs)):  # Horner on the Newton form
        out = [c - x * out[0]] + [a - x * b for a, b in zip(out, out[1:])] + [out[-1]]
    return trimmed(out)


def to_str(p: Sequence[int]) -> str:
    """Render with ascending powers, e.g. '1 + 2t + t^3'."""
    terms = []
    for k, c in enumerate(trimmed(p)):
        if c == 0 and not (k == 0 and len(trimmed(p)) == 1):
            continue
        if k == 0:
            body = str(abs(c))
        else:
            head = "" if abs(c) == 1 else str(abs(c))
            body = f"{head}t" if k == 1 else f"{head}t^{k}"
        if not terms:
            terms.append(body if c >= 0 else f"-{body}")
        else:
            terms.append(f"+ {body}" if c >= 0 else f"- {body}")
    return " ".join(terms) if terms else "0"
