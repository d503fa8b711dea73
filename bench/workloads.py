"""The benchmark workloads.

A workload turns a seed into inputs (its set-up), then runs one pass: a
list of operations against the gradus package.  Each operation returns the
program's output; after the pass each output is checked (no failing check
row, or a digest equal to the value recorded from the seed commit in
``reference.json``), and further values read back from the package are
compared with the reference too.  The seed and the pass number only order
the inputs (and, for ``session``, draw the query sequence), so every seed
does the same amount of work.

Operations:

- ``sweep``: one check suite on one root system;
- ``charpoly``: the ``charpoly`` suite on one root system;
- ``session``: one ``gradus.cli.main`` query.

A suite operation drains the suite's row generator from ``checks.SUITES``,
as ``checks.run`` does (its only other step, skipping suites above rank 5,
never applies here), and also times each block of rows about one subject:
the type, or one grading.  Those blocks are the latencies the percentiles
are taken over; a session's latencies are its queries.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
POOL_PATH = BENCH_DIR / "pool.json"
REFERENCE_PATH = BENCH_DIR / "reference.json"

MAX_RANK = 4
# Every pool query appears this many times in a session, so cross-query
# caches get repeats to hit while the mix stays the same for every seed.
SESSION_REPEATS = 2


class Op:
    """One timed call, ``run()``.  Its output is checked afterwards: check
    rows (``digest`` None) must all pass; any other output is reduced by
    ``digest`` and compared with the reference value at ``key``."""

    __slots__ = ("label", "run", "key", "digest")

    def __init__(self, label, run, key=None, digest=None):
        self.label = label
        self.run = run
        self.key = key
        self.digest = digest

    def check(self, output, reference: dict) -> str | None:
        """What is wrong with the output, or None."""
        if self.digest is None:
            bad = [r for r in output if row_failed(r)]
            return f"{len(bad)} failing rows, first {bad[0]}" if bad else None
        got = self.digest(output)
        if got != reference.get(self.key):
            return f"got {got!r}, reference {reference.get(self.key)!r}"
        return None


class TimedRows(list):
    """A suite call's rows, with ``blocks``: (label, seconds) for each run
    of consecutive rows about one subject, timed from the end of the run
    before it, so every moment of the call is charged to one block."""

    blocks: list[tuple[str, float]] = []


def timed_rows(label: str, rows) -> TimedRows:
    out, blocks = TimedRows(), []
    clock = time.perf_counter
    last = clock()
    for row in rows:
        now = clock()
        if not out or row.subject != out[-1].subject:
            blocks.append([f"{label} #{len(blocks)} {row.subject}", 0.0])
        blocks[-1][1] += now - last
        last = now
        out.append(row)
    if blocks:
        blocks[-1][1] += clock() - last
    out.blocks = [tuple(b) for b in blocks]
    return out


def row_failed(row) -> bool:
    """A check row that reports failure; rows that carry a status instead
    of a verdict fail only with status "fail"."""
    status = getattr(row, "status", None)
    return status == "fail" if status is not None else not row.ok


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def exponents(type_name: str) -> list[int]:
    """Exponents of an irreducible Weyl group from the classification, as an
    oracle that does not use the package."""
    family, n = type_name[0], int(type_name[1:])
    if family == "A":
        return list(range(1, n + 1))
    if family in "BC":
        return list(range(1, 2 * n, 2))
    if family == "D":
        return sorted(list(range(1, 2 * n - 2, 2)) + [n - 1])
    return {"G2": [1, 5], "F4": [1, 5, 7, 11]}[type_name]


def product_of_linear_factors(roots) -> list[int]:
    """Coefficients, constant term first, of prod (t - r)."""
    poly = [1]
    for r in roots:
        shifted = [0] + poly
        for k, c in enumerate(poly):
            shifted[k] -= r * c
        poly = shifted
    return poly


class Workload:
    """Inputs from ``(seed, child)``, built by the constructor (the set-up),
    and one pass of operations over them."""

    name = ""
    # Whether the pass's times are scaled to the reference speed by the
    # calibration chunk, which is pure-Python work like this workload's.
    # Set-up times are scaled on every workload.
    scaled = True

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def observed(self) -> dict:
        """Values read back from the package after the pass, keyed as in the
        reference; each key is one comparison."""
        return {}

    def identities(self) -> list[tuple[str, bool]]:
        """Checks against oracles kept in the benchmark itself."""
        return []

    def sizes(self) -> dict:
        return {}


class _SuiteWorkload(Workload):
    suites: tuple[str, ...] = ()

    def __init__(self, seed: int, child: int = 0):
        from gradus import checks

        names = checks.default_types(MAX_RANK)
        # Each pass gets its own order.  The first types of a pass run
        # slower (the interpreter and the package's caches are cold), so
        # with one order per run a type's blocks would read slow or fast
        # depending on the seed.
        random.Random(f"{seed}:{child}").shuffle(names)
        self.targets = checks.targets_for(names)

    def ops(self) -> list[Op]:
        from gradus import checks

        out = []
        for rs, gradings in self.targets:
            for suite in self.suites:
                label = f"{suite} {rs.cartan_type}"
                out.append(Op(label, lambda rs=rs, gs=gradings, s=suite, label=label:
                              timed_rows(label, checks.SUITES[s](rs, gs))))
        return out

    def gradings(self):
        return [g for _, gs in self.targets for g in gs]

    def observed(self) -> dict:
        from gradus import ideals, weyl

        out = {}
        for g in self.gradings():
            spec = g.spec_string()
            out[f"ideals {spec}"] = ideals.count_lower_ideals(ideals.weight_poset(g, 1))
            out[f"cosets {spec}"] = len(weyl.enumerate_W0(g))
        return out

    def sizes(self) -> dict:
        return {"types": len(self.targets), "gradings": len(self.gradings())}


class Sweep(_SuiteWorkload):
    name = "sweep"

    def __init__(self, seed: int, child: int = 0):
        from gradus import checks

        self.suites = tuple(s for s in checks.SUITES if s != "charpoly")
        super().__init__(seed, child)


class Charpoly(_SuiteWorkload):
    name = "charpoly"
    suites = ("charpoly",)
    # Most of the time is numpy's vectorised point counting, which slows
    # down differently from the pure-Python chunk, and the chunk can only
    # run between the 14 calls, so it misses most of the pass.  Scaled, the
    # p50 spread by 0.088 over five runs; unscaled, by 0.023.
    scaled = False

    def _chis(self) -> dict:
        from gradus import arrangement

        out = {}
        for rs, gradings in self.targets:
            t = str(rs.cartan_type)
            out[f"chi coxeter {t}"] = arrangement.char_poly(arrangement.coxeter_arrangement(rs))
            out[f"chi deleted {t}"] = arrangement.char_poly(arrangement.deleted_arrangement(rs))
            for g in gradings:
                out[f"chi {g.spec_string()}"] = arrangement.char_poly(
                    arrangement.sub_arrangement_01(g)
                )
        return out

    def observed(self) -> dict:
        out = super().observed()
        out.update({k: list(v) for k, v in self._chis().items()})
        return out

    def identities(self) -> list[tuple[str, bool]]:
        chis = self._chis()
        return [
            (f"chi coxeter {t} = prod(t - m_i)",
             list(chis[f"chi coxeter {t}"]) == product_of_linear_factors(exponents(t)))
            for t in (str(rs.cartan_type) for rs, _ in self.targets)
        ]

    def sizes(self) -> dict:
        return {**super().sizes(), "arrangements": 2 * len(self.targets) + len(self.gradings())}


class Session(Workload):
    """One client in a closed loop: each query starts when the previous one
    has returned."""

    name = "session"

    def __init__(self, seed: int, child: int = 0):
        self.pool = json.loads(POOL_PATH.read_text())
        order = list(range(len(self.pool))) * SESSION_REPEATS
        random.Random(f"{seed}:{child}").shuffle(order)
        self.order = order

    def ops(self) -> list[Op]:
        return [
            Op(f"query {' '.join(self.pool[i])}", lambda argv=self.pool[i]: query(argv),
               " ".join(self.pool[i]), _query_digest)
            for i in self.order
        ]

    def sizes(self) -> dict:
        return {"queries": len(self.order), "distinct": len(set(self.order))}


def query(argv: list[str]) -> tuple[int, str]:
    """Run one CLI call in process with stdout captured."""
    from gradus import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _query_digest(output: tuple[int, str]) -> str:
    rc, text = output
    return f"exit {rc} sha256 {_sha(text)}"


WORKLOADS = {w.name: w for w in (Sweep, Charpoly, Session)}


def build_pool() -> list[list[str]]:
    """The session's query pool: every single-node grading of rank <= 5,
    plus E6 single-node and the extra-special gradings, each asked for
    show, ideals, one element, weyl (rank <= 5, so not E6) and arrangement
    (rank <= 3).
    The element query uses the middle ideal of the enumeration order."""
    from gradus import checks, ideals
    from gradus.grading import extra_special, parse_grading_spec
    from gradus.rootsys import build

    specs = []
    for t in checks.default_types(5) + ["E6"]:
        rs = build(t)
        singles = []
        for i in range(rs.rank):
            marks = tuple(int(j == i) for j in range(rs.rank))
            singles.append(marks)
            specs.append(f"{t}:{','.join(map(str, marks))}")
        es = extra_special(rs)
        if es.marks not in singles and es.level_mask(1):
            specs.append(f"{t}:es")
    pool = []
    for spec in specs:
        g = parse_grading_spec(spec)
        found = list(ideals.iter_lower_ideals(ideals.weight_poset(g, 1)))
        middle = found[len(found) // 2]
        pool.append(["show", spec, "--json"])
        pool.append(["ideals", spec, "--list", "--poly", "--json"])
        pool.append(["element", spec, "--ideal", ",".join(str(r) for r in middle.roots()), "--json"])
        if g.rs.rank <= 5:
            pool.append(["weyl", spec, "--min", "--max", "--json"])
        if g.rs.rank <= 3:
            pool.append(["arrangement", spec, "--json"])
    return pool
