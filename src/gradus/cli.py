"""Command line surface.

Subcommands mirror the library layers: `show` for a grading summary,
`ideals` for weight-poset enumeration, `weyl` for coset statistics,
`element` for the minimal/maximal representatives of one ideal,
`arrangement` for region and exponent reports, and `verify` to run the
check suites.  Output is a human table by default, or deterministic JSON
(`--json`) and CSV (`--csv`); identical invocations produce identical
bytes.

Exit codes: 0 on success, 1 when a verification suite fails, 2 for usage
or input errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from typing import Optional, Sequence

from . import arrangement as arr_mod
from . import checks
from . import ideals as ideals_mod
from . import weyl as weyl_mod
from .grading import Grading, parse_grading_spec
from .polys import to_str, value
from .rootsys import Root, RootSystem, build, parse_cartan_type


class UsageError(Exception):
    pass


# -- argument plumbing ---------------------------------------------------


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.add_argument("--csv", action="store_true", help="emit CSV")
    p.add_argument("--out", metavar="PATH", help="write output to a file")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="gradus",
        description="Exact combinatorics of graded root systems: lower "
        "ideals of the level-1 slice, minimal coset representatives, and "
        "the regions of the associated hyperplane arrangement.  Simple "
        "roots are numbered as in Bourbaki (note that other tables order "
        "the E-series nodes differently).",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("show", help="summarize a graded root system")
    p.add_argument("spec", help='grading such as "B2:0,1", "G2:es", "A3:std=1,3"')
    p.add_argument("--max-rank", type=int, default=7)
    _common_flags(p)

    p = sub.add_parser("ideals", help="enumerate lower ideals of the level-1 poset")
    p.add_argument("spec")
    p.add_argument("--list", action="store_true", help="list every ideal")
    p.add_argument("--poly", action="store_true", help="include the rank generating polynomial")
    p.add_argument("--max-rank", type=int, default=7)
    _common_flags(p)

    p = sub.add_parser("weyl", help="minimal coset representatives and their statistics")
    p.add_argument("spec")
    p.add_argument("--min", action="store_true", help="list the minimal elements per ideal")
    p.add_argument("--max", action="store_true", help="list the maximal elements per ideal")
    p.add_argument("--eta", action="store_true",
                   help="list the level vectors (single marked node only)")
    p.add_argument("--max-rank", type=int, default=7)
    _common_flags(p)

    p = sub.add_parser("element", help="minimal and maximal representative of one ideal")
    p.add_argument("spec")
    p.add_argument("--ideal", required=True, metavar="ROOTS",
                   help='comma separated roots, e.g. "a2,a1+a2"; empty for the empty ideal')
    p.add_argument("--max-rank", type=int, default=7)
    _common_flags(p)

    p = sub.add_parser("arrangement", help="regions, height partition, exponents")
    p.add_argument("spec")
    p.add_argument("--max-rank", type=int, default=7)
    _common_flags(p)

    p = sub.add_parser("verify", help="run check suites")
    p.add_argument("scope", nargs="*",
                   help='gradings ("B2:es") or bare types ("B3"); types sweep all gradings')
    p.add_argument("--all", action="store_true", help="sweep every type up to --max-rank")
    p.add_argument("--max-rank", type=int, default=4)
    p.add_argument("--suite", action="append", choices=sorted(checks.SUITES),
                   help="restrict to one suite (repeatable)")
    _common_flags(p)

    return top


def _grading_from_spec(args: argparse.Namespace) -> Grading:
    try:
        g = parse_grading_spec(args.spec)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _guard_rank(g.rs, args)
    return g


def _guard_rank(rs: RootSystem, args: argparse.Namespace) -> None:
    if rs.rank > args.max_rank:
        raise UsageError(f"rank {rs.rank} exceeds --max-rank {args.max_rank}; raise the bound")


# -- rendering -----------------------------------------------------------


def _human_lines(payload: dict, indent: str = "") -> list[str]:
    lines: list[str] = []
    for key, val in payload.items():
        if isinstance(val, dict):
            lines.append(f"{indent}{key}:")
            lines.extend(_human_lines(val, indent + "  "))
        elif isinstance(val, list) and val and isinstance(val[0], (dict, list)):
            lines.append(f"{indent}{key}:")
            for item in val:
                if isinstance(item, dict):
                    flat = ", ".join(f"{k}={v}" for k, v in item.items())
                    lines.append(f"{indent}  - {flat}")
                else:
                    lines.append(f"{indent}  - {item}")
        elif isinstance(val, list):
            lines.append(f"{indent}{key}: " + ", ".join(str(v) for v in val))
        else:
            lines.append(f"{indent}{key}: {val}")
    return lines


def _emit(args: argparse.Namespace, payload: dict,
          rows: Optional[list[dict]] = None,
          lines: Optional[list[str]] = None) -> None:
    """The one writer of --out and stdout: payload as JSON, CSV or text."""
    if args.json:
        text = json.dumps(payload, indent=1) + "\n"
    elif args.csv:
        table = rows
        if table is None:
            table = [
                {"key": k, "value": json.dumps(v) if isinstance(v, (dict, list)) else v}
                for k, v in payload.items()
            ]
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(table[0].keys()),
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(table)
        text = buf.getvalue()
    else:
        text = "\n".join(_human_lines(payload) if lines is None else lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _root_strs(roots: Sequence[Root]) -> list[str]:
    return [str(r) for r in roots]


def _coords(roots: Sequence[Root]) -> list[list[int]]:
    return [list(r.coords) for r in roots]


# -- root list parsing ---------------------------------------------------

_TERM = re.compile(r"(\d*)\s*a(\d+)$")


def parse_root(rs: RootSystem, text: str) -> Root:
    coords = [0] * rs.rank
    for term in text.lower().split("+"):
        m = _TERM.match(term.strip())
        if not m:
            raise UsageError(f"cannot parse root term {term.strip()!r}")
        c = int(m.group(1) or "1")
        i = int(m.group(2))
        if not 1 <= i <= rs.rank:
            raise UsageError(f"simple root index {i} out of range 1..{rs.rank}")
        coords[i - 1] += c
    if not rs.is_root(tuple(coords)):
        raise UsageError(f"{text.strip()} is not a root")
    return rs.root(tuple(coords))


def parse_root_list(rs: RootSystem, text: str) -> list[Root]:
    text = text.strip()
    if not text:
        return []
    return [parse_root(rs, tok) for tok in text.split(",")]


# -- subcommands ---------------------------------------------------------


def cmd_show(args: argparse.Namespace) -> int:
    g = _grading_from_spec(args)
    rs = g.rs
    slices = {}
    pis = {}
    for i in range(0, g.max_level + 1):
        positive = [r for r in g.slice(i) if r.is_positive]
        slices[str(i)] = _root_strs(positive)
        pi = g.pi(i)
        if pi:
            pis[str(i)] = [f"a{k + 1}" for k in pi]
    payload = {
        "grading": g.spec_string(),
        "rank": rs.rank,
        "marks": list(g.marks),
        "coxeter_number": rs.coxeter_number,
        "theta": str(rs.theta),
        "exponents": list(rs.exponents),
        "long_simple": [f"a{k + 1}" for k in rs.long_simple],
        "standard": g.is_standard,
        "abelian": g.is_abelian,
        "extra_special": g.is_extra_special,
        "max_level": g.max_level,
        "positive_slice_sizes": [len(slices[str(i)]) for i in range(g.max_level + 1)],
        "marked_simples_by_level": pis,
        "positive_slices": slices,
    }
    _emit(args, payload)
    return 0


def cmd_ideals(args: argparse.Namespace) -> int:
    g = _grading_from_spec(args)
    p = ideals_mod.weight_poset(g, 1)
    mp = ideals_mod.m_polynomial(p)
    payload = {
        "grading": g.spec_string(),
        "poset_size": p.size,
        "count": value(mp, 1),
        "antichain_count": ideals_mod.count_antichains(p),
        "self_dual_count": ideals_mod.self_dual_count(p),
        "m_at_minus_one": value(mp, -1),
    }
    if args.poly:
        payload["m_polynomial"] = list(mp)
        payload["m_polynomial_str"] = to_str(mp)
    rows = None
    if args.list:
        payload["ideals"] = [
            _coords(i.roots()) for i in ideals_mod.iter_lower_ideals(p)
        ]
        rows = [
            {"index": k, "size": i.size, "roots": " ".join(_root_strs(i.roots()))}
            for k, i in enumerate(ideals_mod.iter_lower_ideals(p))
        ]
    _emit(args, payload, rows)
    return 0


def cmd_weyl(args: argparse.Namespace) -> int:
    g = _grading_from_spec(args)
    table = weyl_mod.enumerate_W0(g)
    p = ideals_mod.weight_poset(g, 1)
    minimal = weyl_mod.W0_min(g)
    maximal = weyl_mod.W0_max(g)
    fixed = sum(1 for w in table.elements() if weyl_mod.involution(g, w) == w)
    payload = {
        "grading": g.spec_string(),
        "coset_count": len(table),
        "poincare": list(weyl_mod.poincare(w.length for w in table.elements())),
        "min_count": len(minimal),
        "max_count": len(maximal),
        "min_poincare": list(weyl_mod.poincare(w.length for w in minimal)),
        "max_poincare": list(weyl_mod.poincare(w.length for w in maximal)),
        "ideal_polynomial": list(ideals_mod.m_polynomial(p)),
        "involution_fixed": fixed,
    }
    rows = None
    if args.min:
        payload["minimal"] = [
            {"word": str(w), "length": w.length,
             "ideal": _coords(weyl_mod.tau(g, w).roots())}
            for w in minimal
        ]
    if args.max:
        payload["maximal"] = [
            {"word": str(w), "length": w.length,
             "ideal": _coords(weyl_mod.tau(g, w).roots())}
            for w in maximal
        ]
    if args.eta:
        if g.k_standard != 1:
            raise UsageError("--eta needs a grading with a single marked node")
        payload["eta"] = [
            {"word": str(w), "eta": list(weyl_mod.eta(g, w))}
            for w in table.elements()
        ]
        rows = [
            {"word": r["word"], "eta": " ".join(map(str, r["eta"]))}
            for r in payload["eta"]
        ]
    _emit(args, payload, rows)
    return 0


def cmd_element(args: argparse.Namespace) -> int:
    g = _grading_from_spec(args)
    p = ideals_mod.weight_poset(g, 1)
    roots = parse_root_list(g.rs, args.ideal)
    try:
        ideal = ideals_mod.lower_ideal_from_roots(p, roots)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    lo = weyl_mod.w_min(g, ideal)
    hi = weyl_mod.w_max(g, ideal)
    payload = {
        "grading": g.spec_string(),
        "ideal": _coords(ideal.roots()),
        "ideal_str": str(ideal),
        "w_min": {
            "word": str(lo),
            "length": lo.length,
            "inversions": _root_strs(weyl_mod.inversion_roots(lo)),
        },
        "w_max": {
            "word": str(hi),
            "length": hi.length,
            "inversions": _root_strs(weyl_mod.inversion_roots(hi)),
        },
        "max_of_ideal": _root_strs(weyl_mod.max_roots(g, ideal).roots()),
        "min_of_complement": _root_strs(weyl_mod.min_complement_roots(g, ideal).roots()),
        "fiber_size": len(weyl_mod.fiber(g, ideal)),
    }
    _emit(args, payload)
    return 0


def cmd_arrangement(args: argparse.Namespace) -> int:
    g = _grading_from_spec(args)
    _emit(args, arr_mod.arrangement_report(g))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    suites = args.suite
    targets: list[tuple[RootSystem, list[Grading]]] = []
    names: list[str] = []
    if args.all:
        names = checks.default_types(args.max_rank)
    elif not args.scope and suites == ["e7"]:
        names = ["E7"]

    # The suites bound their own work, so only rank 8 needs --max-rank.
    def guard(label: str, rs: RootSystem) -> RootSystem:
        if rs.rank > max(7, args.max_rank):
            raise UsageError(f"{label}: rank-{rs.rank} sweeps need --max-rank {rs.rank}")
        return rs

    for token in args.scope:
        if ":" in token:
            try:
                g = parse_grading_spec(token)
            except ValueError as exc:
                raise UsageError(str(exc)) from exc
            targets.append((guard(token, g.rs), [g]))
        else:
            names.append(token)
    for name in names:
        try:
            rs = build(parse_cartan_type(name))
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        targets.append((guard(name, rs), checks.sweep_gradings(rs)))
    if not targets:
        raise UsageError("nothing to verify: pass types/gradings or --all")
    results = checks.run(targets, suites)
    failures = sum(not r.ok for r in results)
    skipped = sum(r.status == "skip" for r in results)
    payload = {
        "suites": suites if suites else sorted(checks.SUITES),
        "targets": [str(rs.cartan_type) for rs, _ in targets],
        "total": len(results),
        "failures": failures,
        "skipped": skipped,
        "checks": [
            {"suite": r.suite, "subject": r.subject, "name": r.name,
             "ok": r.ok, "status": r.status, "detail": r.detail}
            for r in results
        ],
    }
    lines = None
    if not (args.json or args.csv):
        lines = []
        for r in results:
            tag = _STATUS_TAGS[r.status]
            tail = f" -- {r.detail}" if (r.detail and r.status != "pass") else ""
            lines.append(f"[{tag}] {r.suite:<10} {r.subject:<16} {r.name}{tail}")
        lines.append(f"{len(results)} checks, {failures} failures, {skipped} skipped")
    _emit(args, payload, payload["checks"], lines)
    return 1 if failures else 0


_STATUS_TAGS = {"pass": "  ok  ", "fail": " FAIL ", "skip": " skip ", "info": " info "}

_COMMANDS = {
    "show": cmd_show,
    "ideals": cmd_ideals,
    "weyl": cmd_weyl,
    "element": cmd_element,
    "arrangement": cmd_arrangement,
    "verify": cmd_verify,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.json and args.csv:
        parser.error("choose at most one of --json and --csv")
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"gradus {args.command}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"gradus {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
