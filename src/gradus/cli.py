"""Command line surface.

Subcommands mirror the library layers: `show` for a grading summary,
`ideals` for weight-poset enumeration, `weyl` for coset statistics,
`element` for the minimal/maximal representatives of one ideal,
`arrangement` for region and exponent reports, and `verify` to run the
check suites.  Output is a human table by default, or deterministic JSON
(`--json`) and CSV (`--csv`); identical invocations produce identical
bytes.

A graded command is a function of its grading (and the arguments) to a
payload and its CSV rows; `main` resolves the spec and emits what the
command returns.  `verify` builds its targets and emits its rows itself.

The CLI keeps the last 128 gradings it parsed, so a repeated query reuses
what its grading derived; `verify` builds its own.  `weyl` reads w_min and
w_max off the fibres of the grading's coset table, and `element` peels them
from the closure of its one ideal, without a table.

Exit codes: 0 on success, 1 when a verification suite fails, 2 for usage
or input errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import re
import sys
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Optional, Sequence

from . import arrangement as arr_mod
from . import checks
from . import ideals as ideals_mod
from . import weyl as weyl_mod
from .grading import Grading, parse_grading_spec
from .polys import to_str, value
from .rootsys import Root, RootSystem


class UsageError(Exception):
    pass


# -- argument plumbing ---------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--json", action="store_true", help="emit JSON")
    output.add_argument("--csv", action="store_true", help="emit CSV")
    output.add_argument("--out", metavar="PATH", help="write output to a file")
    target = argparse.ArgumentParser(add_help=False)
    target.add_argument("spec", help='grading such as "B2:0,1", "G2:es", "A3:std=1,3"')
    graded = [target, output]

    top = argparse.ArgumentParser(
        prog="gradus",
        description="Exact combinatorics of graded root systems: lower "
        "ideals of the level-1 slice, minimal coset representatives, and "
        "the regions of the associated hyperplane arrangement.  Simple "
        "roots are numbered as in Bourbaki (note that other tables order "
        "the E-series nodes differently).",
    )
    sub = top.add_subparsers(dest="command", required=True)

    sub.add_parser("show", parents=graded, help="summarize a graded root system")

    p = sub.add_parser("ideals", parents=graded,
                       help="enumerate lower ideals of the level-1 poset")
    p.add_argument("--list", action="store_true", help="list every ideal")
    p.add_argument("--poly", action="store_true", help="include the rank generating polynomial")

    p = sub.add_parser("weyl", parents=graded,
                       help="minimal coset representatives and their statistics")
    p.add_argument("--min", action="store_true", help="list the minimal elements per ideal")
    p.add_argument("--max", action="store_true", help="list the maximal elements per ideal")
    p.add_argument("--eta", action="store_true",
                   help="list the level vectors (single marked node only)")

    p = sub.add_parser("element", parents=graded,
                       help="minimal and maximal representative of one ideal")
    p.add_argument("--ideal", required=True, metavar="ROOTS",
                   help='comma separated roots, e.g. "a2,a1+a2"; empty for the empty ideal')

    sub.add_parser("arrangement", parents=graded,
                   help="regions, height partition, exponents")

    p = sub.add_parser("verify", parents=[output], help="run check suites")
    p.add_argument("scope", nargs="*",
                   help='gradings ("B2:es") or bare types ("B3"); types sweep all gradings')
    p.add_argument("--all", action="store_true", help="sweep every type up to --max-rank")
    p.add_argument("--max-rank", type=int, help="the highest rank --all sweeps (default 4)")
    # The registry itself, not a copy: the parser outlives this call, and a
    # suite registered later must still parse.
    p.add_argument("--suite", action="append", choices=checks.SUITES,
                   help="restrict to one suite (repeatable)")

    return top


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


_INT = {int}
_STR = {str}


def _json_text(obj: object) -> str:
    """json.dumps(obj, indent=1), byte for byte.  Strings and str keys go
    through json's own string encoder, exact ints through int.__str__, and a
    list of exact ints (not bools) is joined in one C call, once per values
    and indent in a call; dicts with str keys, lists and tuples are walked
    here, and any other value goes through json.dumps, whose output has no
    raw newline outside its own indentation."""
    int_lists: dict[tuple, str] = {}

    def render(obj: object, ind: str) -> str:  # obj after the break and indent `ind`
        kind = type(obj)
        if kind is str:
            return _encode_str(obj)
        if kind is int:
            return str(obj)
        if kind is list or kind is tuple:
            if not obj:
                return "[]"
            inner = ind + " "
            if set(map(type, obj)) == _INT:
                key = (ind, *obj)
                if key not in int_lists:
                    int_lists[key] = "[" + inner + ("," + inner).join(map(str, obj)) + ind + "]"
                return int_lists[key]
            body = ("," + inner).join([render(x, inner) for x in obj])
            return "[" + inner + body + ind + "]"
        if kind is dict and set(map(type, obj)) <= _STR:
            if not obj:
                return "{}"
            inner = ind + " "
            body = ("," + inner).join([_encode_str(k) + ": " + render(v, inner)
                                       for k, v in obj.items()])
            return "{" + inner + body + ind + "}"
        return json.dumps(obj, indent=1).replace("\n", ind)

    return render(obj, "\n")


def _emit(args: argparse.Namespace, payload: dict,
          rows: Optional[list[dict]] = None,
          lines: Optional[list[str]] = None,
          columns: Optional[Sequence[str]] = None) -> None:
    """The one writer of --out and stdout: payload as JSON, CSV or text.
    The JSON is exactly the bytes of json.dumps(payload, indent=1) (the
    writer _json_text joins int lists in C); the CSV header is `columns`,
    or the keys of the first row."""
    if args.json:
        text = _json_text(payload) + "\n"
    elif args.csv:
        table = rows
        if table is None:
            table = [
                {"key": k, "value": json.dumps(v) if isinstance(v, (dict, list)) else v}
                for k, v in payload.items()
            ]
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns or list(table[0]),
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

Reply = tuple[dict, Optional[list[dict]]]  # None rows: the payload's key/value CSV

# The last 128 gradings queried, one per spec (a benchmark session asks for 72):
# a repeated query reuses their posets, ideal walk, coset table and extremes.
_grading = functools.lru_cache(maxsize=128)(parse_grading_spec)


def cmd_show(g: Grading, args: argparse.Namespace) -> Reply:
    rs = g.rs
    slices = {}
    pis = {}
    # level 0 and the levels that occur; marks, and so levels, are unbounded
    for i in sorted({0, *g.levels}):
        slices[str(i)] = _root_strs(rs.roots_of(g.level_mask(i)))
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
        "positive_slice_sizes": [len(s) for s in slices.values()],
        "marked_simples_by_level": pis,
        "positive_slices": slices,
    }
    return payload, None


def cmd_ideals(g: Grading, args: argparse.Namespace) -> Reply:
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
        payload["ideals"] = [_coords(i.roots()) for i in p.lower_ideals]
        if args.csv:
            rows = [
                {"index": k, "size": i.size, "roots": " ".join(_root_strs(i.roots()))}
                for k, i in enumerate(p.lower_ideals)
            ]
    return payload, rows


def cmd_weyl(g: Grading, args: argparse.Namespace) -> Reply:
    if args.eta and g.k_standard != 1:
        raise UsageError("--eta needs a grading with a single marked node")
    table = weyl_mod.enumerate_W0(g)
    p = ideals_mod.weight_poset(g, 1)
    fibers = [table.by_tau[i.mask] for i in p.lower_ideals]  # length-sorted: w_min to w_max
    minimal, maximal = [f[0] for f in fibers], [f[-1] for f in fibers]
    images = weyl_mod.involution_images(g, table.elements())
    payload = {
        "grading": g.spec_string(),
        "coset_count": len(table),
        "poincare": list(weyl_mod.poincare(w.length for w in table.elements())),
        "min_count": len(minimal),
        "max_count": len(maximal),
        "min_poincare": list(weyl_mod.poincare(w.length for w in minimal)),
        "max_poincare": list(weyl_mod.poincare(w.length for w in maximal)),
        "ideal_polynomial": list(ideals_mod.m_polynomial(p)),
        "involution_fixed": sum(k == i for k, i in enumerate(images)),
    }
    rows = None
    ideal_coords = [_coords(i.roots()) for i in p.lower_ideals] if args.min or args.max else []
    payload |= {
        key: [{"word": str(w), "length": w.length, "ideal": ideal}
              for w, ideal in zip(elements, ideal_coords)]
        for key, wanted, elements in (("minimal", args.min, minimal),
                                      ("maximal", args.max, maximal))
        if wanted
    }
    if args.eta:
        payload["eta"] = [
            {"word": str(w), "eta": list(weyl_mod.eta(g, w))}
            for w in table.elements()
        ]
        rows = [
            {"word": r["word"], "eta": " ".join(map(str, r["eta"]))}
            for r in payload["eta"]
        ]
    return payload, rows


def cmd_element(g: Grading, args: argparse.Namespace) -> Reply:
    p = ideals_mod.weight_poset(g, 1)
    roots = parse_root_list(g.rs, args.ideal)
    ideal = ideals_mod.lower_ideal_from_roots(p, roots)
    fiber = weyl_mod.fiber(g, ideal)
    payload = {
        "grading": g.spec_string(),
        "ideal": _coords(ideal.roots()),
        "ideal_str": str(ideal),
        **{key: {"word": str(w), "length": w.length,
                 "inversions": _root_strs(weyl_mod.inversion_roots(w))}
           for key, w in (("w_min", weyl_mod.w_min(g, ideal)),
                          ("w_max", weyl_mod.w_max(g, ideal)))},
        "max_of_ideal": _root_strs(weyl_mod.max_roots(g, ideal).roots()),
        "min_of_complement": _root_strs(weyl_mod.min_complement_roots(g, ideal).roots()),
        "fiber_size": len(fiber),
    }
    return payload, None


def cmd_arrangement(g: Grading, args: argparse.Namespace) -> Reply:
    return arr_mod.arrangement_report(g), None


def cmd_verify(args: argparse.Namespace) -> int:
    # a suite named twice runs once, in the order first named
    suites = list(dict.fromkeys(args.suite)) if args.suite else None
    scope = args.scope
    if args.all:
        scope = checks.default_types(4 if args.max_rank is None else args.max_rank) + scope
    elif args.max_rank is not None:
        raise UsageError("--max-rank bounds the types of --all; pass --all or drop it")
    elif not scope and suites == ["e7"]:
        # the example answers for its own grading only, so no sweep is built
        scope = [checks.E7_PAPER_SPEC]
    targets = checks.targets_for(scope)
    if not targets:
        raise UsageError("nothing to verify: pass types/gradings or --all")
    types = [str(rs.cartan_type) for rs, _ in targets]
    results: list[checks.CheckResult] = []
    while targets:  # a target's gradings, and all they built, go once it has run
        results += checks.run([targets.pop(0)], suites)
    failures = sum(not r.ok for r in results)
    skipped = sum(r.status == "skip" for r in results)
    payload = {
        "suites": suites if suites else sorted(checks.SUITES),
        "targets": types,
        "total": len(results),
        "failures": failures,
        "skipped": skipped,
        "checks": [{c: getattr(r, c) for c in _CHECK_COLUMNS} for r in results],
    }
    lines = None
    if not (args.json or args.csv):
        lines = []
        for r in results:
            tag = _STATUS_TAGS[r.status]
            tail = f" -- {r.detail}" if (r.detail and r.status != "pass") else ""
            lines.append(f"[{tag}] {r.suite:<10} {r.subject:<16} {r.name}{tail}")
        lines.append(f"{len(results)} checks, {failures} failures, {skipped} skipped")
    _emit(args, payload, payload["checks"], lines, _CHECK_COLUMNS)
    return 1 if failures else 0


_CHECK_COLUMNS = ("suite", "subject", "name", "ok", "status", "detail")
_STATUS_TAGS = {"pass": "  ok  ", "fail": " FAIL ", "skip": " skip ", "info": " info "}

_GRADED = {
    "show": cmd_show,
    "ideals": cmd_ideals,
    "weyl": cmd_weyl,
    "element": cmd_element,
    "arrangement": cmd_arrangement,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.json and args.csv:
        parser.error("choose at most one of --json and --csv")
    try:
        if args.command == "verify":
            return cmd_verify(args)
        _emit(args, *_GRADED[args.command](_grading(args.spec), args))
        return 0
    except (UsageError, ValueError) as exc:
        print(f"gradus {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
