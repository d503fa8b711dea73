"""Self time per layer from a span file written by a traced run.

    python3 bench/spans.py bench/out/spans-session-seed1.json

Each top-level span (one with no parent, such as one ``cli.main`` query or
one step of a check suite's row generator) is charged with the self time of every span under
it.  The report gives the layer shares over all top-level spans, and over
those whose duration lies between the 40th and 60th percentile, such as the
queries around the median of a session.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict

MEDIAN_BAND = (40, 60)  # percentiles of top-level span duration


def layer_shares(path: str) -> dict[str, dict[str, float]]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    names = data["names"]
    spans = data["spans"]  # id, parent, name, start_ns, end_ns; children close first
    covered: dict[int, int] = defaultdict(int)
    for _, parent, _, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    parent_of = {sid: parent for sid, parent, *_ in spans}
    roots: dict[int, int] = {}

    def root_of(sid: int) -> int:
        path_ids = []
        while sid not in roots and parent_of.get(sid, -1) >= 0:
            path_ids.append(sid)
            sid = parent_of[sid]
        top = roots.get(sid, sid)
        for k in path_ids:
            roots[k] = top
        return top

    per_root: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    duration: dict[int, int] = {}
    for sid, parent, name, start, end in spans:
        layer = names[name].split(".", 1)[0]
        per_root[root_of(sid)][layer] += (end - start - covered[sid]) / 1e9
        if parent < 0:
            duration[sid] = end - start
    cuts = statistics.quantiles(list(duration.values()), n=100, method="inclusive")
    low, high = (cuts[p - 1] for p in MEDIAN_BAND)
    out = {}
    middle = {k: d for k, d in duration.items() if low <= d <= high}
    for label, chosen in (("all", duration), ("median", middle)):
        totals: dict[str, float] = defaultdict(float)
        for sid in chosen:
            for layer, t in per_root[sid].items():
                totals[layer] += t
        whole = sum(totals.values()) or 1.0
        out[label] = {layer: t / whole for layer, t in sorted(totals.items(), key=lambda x: -x[1])}
        out[label]["top_level_spans"] = len(chosen)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("path")
    args = parser.parse_args(argv)
    for label, shares in layer_shares(args.path).items():
        count = shares.pop("top_level_spans")
        text = "  ".join(f"{layer} {share:.0%}" for layer, share in shares.items())
        print(f"{label:>6} ({count} top-level spans): {text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
