"""Record the benchmark's query pool and reference outputs.

    python3 bench/record.py

Writes ``bench/pool.json`` (the session's query pool) and
``bench/reference.json`` (the outputs every pass is checked against) from
the package in ``src/``.  The committed files were recorded at the commit
that introduced the benchmark; record again only when an output is meant to
change, and say so in the change that does it.
"""

from __future__ import annotations

import json
import sys

import workloads
from worker import import_gradus, time_ops


def record() -> dict:
    reference = {}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(seed=0)
        ops, keys = [], set()
        for op in workload.ops():  # a session repeats queries; record each once
            if op.key is None or op.key not in keys:
                keys.add(op.key)
                ops.append(op)
        outputs, _, _, raised = time_ops(ops)
        if raised:
            raise SystemExit(f"{name}: operations raised: {raised}")
        values = {}
        for op, out in zip(ops, outputs):
            problem = op.check(out, {}) if op.digest is None else None
            if problem is not None:
                raise SystemExit(f"{name}: {op.label}: {problem}")
            if op.digest is not None:
                values[op.key] = op.digest(out)
        values.update(workload.observed())
        for label, ok in workload.identities():
            if not ok:
                raise SystemExit(f"{name}: {label} does not hold")
        reference[name] = values
        print(f"{name}: {len(values)} reference values", file=sys.stderr)
    return reference


def main() -> int:
    import_gradus()
    pool = workloads.build_pool()
    workloads.POOL_PATH.write_text("[\n" + ",\n".join(json.dumps(q) for q in pool) + "\n]\n")
    reference = record()
    # One value per line keeps later corrections readable in a diff.
    blocks = [
        f"{json.dumps(name)}: {{\n" + ",\n".join(
            f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in sorted(values.items())
        ) + "\n}"
        for name, values in sorted(reference.items())
    ]
    workloads.REFERENCE_PATH.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
