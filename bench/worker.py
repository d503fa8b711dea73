"""One benchmark pass in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N [--child K] [--trace]
                            [--setup-only]

Imports gradus from ``src/`` of the checkout, builds the workload's inputs,
prints ``READY`` (the parent times set-up up to that line), runs the
operations once, checks the outputs against ``reference.json`` and prints one
JSON line with the timings, counts and failures.  An untraced pass also
times calibration chunks (``calibration_chunk``) among its operations, so the
parent can tell how fast the machine ran the pass.  With ``--trace`` every call
into the traced layer functions is recorded and the per-function figures are
added to the result; the spans go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
EXIT_NO_PACKAGE = 3
CALIBRATION_EVERY_S = 0.1


def import_gradus() -> None:
    """Import the package from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import gradus
    except ImportError as exc:
        print(f"cannot import gradus from {src}: {exc}", file=sys.stderr)
        sys.exit(EXIT_NO_PACKAGE)
    if src not in Path(gradus.__file__).resolve().parents:
        print(f"gradus was imported from {gradus.__file__}, not {src}", file=sys.stderr)
        sys.exit(EXIT_NO_PACKAGE)


def calibration_chunk() -> float:
    """Seconds a fixed piece of pure-Python work takes now: it allocates 8,000
    small tuples and reads them back in a scattered order, as the package's
    inner loops allocate and chase references.  It measures the speed the
    machine gives this process, which drifts over time.  (A chunk of tight
    arithmetic on a dict of a few hundred keys slowed down more than the
    workloads did, and corrected them less well.)"""
    n = 8000
    start = time.perf_counter()
    rows = [(i, i * i) for i in range(n)]
    total = 0
    for i in range(n):
        total += rows[i * 7919 % n][1] & 7
    return time.perf_counter() - start


def time_ops(ops, calibration: list | None = None) -> tuple[list, list[float], float, dict[int, str]]:
    """Run every operation once: outputs, per-operation seconds, total
    seconds, and the operations that raised.  Given a list, it also runs a
    calibration chunk before the first operation, after the last, and
    between operations every ``CALIBRATION_EVERY_S``, appends the chunks'
    seconds to it, and leaves their time out of the total."""
    outputs: list = [None] * len(ops)
    times = [0.0] * len(ops)
    raised: dict[int, str] = {}
    clock = time.perf_counter
    start = clock()
    paused, next_at = 0.0, start
    for k, op in enumerate(ops):
        if calibration is not None and clock() >= next_at:
            t0 = clock()
            calibration.append(calibration_chunk())
            t1 = clock()
            paused += t1 - t0
            next_at = t1 + CALIBRATION_EVERY_S
        t0 = clock()
        try:
            outputs[k] = op.run()
        except Exception:  # one failing operation must not stop the pass
            raised[k] = traceback.format_exc(limit=3)
        times[k] = clock() - t0
    wall = clock() - start - paused
    if calibration is not None:
        calibration.append(calibration_chunk())
    return outputs, times, wall, raised


def check_pass(workload, ops, outputs, raised, reference: dict) -> tuple[int, int, list[str]]:
    """Attempted and failed counts, and what went wrong: every operation and
    every comparison with the reference or an oracle counts once."""
    problems = [f"{ops[k].label}: {tb}" for k, tb in raised.items()]
    failed = len(raised)
    for k, op in enumerate(ops):
        if k not in raised:
            problem = op.check(outputs[k], reference)
            if problem is not None:
                failed += 1
                problems.append(f"{op.label}: {problem}")
    comparisons = [
        (key, got == reference.get(key), f"got {got!r}, reference {reference.get(key)!r}")
        for key, got in workload.observed().items()
    ] + [(label, ok, "does not hold") for label, ok in workload.identities()]
    for label, ok, detail in comparisons:
        if not ok:
            failed += 1
            problems.append(f"{label}: {detail}")
    return len(ops) + len(comparisons), failed, problems


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--child", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_gradus()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.child)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    ops = workload.ops()
    calibration = None if args.trace else []
    outputs, times, wall, raised = time_ops(ops, calibration)
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()

    reference = json.loads(workloads.REFERENCE_PATH.read_text())[args.workload]
    attempted, failed, problems = check_pass(workload, ops, outputs, raised, reference)
    import numpy

    result = {
        "wall_s": wall,
        "op_s": times,
        "op_labels": [op.label for op in ops],
        # Latencies: a suite call's blocks of rows, or the operation itself.
        "latencies": [block for k, op in enumerate(ops)
                      for block in getattr(outputs[k], "blocks", None) or [(op.label, times[k])]],
        "maxrss_kb": maxrss_kb,
        "calibration_s": calibration,
        "scaled": workload.scaled,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "sizes": workload.sizes(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["layers"] = {**tracer.metrics(), "bench.spans": len(tracer.spans),
                            "bench.trace_overhead_s": tracer.overhead_s()}
        result["sizing_s"] = tracer.paused
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(BENCH_DIR))
    sys.exit(main())
