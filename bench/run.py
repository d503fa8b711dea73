"""The gradus benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

``all`` runs every workload in ``BENCHMARK.json`` in turn.
Runs from the root of a checkout and measures the package in its ``src/``.
Each pass runs in a fresh interpreter (``bench/worker.py``), one after the
other, with one thread, so nothing memoised survives from one pass to the
next.  Each pass is followed by fresh interpreters that only set up, so the
set-up samples are spread over the run.  Passes repeat until the next one
would overrun ``--seconds`` (at least one runs); more set-up-only
interpreters follow until there are fifteen set-up samples.

With ``--trace 0`` the result holds the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` one traced pass runs and the result
holds the per-layer metrics, with an estimate of the tracing overhead.

Untraced times are scaled to a reference machine speed.  The machine this
was built on runs the same pass up to 1.8 times slower for minutes at a
time, so each pass also times a fixed calibration chunk every 0.1 s
(``worker.calibration_chunk``), and its times are multiplied by
``REFERENCE_CHUNK_S`` over the chunk's median time in that pass
(the ``charpoly`` pass, whose time is in numpy, is not scaled; its set-up
is).  The unscaled
figures are printed and kept in the record.  The
last line of standard output is the result as JSON; the lines before it
print every metric by name with its unit, the input sizes and the
provenance.  The full record also goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("sweep", "charpoly", "session")
MIN_SETUP_SAMPLES = 15
SETUPS_PER_PASS = 2  # set-up-only interpreters after each pass
# Seconds of worker.calibration_chunk at the reference speed.  Reported
# times are what they would be at that speed; the unscaled ones are kept in
# the record as raw_*.
REFERENCE_CHUNK_S = 0.0025
DEADLINE_S = 170.0  # a run must end within 180 s


class RunFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def _lines(proc: subprocess.Popen, deadline: float):
    """Lines of the worker's stdout as they arrive, until it closes."""
    fd = proc.stdout.fileno()
    buf = b""
    while True:
        if not select.select([fd], [], [], max(0.0, deadline - time.perf_counter()))[0]:
            raise RunFailed(f"worker {' '.join(proc.args[2:])} passed the deadline")
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            if buf:
                yield buf.decode()
            return
        *lines, buf = (buf + chunk).split(b"\n")
        yield from (line.decode() for line in lines)


def run_child(args: list[str], deadline: float) -> tuple[float, dict | None]:
    """Start a worker; return the seconds from start to its READY line and
    its result (None for a set-up-only worker)."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE)
    setup_s, output = None, []
    try:
        for line in _lines(proc, deadline):
            if setup_s is None and line.strip() == "READY":
                setup_s = time.perf_counter() - start
            elif line.strip():
                output.append(line)
        proc.wait(timeout=max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise RunFailed(f"worker {' '.join(args)} passed the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or setup_s is None:
        raise RunFailed(f"worker {' '.join(args)} exited with {proc.returncode}")
    return setup_s, (json.loads(output[-1]) if output else None)


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def untraced(workload: str, seed: int, seconds: int, deadline: float) -> tuple[dict, list, list]:
    base = ["--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    setups, passes = [], []
    while True:
        setup_s, result = run_child(base + ["--child", str(len(passes))], deadline)
        setups.append(setup_s)
        passes.append(result)
        for _ in range(SETUPS_PER_PASS):
            setups.append(run_child(base + ["--setup-only"], deadline)[0])
        spent = time.perf_counter() - start
        if spent + spent / len(passes) > seconds:
            break
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(run_child(base + ["--setup-only"], deadline)[0])

    # Times are reported at the reference speed: each pass's times are
    # scaled by REFERENCE_CHUNK_S over the median of its calibration chunks,
    # and set-up times by the same ratio over the whole run.  A pass the
    # chunk does not represent is reported unscaled; set-up (interpreter
    # start, imports, building inputs) is pure Python on every workload.
    speed = [REFERENCE_CHUNK_S / statistics.median(r["calibration_s"]) for r in passes]
    scale = speed if passes[0]["scaled"] else [1.0] * len(passes)
    run_scale = REFERENCE_CHUNK_S / statistics.median(
        t for r in passes for t in r["calibration_s"])
    metrics = {"setup_s": run_scale * statistics.median(setups),
               "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in passes) / 1024}
    for prefix, factors in (("", scale), ("raw_", [1.0] * len(passes))):
        # Each latency (a query, or a block of one suite call's rows) is its
        # median over the run's passes, and the percentiles are taken over
        # those medians.
        by_label = defaultdict(list)
        for r, f in zip(passes, factors):
            for label, t in r["latencies"]:
                by_label[label].append(f * t)
        latency_s = [statistics.median(ts) for ts in by_label.values()]
        metrics[prefix + "wall_s"] = statistics.median(f * r["wall_s"] for r, f in zip(passes, factors))
        metrics[prefix + "query_p50_ms"] = 1e3 * percentile(latency_s, 50)
        metrics[prefix + "query_p90_ms"] = 1e3 * percentile(latency_s, 90)
    metrics["raw_setup_s"] = statistics.median(setups)
    metrics["slowdown"] = 1 / statistics.median(speed)
    metrics["queries_per_s"] = (sum(len(r["op_s"]) for r in passes)
                                / sum(r["wall_s"] for r in passes))
    return metrics, passes, setups


def traced(workload: str, seed: int, deadline: float) -> tuple[dict, list]:
    _, traced_pass = run_child(["--workload", workload, "--seed", str(seed), "--trace"], deadline)
    metrics = dict(traced_pass["layers"])
    # The tracer's pauses to size coset tables are measurement, not tracing.
    metrics["bench.traced_wall_s"] = traced_pass["wall_s"] - traced_pass["sizing_s"]
    metrics["bench.sizing_s"] = traced_pass["sizing_s"]
    return metrics, [traced_pass]


def revision() -> str:
    """The commit checked out, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def measure(workload: str, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    load_before = os.getloadavg()
    if trace:
        values, passes = traced(workload, seed, deadline)
        setups = []
    else:
        values, passes, setups = untraced(workload, seed, seconds, deadline)
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    # A metric the run did not produce (its function is gone from the
    # package) reads 0 and is named in the record and on stderr.
    missing = [m["name"] for m in wanted if m["name"] not in values]
    return {
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                        for m in wanted},
        },
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "fail_share": failed / attempted,
        "unreported": {k: v for k, v in values.items() if k not in {m["name"] for m in wanted}},
        "not_measured": missing,
        "passes": len(passes),
        "operations_per_pass": len(passes[0]["op_s"]),
        "latencies_per_pass": len(passes[0]["latencies"]),
        "setup_samples": setups,
        "pass_wall_s": [r["wall_s"] for r in passes],
        "sizes": passes[0]["sizes"],
        "problems": [p for r in passes for p in r["problems"]][:20],
        "revision": revision(),
        "source_sha256": source_digest(),
        "python": passes[0]["python"],
        "numpy": passes[0]["numpy"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
    }


def report(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"passes {record['passes']}  operations/pass {record['operations_per_pass']}  "
          f"latencies/pass {record['latencies_per_pass']}  "
          f"sizes {json.dumps(record['sizes'])}")
    for name, m in record["result"]["metrics"].items():
        print(f"  {name:<52} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_share':<52} {record['fail_share']:>14.6g} "
          f"({record['result']['failed']} of {record['result']['attempted']})")
    if not record["trace"]:
        extra = record["unreported"]
        print(f"  {'queries_per_s':<52} {extra['queries_per_s']:>14.6g} 1/s "
              "(operations per timed second; not gated, as it repeats wall_s)")
        print(f"  machine slowdown {extra['slowdown']:.3f} x the reference; unscaled: " + "  ".join(
            f"{name} {extra['raw_' + name]:.6g}"
            for name in ("setup_s", "wall_s", "query_p50_ms", "query_p90_ms")))
    print(f"  revision {record['revision']}  src sha256 {record['source_sha256'][:16]}  "
          f"python {record['python']}  numpy {record['numpy']}  nproc {record['nproc']}  "
          f"load {record['loadavg_before'][0]:.2f} -> {record['loadavg_after'][0]:.2f}")
    if record["not_measured"]:
        print(f"  not measured (reported as 0): {' '.join(record['not_measured'])}",
              file=sys.stderr)
    for problem in record["problems"]:
        print(f"  problem: {problem}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gradus benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "gradus" / "__init__.py").is_file():
        print(f"no gradus package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload == "all":
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = tuple(w["name"] for w in spec["workloads"])
    else:
        names = (args.workload,)
    records = []
    try:
        for name in names:
            deadline = time.perf_counter() + DEADLINE_S
            records.append(measure(name, args.seed, args.seconds, bool(args.trace), deadline))
            report(records[-1])
    except RunFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    OUT_DIR.mkdir(exist_ok=True)
    for record in records:
        path = OUT_DIR / f"result-{record['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
    if len(records) == 1:
        print(json.dumps(records[0]["result"]))
    else:
        print(json.dumps({r["workload"]: r["result"] for r in records}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
