"""Self-test of the benchmark's correctness gate: the reference values pass,
and one perturbed reference value makes ``fail_share`` nonzero.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
import worker  # noqa: E402

worker.import_gradus()
REFERENCE = json.loads(workloads.REFERENCE_PATH.read_text())


def fail_share(workload, reference: dict) -> tuple[float, list[str]]:
    ops = workload.ops()
    outputs, _, _, raised = worker.time_ops(ops)
    attempted, failed, problems = worker.check_pass(workload, ops, outputs, raised, reference)
    return failed / attempted, problems


def small_session() -> workloads.Session:
    w = workloads.Session(seed=7)
    w.order = w.order[:30]
    return w


def small_sweep(cls) -> workloads.Workload:
    w = cls(seed=7)
    w.targets = [t for t in w.targets if t[0].rank <= 2]
    return w


@pytest.mark.parametrize("make", [
    small_session,
    lambda: small_sweep(workloads.Sweep),
    lambda: small_sweep(workloads.Charpoly),
])
def test_reference_passes(make):
    w = make()
    share, problems = fail_share(w, REFERENCE[w.name])
    assert share == 0, problems


def test_perturbed_query_digest_fails():
    w = small_session()
    reference = copy.deepcopy(REFERENCE["session"])
    key = " ".join(w.pool[w.order[0]])
    reference[key] = reference[key].replace("exit 0", "exit 1")
    share, problems = fail_share(w, reference)
    assert share > 0
    assert any(key in p for p in problems)


@pytest.mark.parametrize("cls, key", [
    (workloads.Sweep, "ideals A2:1,1"),
    (workloads.Charpoly, "chi B2:0,1"),
])
def test_perturbed_observed_value_fails(cls, key):
    w = small_sweep(cls)
    reference = copy.deepcopy(REFERENCE[w.name])
    value = reference[key]
    reference[key] = value + 1 if isinstance(value, int) else value[:-1] + [value[-1] + 1]
    share, problems = fail_share(w, reference)
    assert share > 0
    assert any(p.startswith(key) for p in problems)


def test_table_that_cannot_be_weakly_referenced_is_sized_once():
    import tracer

    t, stat = tracer.Tracer(), tracer.Stat()
    table = [object(), object(), object()]  # a list, as a rewritten enumerate_W0 might return
    t._size_table(stat, (), table)
    t._size_table(stat, (), table)
    assert stat.cosets == 3
    assert stat.bytes > 0


def test_suite_call_is_timed_in_blocks_of_one_subject():
    from gradus.checks import CheckResult

    subjects = ["B2", "B2", "B2:0,1", "B2:1,0", "B2:1,0", "B2"]
    rows = workloads.timed_rows("s B2", (CheckResult("s", sub, "n", True) for sub in subjects))
    assert list(rows) == [CheckResult("s", sub, "n", True) for sub in subjects]
    assert [label for label, _ in rows.blocks] == [
        "s B2 #0 B2", "s B2 #1 B2:0,1", "s B2 #2 B2:1,0", "s B2 #3 B2"]
    assert all(t >= 0 for _, t in rows.blocks)


def test_calibration_chunks_are_left_out_of_the_pass():
    import time

    ops = [workloads.Op(f"op{k}", lambda: time.sleep(0.03)) for k in range(5)]
    calibration: list[float] = []
    _, times, wall, raised = worker.time_ops(ops, calibration)
    assert not raised
    assert len(calibration) >= 3  # before the first operation, between, after the last
    assert abs(wall - sum(times)) < 0.005
