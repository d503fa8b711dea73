"""Spans around calls into the gradus layers, recorded from outside.

``Tracer.install()`` replaces the traced public functions in every gradus
module namespace that binds them (``arrangement`` imports names from
``ideals`` and ``polys``, the package re-exports everything) and the check
suites in ``checks.SUITES``.  Each call becomes a span (id, parent, name,
start, end); a generator's span covers one ``next()`` on it, so lazy work is
charged when it is done.  Self time is a span's duration minus the time its
child spans cover.  Spans are kept in memory and written out by ``dump``.

The clock excludes the time the tracer spends sizing coset tables, so that
measurement does not show up as self time of any layer.

``overhead_s`` estimates what the spans cost: the extra seconds of one
wrapped call and of one wrapped generator step, timed on no-ops nested in
an open span, times the number of spans of each kind.  It is a lower bound:
it leaves out the garbage collections and cache misses the spans cause.
Timing a traced pass against an untraced one would not do, because the two
passes run at different times and the machine's speed drifts between them
by more than the tracing costs.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import json
import statistics
import sys
import time

from workloads import row_failed

LAYERS = ("rootsys", "grading", "ideals", "weyl", "arrangement", "polys", "checks", "cli")

TRACED = {
    "rootsys": ("build", "parse_cartan_type", "dual_partition"),
    "grading": ("grade", "parse_grading_spec", "extra_special"),
    "ideals": (
        "weight_poset", "iter_lower_ideals", "enumerate_lower_ideals",
        "count_lower_ideals", "count_antichains", "dual_ideal", "m_polynomial",
        "self_dual_count", "lower_ideal_from_roots", "lower_ideal_from_antichain",
        "max_elements", "min_elements",
    ),
    "weyl": (
        "element_from_inversions", "closure_layers", "closure_mask", "involution",
        "tau", "w_min", "w_max", "W0_min", "W0_max", "fiber", "enumerate_W0",
        "weyl_elements", "longest_element", "from_word", "is_biconvex",
        "max_roots", "min_complement_roots", "eta", "in_W0", "inversion_roots",
        "km_order", "km_poly", "poincare",
    ),
    "arrangement": (
        "char_poly", "good_primes", "regions_in_dominant_chamber",
        "geometric_sign_oracle", "sub_arrangement_01", "coxeter_arrangement",
        "deleted_arrangement", "ideal_arrangement", "arrangement_report",
        "conjecture_check", "upper_ideals_of_root_poset",
        "upper_ideal_partition_check", "conjectural_exponents",
        "ideal_count_formula", "zaslavsky_regions",
    ),
    "polys": ("interpolate", "from_int_roots", "from_exponent_counts", "divexact"),
    "cli": ("main",),
    "checks": ("run", "sweep_gradings", "targets_for", "default_types"),
}

# Functions whose distinct arguments are counted, and the one whose results
# (coset tables) are sized.
KEYED = ("rootsys.build", "arrangement.char_poly")
SIZED = "weyl.enumerate_W0"


class Stat:
    __slots__ = ("calls", "items", "self_s", "incl_s", "failed", "keys", "cosets", "bytes")

    def __init__(self):
        self.calls = self.items = self.failed = self.cosets = self.bytes = 0
        self.self_s = self.incl_s = 0.0
        self.keys = set()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, float, float]] = []
        self.stats: dict[str, Stat] = {}
        self.paused = 0.0
        self._stack: list[list] = []  # [span id, start, child time]
        self._next_id = 0
        self._tables: dict[int, object] = {}  # id -> table, kept alive for the pass
        self._generators: set[int] = set()  # name ids of wrapped generator functions
        self._installed: list[tuple[dict, str, object]] = []

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    # -- spans -----------------------------------------------------------

    def _open(self) -> list:
        frame = [self._next_id, self.clock(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, name_id: int, stat: Stat, frame: list) -> None:
        end = self.clock()
        self._stack.pop()
        span_id, start, child = frame
        duration = end - start
        stat.self_s += duration - child
        stat.incl_s += duration
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        self.spans.append((span_id, parent[0] if parent else -1, name_id, start, end))

    def _register(self, name: str) -> tuple[int, Stat]:
        self.names.append(name)
        return len(self.names) - 1, self.stats.setdefault(name, Stat())

    def wrap(self, name: str, fn, on_result=None, on_item=None):
        name_id, stat = self._register(name)
        if inspect.isgeneratorfunction(fn):
            self._generators.add(name_id)

            def traced_gen(*args, **kwargs):
                stat.calls += 1
                inner = fn(*args, **kwargs)
                while True:
                    frame = self._open()
                    try:
                        item = next(inner)
                    except StopIteration:
                        self._close(name_id, stat, frame)
                        return
                    except BaseException:
                        self._close(name_id, stat, frame)
                        raise
                    self._close(name_id, stat, frame)
                    stat.items += 1
                    if on_item is not None:
                        on_item(stat, item)
                    yield item

            traced_gen.__wrapped__ = fn
            return traced_gen

        def traced(*args, **kwargs):
            stat.calls += 1
            frame = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name_id, stat, frame)
            if on_result is not None:
                on_result(stat, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- per-function counters --------------------------------------------

    @staticmethod
    def _key_of_first_arg(stat: Stat, args, result) -> None:
        stat.keys.add(str(args[0]) if args else "")

    @staticmethod
    def _key_of_normals(stat: Stat, args, result) -> None:
        stat.keys.add(tuple(sorted(r.coords for r in args[0].normals)))

    @staticmethod
    def _count_failed_row(stat: Stat, row) -> None:
        if row_failed(row):
            stat.failed += 1

    def _size_table(self, stat: Stat, args, result) -> None:
        """Cosets and retained bytes of each distinct table returned."""
        start = time.perf_counter()
        if id(result) not in self._tables:
            self._tables[id(result)] = result
            stat.cosets += len(result)
            stat.bytes += retained_bytes(result)
        self.paused += time.perf_counter() - start

    def install(self) -> None:
        import gradus
        from gradus import checks

        modules = [gradus] + [importlib.import_module(f"gradus.{layer}") for layer in LAYERS]
        hooks = {
            KEYED[0]: self._key_of_first_arg,
            KEYED[1]: self._key_of_normals,
            SIZED: self._size_table,
        }
        replacement = {}
        for layer, names in TRACED.items():
            module = sys.modules[f"gradus.{layer}"]
            for fn_name in names:
                fn = getattr(module, fn_name, None)
                if fn is None:  # renamed or removed: its figures are missing
                    continue
                full = f"{layer}.{fn_name}"
                replacement[id(fn)] = self.wrap(full, fn, on_result=hooks.get(full))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replacement and callable(value):
                    self._replace(vars(module), attr, replacement[id(value)])
        for suite, fn in list(checks.SUITES.items()):
            self._replace(checks.SUITES, suite,
                          self.wrap(f"checks.{suite}", fn, on_item=self._count_failed_row))

    def _replace(self, namespace: dict, key: str, value) -> None:
        self._installed.append((namespace, key, namespace[key]))
        namespace[key] = value

    def uninstall(self) -> None:
        """Put the original functions back; later calls are not traced."""
        for namespace, key, original in reversed(self._installed):
            namespace[key] = original
        self._installed.clear()

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        """Flat ``<layer>.<function>.<stat>`` figures plus per-layer totals."""
        out: dict[str, float] = {}
        totals = {layer: [0, 0.0] for layer in LAYERS}
        for name, s in self.stats.items():
            layer = name.split(".", 1)[0]
            totals[layer][0] += s.calls
            totals[layer][1] += s.self_s
            out[f"{name}.calls"] = s.calls
            out[f"{name}.self_s"] = s.self_s
            out[f"{name}.incl_s"] = s.incl_s
            out[f"{name}.items"] = s.items
            if name.startswith("checks.") and name[7:] not in TRACED["checks"]:
                out[f"{name}.rows"] = s.items
                out[f"{name}.failed"] = s.failed
            if name in KEYED:
                out[f"{name}.distinct"] = len(s.keys)
            if name == SIZED:
                out[f"{name}.cosets"] = s.cosets
                out[f"{name}.bytes_per_coset"] = s.bytes / s.cosets if s.cosets else 0.0
        for layer, (calls, self_s) in totals.items():
            out[f"{layer}.calls"] = calls
            out[f"{layer}.self_s"] = self_s
        return out

    def overhead_s(self) -> float:
        """Estimated seconds the spans added to the pass (a lower bound)."""
        steps = sum(1 for span in self.spans if span[2] in self._generators)
        call_s, step_s = span_cost()
        return (len(self.spans) - steps) * call_s + steps * step_s

    def dump(self, path) -> None:
        """Write the spans, times in integer nanoseconds from the first."""
        t0 = self.spans[0][3] if self.spans else 0.0
        spans = [(i, p, n, round((a - t0) * 1e9), round((b - t0) * 1e9))
                 for i, p, n, a, b in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start_ns", "end_ns"],
                       "names": self.names, "spans": spans}, fh, separators=(",", ":"))


def retained_bytes(root) -> int:
    """Bytes of the objects reachable from ``root``, not counting the root
    system, grading and roots it refers to, nor types, modules or functions."""
    from gradus.grading import Grading
    from gradus.rootsys import Root, RootSystem

    shared = (Grading, RootSystem, Root, type, type(sys), type(retained_bytes))
    seen = {id(root)}
    todo = [root]
    total = 0
    while todo:
        obj = todo.pop()
        total += sys.getsizeof(obj)
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(ref, shared):
                seen.add(id(ref))
                todo.append(ref)
    return total


def _leaf(x):
    return x


def _steps(n):
    yield from range(n)


def span_cost() -> tuple[float, float]:
    """Median extra seconds of one wrapped call and of one wrapped generator
    step over the bare ones, over seven rounds of 20,000 each.  A fresh
    tracer wraps no-ops and calls them inside an open span, as most traced
    calls are; the counters' hooks are left out."""
    n, repeats = 20000, 7
    probe = Tracer()
    leaf, steps = probe.wrap("probe.call", _leaf), probe.wrap("probe.step", _steps)
    clock = time.perf_counter
    call_s, step_s = [], []
    for _ in range(repeats):
        probe.spans.clear()
        probe._open()
        t0 = clock()
        for i in range(n):
            _leaf(i)
        t1 = clock()
        for i in range(n):
            leaf(i)
        t2 = clock()
        for _ in _steps(n):
            pass
        t3 = clock()
        for _ in steps(n):
            pass
        t4 = clock()
        probe._stack.pop()
        call_s.append(((t2 - t1) - (t1 - t0)) / n)
        step_s.append(((t4 - t3) - (t3 - t2)) / (n + 1))  # n items and the final stop
    return statistics.median(call_s), statistics.median(step_s)
