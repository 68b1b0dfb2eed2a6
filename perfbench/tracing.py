"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of docksim from outside: each wrapper is
installed on the module attribute that the caller looks up at call time
(``docksim.dynamics.integrate_dde`` as ``simulate`` sees it,
``docksim.cli.validate`` rather than ``docksim.core.validate`` because
``cli`` imports the name directly). No source file of the package changes,
and ``restore`` puts every original back.

Spans live in memory, one per wrapped call, with name, start, end, parent
span and operation id; ``dump`` writes them out when the run ends. Self time
is a span's duration minus the durations of its child spans. Counters are
guarded by a lock because ``stability_boundary`` may call into wrapped code
from its worker threads.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import statistics
import threading
import time
from collections import defaultdict

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("dynamics.rhs_2d.us_per_call", "us", "lower"),
    ("dynamics.rhs_3d.us_per_call", "us", "lower"),
    ("dynamics.integrate_dde.s", "s", "lower"),
    ("dynamics.us_per_step", "us", "lower"),
    ("dynamics.integrate_dde.overhead_us_per_step", "us", "lower"),
    ("dynamics.steps", "count", "lower"),
    ("dynamics.rhs.calls", "count", "lower"),
    ("dynamics.rhs.calls_per_step", "ratio", "lower"),
    ("dynamics.postprocess.self_s", "s", "lower"),
    ("dynamics.extract_events.s", "s", "lower"),
    ("dynamics.events", "count", "higher"),
    ("dynamics.write_trajectory_csv.s", "s", "lower"),
    ("dynamics.write_trajectory_csv.rows", "count", "higher"),
    ("dynamics.write_trajectory_csv.bytes", "bytes", "lower"),
    ("cli.main.energy.self_s", "s", "lower"),
    ("cli.main.simulate.self_s", "s", "lower"),
    ("cli.load_scenario.s", "s", "lower"),
    ("core.validate.s", "s", "lower"),
    ("stability.stability_boundary.s", "s", "lower"),
    ("stability.stability_boundary.points", "count", "higher"),
    ("stability.stability_boundary.failed_points", "count", "lower"),
    ("stability.stability_boundary.cpu_per_wall", "ratio", "lower"),
    ("stability.critical_damping.s", "s", "lower"),
    ("stability.critical_delays.calls_per_solve", "ratio", "lower"),
    ("stability.verdict_4th_order.s", "s", "lower"),
    ("analysis.restitution.calls", "count", "higher"),
    ("analysis.streams_from_trajectories.s", "s", "lower"),
    ("analysis.observed_energy.s", "s", "lower"),
    ("analysis.write_energy_csv.s", "s", "lower"),
    ("analysis.write_energy_csv.rows", "count", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.uncovered_share", "ratio", "lower"),
]


class Span:
    __slots__ = ("sid", "name", "t0", "t1", "parent", "op", "cpu", "info")

    def __init__(self, sid, name, parent, op):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.op = op
        self.t0 = self.t1 = 0.0
        self.cpu = None
        self.info = None

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """In-memory spans and counters, plus the patches that produce them."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[tuple, int] = defaultdict(int)
        self.op = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple] = []
        self._rhs_counters: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def _open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(next(self._ids), name, stack[-1].sid if stack else None, self.op)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def count(self, name: str) -> None:
        with self._lock:
            self.counts[(self.op, name)] += 1

    @contextlib.contextmanager
    def operation(self, op_id):
        """A root span named 'operation'; spans opened inside carry op_id."""
        self.op = op_id
        span = self._open("operation")
        span.t0 = time.perf_counter()
        try:
            yield span
        finally:
            span.t1 = time.perf_counter()
            self._close(span)
            self.op = None

    def wrap(self, name, fn, info=None, cpu=False):
        """Span-recording wrapper. ``name`` is a string or a function of the
        call's arguments; ``info(args, kwargs, result)`` attaches facts about
        the call (rows, points, ...) after the span has closed."""
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer._open(name if isinstance(name, str) else name(args, kwargs))
            c0 = time.process_time() if cpu else 0.0
            span.t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                if cpu:
                    span.cpu = time.process_time() - c0
                tracer._close(span)
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return wrapper

    def counted_rhs_factory(self, factory):
        """Wrap a make_rhs_* factory so the closure it returns counts calls.
        The integrator calls the closure from one thread only, so a plain
        cell per closure suffices; the cells are summed per operation."""
        tracer = self

        def make(*args, **kwargs):
            rhs = factory(*args, **kwargs)
            calls = [0]
            with tracer._lock:
                tracer._rhs_counters.append((tracer.op, calls))

            def counted(y, yd):
                calls[0] += 1
                return rhs(y, yd)

            return counted

        return make

    def patch(self, module, attr: str, replacement) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def rhs_calls(self, op) -> int:
        return sum(cell[0] for o, cell in self._rhs_counters if o == op)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.t0):
                fh.write(json.dumps({
                    "id": s.sid, "name": s.name, "parent": s.parent, "op": s.op,
                    "start": s.t0, "end": s.t1, "cpu": s.cpu, "info": s.info,
                }) + "\n")


def install(tracer: Tracer, mods) -> None:
    """Patch docksim's module attributes at each layer boundary."""
    cli, dynamics, stability, analysis = mods.cli, mods.dynamics, mods.stability, mods.analysis
    w = tracer.wrap
    tracer.patch(cli, "main", w(lambda a, k: "cli.main." + (a[0] if a else k["argv"])[0], cli.main))
    tracer.patch(cli, "load_scenario", w("cli.load_scenario", cli.load_scenario))
    tracer.patch(cli, "validate", w("core.validate", cli.validate))

    tracer.patch(dynamics, "simulate", w("dynamics.simulate", dynamics.simulate))
    tracer.patch(dynamics, "integrate_dde", w(
        "dynamics.integrate_dde", dynamics.integrate_dde,
        info=lambda a, k, r: {"steps": len(r[0]) - 1}))
    tracer.patch(dynamics, "extract_events", w(
        "dynamics.extract_events", dynamics.extract_events,
        info=lambda a, k, r: {"events": len(r)}))
    tracer.patch(dynamics, "write_trajectory_csv", w(
        "dynamics.write_trajectory_csv", dynamics.write_trajectory_csv,
        info=lambda a, k, r: {"rows": len(a[0].times), "bytes": os.path.getsize(a[1])}))
    tracer.patch(dynamics, "make_rhs_2d", tracer.counted_rhs_factory(dynamics.make_rhs_2d))
    tracer.patch(dynamics, "make_rhs_3d", tracer.counted_rhs_factory(dynamics.make_rhs_3d))

    tracer.patch(stability, "stability_boundary", w(
        "stability.stability_boundary", stability.stability_boundary, cpu=True,
        info=lambda a, k, r: {"points": len(r), "failed": sum(p.error is not None for p in r)}))
    tracer.patch(stability, "critical_damping", w("stability.critical_damping", stability.critical_damping))
    tracer.patch(stability, "verdict_4th_order", w("stability.verdict_4th_order", stability.verdict_4th_order))
    critical_delays = stability.critical_delays

    def counted_critical_delays(*args, **kwargs):
        # boundary workers call this too; only bisection calls are counted
        parent = tracer.current()
        if parent is not None and parent.name == "stability.critical_damping":
            tracer.count("stability.critical_delays@critical_damping")
        return critical_delays(*args, **kwargs)

    tracer.patch(stability, "critical_delays", counted_critical_delays)

    tracer.patch(analysis, "restitution", w("analysis.restitution", analysis.restitution))
    tracer.patch(analysis, "streams_from_trajectories", w(
        "analysis.streams_from_trajectories", analysis.streams_from_trajectories))
    tracer.patch(analysis, "observed_energy", w("analysis.observed_energy", analysis.observed_energy))
    tracer.patch(analysis, "write_energy_csv", w(
        "analysis.write_energy_csv", analysis.write_energy_csv,
        info=lambda a, k, r: {"rows": len(a[0].total)}))


def _median(values, default=0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


def layer_metrics(tracer: Tracer, ops: list, setup_op) -> dict:
    """Per-layer figures from the spans of the traced operations ``ops``
    (and, for scenario load and validation, the traced set-up ``setup_op``).

    Times (``.s``, ``.self_s``, ``us_per_step``) are medians per call;
    counts are medians per operation; layers a workload never reaches read 0.
    """
    op_set = set(ops)
    in_ops = [s for s in tracer.spans if s.op in op_set]
    by_name = defaultdict(list)
    for s in in_ops:
        by_name[s.name].append(s)
    children = defaultdict(float)
    for s in in_ops:
        if s.parent is not None:
            children[s.parent] += s.duration

    def per_call(name):
        return _median(s.duration for s in by_name[name])

    def self_time(name):
        return _median(s.duration - children[s.sid] for s in by_name[name])

    def per_op(name, key=None):
        totals = {op: 0 for op in ops}
        for s in by_name[name]:
            totals[s.op] += 1 if key is None else s.info[key]
        return _median(totals.values())

    setup_spans = [s for s in tracer.spans if s.op in op_set or s.op == setup_op]
    m = {}
    m["dynamics.integrate_dde.s"] = per_call("dynamics.integrate_dde")
    m["dynamics.us_per_step"] = _median(
        1e6 * s.duration / s.info["steps"] for s in by_name["dynamics.integrate_dde"])
    m["dynamics.steps"] = per_op("dynamics.integrate_dde", "steps")
    m["dynamics.rhs.calls"] = _median(tracer.rhs_calls(op) for op in ops)
    m["dynamics.rhs.calls_per_step"] = (
        m["dynamics.rhs.calls"] / m["dynamics.steps"] if m["dynamics.steps"] else 0.0)
    m["dynamics.postprocess.self_s"] = self_time("dynamics.simulate")
    m["dynamics.extract_events.s"] = per_call("dynamics.extract_events")
    m["dynamics.events"] = per_op("dynamics.extract_events", "events")
    m["dynamics.write_trajectory_csv.s"] = per_call("dynamics.write_trajectory_csv")
    m["dynamics.write_trajectory_csv.rows"] = per_op("dynamics.write_trajectory_csv", "rows")
    m["dynamics.write_trajectory_csv.bytes"] = per_op("dynamics.write_trajectory_csv", "bytes")
    m["cli.main.energy.self_s"] = self_time("cli.main.energy")
    m["cli.main.simulate.self_s"] = self_time("cli.main.simulate")
    m["cli.load_scenario.s"] = _median(s.duration for s in setup_spans if s.name == "cli.load_scenario")
    m["core.validate.s"] = _median(s.duration for s in setup_spans if s.name == "core.validate")
    boundary = by_name["stability.stability_boundary"]
    m["stability.stability_boundary.s"] = per_call("stability.stability_boundary")
    m["stability.stability_boundary.points"] = per_op("stability.stability_boundary", "points")
    m["stability.stability_boundary.failed_points"] = per_op("stability.stability_boundary", "failed")
    m["stability.stability_boundary.cpu_per_wall"] = _median(s.cpu / s.duration for s in boundary)
    m["stability.critical_damping.s"] = per_call("stability.critical_damping")
    solves = len(by_name["stability.critical_damping"])
    bisection_calls = sum(tracer.counts.get((op, "stability.critical_delays@critical_damping"), 0) for op in ops)
    m["stability.critical_delays.calls_per_solve"] = bisection_calls / solves if solves else 0.0
    m["stability.verdict_4th_order.s"] = per_call("stability.verdict_4th_order")
    m["analysis.restitution.calls"] = per_op("analysis.restitution")
    m["analysis.streams_from_trajectories.s"] = per_call("analysis.streams_from_trajectories")
    m["analysis.observed_energy.s"] = per_call("analysis.observed_energy")
    m["analysis.write_energy_csv.s"] = per_call("analysis.write_energy_csv")
    m["analysis.write_energy_csv.rows"] = per_op("analysis.write_energy_csv", "rows")
    return m


def uncovered_shares(tracer: Tracer, ops: list) -> dict:
    """For each operation, the share of its wall time that no layer span
    covers (the benchmark's own glue plus unwrapped code)."""
    op_set = set(ops)
    roots = {s.op: s for s in tracer.spans if s.name == "operation" and s.op in op_set}
    covered = defaultdict(float)
    root_ids = {s.sid: s.op for s in roots.values()}
    for s in tracer.spans:
        if s.parent in root_ids:
            covered[root_ids[s.parent]] += s.duration
    return {op: 1.0 - covered[op] / root.duration for op, root in roots.items()}
