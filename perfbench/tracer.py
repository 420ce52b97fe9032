"""In-memory span tracing for the traced benchmark mode.

The benchmark measures layers from the outside: :meth:`Tracer.install`
replaces public entry points of ``repro`` at class or module level with
wrappers that record one span per call.  Nothing inside the program is
edited.  Wrappers must be installed before a server is built, because the
simulator binds ``scheduler.worker_decide``/``worker_finish`` when a run
starts, and several modules import functions such as ``replay_cost`` or
``spec_fingerprint`` by name, so a module-level function is rebound in
every ``repro`` module that holds it.

A span is ``(name, start, end, id, parent id, query id)``.  Its self time
is its duration minus the time its child spans cover.  Aggregates
(count, total, self) are kept for every span; the span records
themselves are kept up to a cap so long runs stay bounded in memory, and
are written as Chrome trace-event JSON.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import sys
import time
from typing import Callable, Dict, List, Optional

#: Span records kept for the Chrome trace; aggregates cover every span.
SPAN_CAP = 200_000


def _query_of_task_set(args) -> Optional[int]:
    return args[1].resource_group.query_id


def _query_of_arg(args) -> Optional[int]:
    return args[1]


def _count_rows(counters, args, result) -> None:
    counters["engine.rows"] += args[2]


def _count_events(counters, args, result) -> None:
    counters["simcore.events"] += result.events_processed


def _count_search(counters, args, result) -> None:
    counters["tuning.evaluations"] += result.evaluations
    counters["tuning.simulated_steps"] += result.simulated_steps


def _targets():
    """``(owner, attribute, span name, query-id getter, counter hook)``.

    ``owner`` is a class (the method is wrapped on it and on every
    subclass that overrides it) or a module (the function is rebound in
    every ``repro`` module that imported it).
    """
    from repro.cluster import placement, router
    from repro.core import morsel_exec, scheduler_base
    from repro.engine import datagen, execution, pipeline, queries
    from repro.runtime import admission, backend, channel
    from repro.server import AnalyticsServer
    from repro.sharing import fingerprint
    from repro.simcore import simulator
    from repro.tuning import compress, optimizer, replay

    return [
        (datagen, "generate_tpch", "engine.datagen", None, None),
        (queries, "build_engine_query", "engine.plan", None, None),
        (execution.EngineEnvironment, "run_morsel", "engine.run_morsel",
         _query_of_task_set, _count_rows),
        (execution.EngineEnvironment, "finish_query", "engine.finish_query",
         _query_of_arg, None),
        (pipeline.EnginePipeline, "finalize", "engine.finalize", None, None),
        (scheduler_base.SchedulerBase, "worker_decide", "core.decide", None, None),
        (scheduler_base.SchedulerBase, "worker_finish", "core.finish", None, None),
        (morsel_exec.MorselExecutor, "run_task", "core.run_task",
         _query_of_task_set, None),
        (simulator.Simulator, "run", "simcore.run", None, _count_events),
        (AnalyticsServer, "submit", "runtime.submit", None, None),
        (AnalyticsServer, "submit_spec", "runtime.submit", None, None),
        (admission.AdmissionPolicy, "admit", "runtime.admit", None, None),
        (backend.ExecutionBackend, "drain", "runtime.drain", None, None),
        (channel.ResultChannel, "put", "runtime.put", None, None),
        (channel, "assemble_chunks", "runtime.assemble", None, None),
        (fingerprint, "spec_fingerprint", "sharing.fingerprint", None, None),
        (fingerprint, "spec_fragment_fingerprint", "sharing.fingerprint", None, None),
        (placement.PlacementPolicy, "choose", "cluster.place", None, None),
        (placement.PlacementPolicy, "on_submit", "cluster.place", None, None),
        (router.ClusterRouter, "submit", "cluster.route", None, None),
        (router.ClusterRouter, "submit_spec", "cluster.route", None, None),
        (AnalyticsServer, "tune", "tuning.tune", None, None),
        (optimizer, "search_knob_space", "tuning.search", None, _count_search),
        (replay, "replay_workload", "tuning.replay", None, None),
        (compress, "compress_workload", "tuning.compress", None, None),
    ]


def _subclasses(cls) -> List[type]:
    """``cls`` and all its subclasses, each once."""
    found, queue = [], [cls]
    while queue:
        current = queue.pop()
        if current not in found:
            found.append(current)
            queue.extend(current.__subclasses__())
    return found


class Tracer:
    """Span recorder with per-name aggregates and a bounded span log."""

    def __init__(self) -> None:
        #: name -> [count, total seconds, self seconds]
        self.stats: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}
        self.spans: List[tuple] = []
        self._stack: List[list] = []
        self._ids = itertools.count(1)
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _begin(self) -> list:
        stack = self._stack
        frame = [0.0, 0.0, next(self._ids), stack[-1][2] if stack else 0]
        stack.append(frame)
        frame[0] = time.perf_counter()
        return frame

    def _end(self, frame: list, stat: list, name: str, query) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        duration = end - frame[0]
        if stack:
            stack[-1][1] += duration
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - frame[1]
        if len(self.spans) < SPAN_CAP:
            self.spans.append((name, frame[0], end, frame[2], frame[3], query))

    def _wrap(self, fn: Callable, name: str, query_of, hook) -> Callable:
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        begin, finish, counters = self._begin, self._end, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = begin()
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(frame, stat, name, query_of(args) if query_of else None)
            if hook is not None:
                hook(counters, args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code (e.g. fetching results)."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        frame = self._begin()
        try:
            yield
        finally:
            self._end(frame, stat, name, None)

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every target; idempotent until :meth:`uninstall`."""
        if self._patches:
            return
        for name in ("engine.rows", "simcore.events", "tuning.evaluations",
                     "tuning.simulated_steps"):
            self.counters.setdefault(name, 0.0)
        modules = [
            module for key, module in list(sys.modules.items())
            if key == "repro" or key.startswith("repro.")
        ]
        for owner, attr, name, query_of, hook in _targets():
            if isinstance(owner, type):
                for cls in _subclasses(owner):
                    original = cls.__dict__.get(attr)
                    if original is None:
                        continue
                    self._patches.append((cls, attr, original))
                    setattr(cls, attr, self._wrap(original, name, query_of, hook))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, query_of, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------
    def total(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def self_time(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def calls(self, name: str) -> int:
        return int(self.stats.get(name, [0, 0.0, 0.0])[0])

    def write_chrome(self, path: str) -> None:
        """Write the recorded spans as Chrome trace-event JSON."""
        origin = self.spans[0][1] if self.spans else 0.0
        events = []
        for name, start, end, span_id, parent, query in self.spans:
            args = {"id": span_id, "parent": parent}
            if query is not None:
                args["query"] = int(query)
            events.append({
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": args,
            })
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
