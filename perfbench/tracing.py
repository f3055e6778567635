"""Spans recorded around calls into each layer's public functions.

Nothing inside the program is modified on disk: :func:`install` replaces
each target attribute, in the namespace its caller resolves it from,
with a wrapper that records ``(name, start, end, parent, work, group)``
while the tracer is enabled. Spans stay in memory; :meth:`Tracer.dump` writes
them out when the benchmark ends.
"""

import contextlib
import functools
import importlib
import json
import time

# (module, attribute path, span name, work-count function or None).
# Functions a caller imported at module level are wrapped in that
# caller's namespace (repro.campaign.runner); functions imported lazily
# inside a function body are wrapped in their defining module; methods
# are wrapped on their class.
TARGETS = (
    ("repro.campaign.runner", "expand_manifest", "campaign.expand", None),
    ("repro.campaign.runner", "plan_shards", "campaign.plan", None),
    ("repro.campaign.runner", "save_runset_shard",
     "analysis.store_write", None),
    ("repro.campaign.runner", "load_runset_dir", "analysis.store_read", None),
    ("repro.analysis.store", "list_runset_shards",
     "analysis.store_read", None),
    ("repro.exec", "parallel_map", "exec.parallel_map", None),
    ("repro.workloads.tracepack", "get_pack", "workloads.get_pack", None),
    ("repro.sim.trace_engine", "run_packed_roster", "sim.run_packed_roster",
     lambda args, kwargs, result: len(args[0] if args else kwargs["cells"])),
    ("repro.sim.trace_engine", "run_dynamic_roster",
     "sim.run_dynamic_roster", None),
    ("repro.sim.trace_engine", "way_allocation_sweep",
     "sim.way_allocation_sweep", None),
    ("repro.sim.trace_engine", "TraceEngine.run_packed", "sim.run_packed",
     None),
    ("repro.cache.kernel", "build_native_batch_replay", "cache.table_build",
     None),
    ("repro.cache.kernel", "build_native_epoch_batch_replay",
     "cache.table_build", None),
    ("repro.cache.kernel", "NativeBatchReplay.run", "cache.batch_replay",
     lambda args, kwargs, result: args[0].issued),
    ("repro.sim.gridsolve", "run_pair_grid", "sim.run_pair_grid", None),
    ("repro.sim.engine", "Machine.run_pair", "sim.run_pair", None),
    ("repro.core.dynamic", "DynamicPartitionController.on_tick",
     "core.controller_tick", None),
    ("repro.workloads.churn", "ChurnController.on_tick",
     "core.controller_tick", None),
    ("repro.core.clustering", "cluster_tenants", "core.cluster_tenants",
     None),
    ("repro.backend.trace", "TraceBackend.way_utility",
     "backend.way_utility", None),
    ("repro.backend.analytical", "AnalyticalBackend.co_run_grid",
     "backend.co_run_grid", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in TARGETS))


class Tracer:
    """An in-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.enabled = False
        self.spans = []  # [name, start, end, parent index, work, group]
        self._stack = []
        self.group = None

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), None, parent, None, self.group]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def recording(self, group):
        """Record spans under ``group`` for the duration of the block."""
        self.group = group
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around the block (used for root spans)."""
        if not self.enabled:
            yield
            return
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, name, fn, work=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if work is not None:
                span[4] = work(args, kwargs, result)
            return result

        return traced

    def dump(self, path):
        """Write every span as one compact row under a field header."""
        with open(path, "w") as handle:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "work",
                            "group"],
                 "spans": self.spans},
                handle,
                separators=(",", ":"),
            )


def install(tracer):
    """Wrap every target; raises if a target no longer exists."""
    for module_name, path, name, work in TARGETS:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = getattr(owner, attr)  # AttributeError: target renamed
        setattr(owner, attr, tracer.wrap(name, original, work))


def layer_times(spans, group):
    """``{name: (busy_s, self_s, calls, work)}`` over one group's spans.

    Busy time counts a span only when no ancestor has the same name, so
    nested calls of one layer are not counted twice. Self time is a
    span's duration minus the durations of its direct children.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, work, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for i, (name, start, end, parent, work, span_group) in enumerate(spans):
        if span_group != group:
            continue
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        duration = end - start
        busy, self_s, calls, total_work = out.get(name, (0.0, 0.0, 0, 0))
        out[name] = (
            busy + (duration if ancestor < 0 else 0.0),
            self_s + duration - child_time[i],
            calls + 1,
            total_work + (work or 0),
        )
    return out


def shard_times(spans, group):
    """Seconds per shard of each traced ``campaign.run`` in ``group``.

    A shard ends when its checkpoint write returns; the first shard is
    timed from the end of pack materialisation (the last ``get_pack``
    the runner itself made before the first write), or from the end of
    planning when no packs are needed.
    """
    times = []
    for root, span in enumerate(spans):
        if span[0] != "campaign.run" or span[5] != group:
            continue
        children = [s for s in spans if s[3] == root]
        writes = [s for s in children if s[0] == "analysis.store_write"]
        if not writes:
            continue
        anchor = max(
            (s[2] for s in children
             if s[0] in ("campaign.plan", "workloads.get_pack")
             and s[2] <= writes[0][1]),
            default=span[1],
        )
        for write in writes:
            times.append(write[2] - anchor)
            anchor = write[2]
    return times
