"""Trace-driven multi-core co-execution at address level.

The statistical interval engine answers the paper's full-size questions;
this engine answers the mechanism-level ones: it interleaves several
address traces through the real cache hierarchy by virtual time (each
domain advances by its access latency plus its compute "think time"), so
partitioning effects on *actual line replacement* can be measured — the
ground truth the occupancy model approximates.
"""

import contextlib
import gc
import heapq
from dataclasses import dataclass, field

from repro.cache.block import LINE_SHIFT
from repro.cache.hierarchy import CacheHierarchy
from repro.perf import engine_counters as ec
from repro.util.errors import ValidationError

# The replay drivers count hits per level in this order; these are the
# level names the generic walk reports.
_LEVEL_NAMES = ("L1", "L2", "LLC", "MEM")


@dataclass
class TraceWorkload:
    """One domain's access stream plus its compute intensity."""

    name: str
    trace_factory: object  # () -> iterable of MemoryAccess
    tid: int = 0
    think_cycles: int = 10  # compute cycles between memory accesses
    repeat: bool = True  # loop the trace until the run ends

    def __post_init__(self):
        if self.think_cycles < 0:
            raise ValidationError("think time cannot be negative")


@dataclass
class TraceStats:
    """Per-domain outcome of a trace-driven co-run."""

    accesses: int = 0
    cycles: float = 0.0
    total_latency: float = 0.0
    llc_misses: int = 0
    hits_by_level: dict = field(default_factory=dict)

    @property
    def avg_latency(self):
        return self.total_latency / self.accesses if self.accesses else 0.0

    @property
    def access_rate_per_kilocycle(self):
        return 1000.0 * self.accesses / self.cycles if self.cycles else 0.0


@dataclass
class DynamicTraceResult:
    """Outcome of a trace-driven dynamic-partitioning co-run.

    ``timeline`` holds one entry per applied reallocation (epoch index,
    controller time, foreground ways, reason, MPKI sample, and the full
    name -> way-bitmask map) — the trace-level analogue of the action
    trail `repro dynamic` prints for the analytical engine. It is
    byte-equal between the native and pure-Python epoch drivers.
    """

    stats: dict
    timeline: list
    actions: list
    epochs: int
    native: bool


@contextlib.contextmanager
def _gc_paused():
    """Pause cyclic GC: replay loops allocate only transient ints, so
    collection passes are pure overhead for their duration."""
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _acquire_packs(workloads, packs, pack_cache, pack_store):
    """Read-only packs aligned with ``workloads``, or ``None``.

    ``packs`` passes through when given (it must align); otherwise each
    trace is compiled or loaded through the pack cache. ``None`` means
    no pack driver applies: a factory is not pack-compilable, or a pack
    carries writes.
    """
    if packs is None:
        from repro.workloads.trace import _TraceBase
        from repro.workloads.tracepack import get_pack

        packs = []
        for w in workloads:
            source = w.trace_factory()
            if not isinstance(source, _TraceBase):
                return None
            packs.append(get_pack(source, cache=pack_cache, store=pack_store))
    elif len(packs) != len(workloads):
        raise ValidationError("need one pack per workload")
    if any(p.writes_list() is not None for p in packs):
        return None
    return packs


def _llc_columns(llc):
    """``(num_sets, indexing)`` naming the packs' LLC set column."""
    return llc.num_sets, llc.indexing


def _build_replay(hierarchy, workloads, cores, packs):
    """The epoch replay driver for one co-run, or ``None``.

    The native ``multiwalk.c`` driver when it applies, else the
    pure-Python one (counted in ``PYTHON_REPLAYS``); ``None`` when the
    lean walk cannot replay this hierarchy (see
    :func:`repro.cache.kernel.build_python_epoch_replay`).
    """
    from repro.cache.kernel import (
        _epoch_replay_supported,
        build_native_epoch_replay,
        build_python_epoch_replay,
    )

    if not _epoch_replay_supported(hierarchy, cores):
        return None  # e.g. dirty levels left by run()
    thinks = [w.think_cycles for w in workloads]
    repeats = [w.repeat for w in workloads]
    lengths = [len(p.line) for p in packs]
    columns = _llc_columns(hierarchy.llc.storage)
    replay = build_native_epoch_replay(
        hierarchy, cores, thinks,
        [p.line for p in packs],
        [p.set_column(*columns) for p in packs],
        lengths, repeats,
    )
    if replay is None:
        replay = build_python_epoch_replay(
            hierarchy, cores, thinks,
            [p.lines_list() for p in packs],
            [p.sets_list(*columns) for p in packs],
            lengths, repeats,
        )
        if replay is not None:
            ec.add(ec.PYTHON_REPLAYS)
    return replay


def _timeline_entry(epoch, controller, new_masks):
    """One reallocation record for :attr:`DynamicTraceResult.timeline`."""
    act = controller.actions[-1]
    return {
        "epoch": epoch,
        "time_s": act.time_s,
        "fg_ways": act.fg_ways,
        "reason": act.reason,
        "mpki": act.mpki,
        "masks": {n: m.bits for n, m in sorted(new_masks.items())},
    }


class TraceEngine:
    """Virtual-time interleaving of traces over one cache hierarchy
    (a fresh default :class:`CacheHierarchy` when none is supplied).

    :meth:`run` walks the object model access by access; with all
    prefetchers off it dispatches through the hierarchy's
    allocation-free :meth:`~repro.cache.hierarchy.CacheHierarchy.access_fast`
    instead of the per-access protocol (results are identical either
    way; ``tests/cache/test_kernel.py`` pins the two access by access).
    :meth:`run_packed` and :meth:`run_dynamic` replay compiled packs on
    the levels' flat state, bit-identical to :meth:`run`.
    """

    def __init__(self, hierarchy=None, prefetchers_on=True):
        self.hierarchy = hierarchy or CacheHierarchy()
        self.hierarchy.set_prefetchers(enabled=prefetchers_on)

    def run(self, workloads, total_accesses=100_000):
        """Co-run the workloads; returns {name: TraceStats}.

        The run ends after ``total_accesses`` combined accesses, or when
        every non-repeating trace is exhausted.
        """
        if not workloads:
            raise ValidationError("need at least one workload")
        names = [w.name for w in workloads]
        if len(set(names)) != len(names):
            raise ValidationError("workload names must be unique")

        # Index-based state (no per-access string-keyed lookups): slot i
        # holds workload i's iterator, stats, think time, and walker.
        iterators = [iter(w.trace_factory()) for w in workloads]
        stats_list = [TraceStats() for _ in workloads]
        thinks = [w.think_cycles for w in workloads]
        # (virtual_time, slot) min-heap: the least-advanced domain issues
        # next, modelling concurrent progress. The slot is a unique
        # tiebreak, so pop order matches the original (vtime, i, name)
        # entries exactly.
        heap = [(0.0, i) for i in range(len(workloads))]
        heapq.heapify(heap)
        issued = 0

        hierarchy = self.hierarchy
        use_fast = not hierarchy.prefetchers_enabled()
        access_fast = hierarchy.access_fast
        cores = [hierarchy.core_of_tid(w.tid) for w in workloads]
        heappop, heappush = heapq.heappop, heapq.heappush

        while heap and issued < total_accesses:
            vtime, slot = heappop(heap)
            try:
                access = next(iterators[slot])
            except StopIteration:
                workload = workloads[slot]
                if not workload.repeat:
                    continue  # exhausted, non-repeating: domain retires
                iterators[slot] = iter(workload.trace_factory())
                try:
                    access = next(iterators[slot])
                except StopIteration:
                    continue
            if use_fast:
                hit_level, latency = access_fast(
                    access.address >> LINE_SHIFT, access.is_write, cores[slot]
                )
            else:
                result = hierarchy.access(access)
                hit_level, latency = result.hit_level, result.latency
            s = stats_list[slot]
            s.accesses += 1
            s.total_latency += latency
            s.cycles = vtime + latency + thinks[slot]
            hbl = s.hits_by_level
            hbl[hit_level] = hbl.get(hit_level, 0) + 1
            if hit_level == "MEM":
                s.llc_misses += 1
            issued += 1
            heappush(heap, (s.cycles, slot))
        ec.add(ec.TRACE_ACCESSES, issued)
        return {w.name: stats_list[i] for i, w in enumerate(workloads)}

    def run_packed(self, workloads, total_accesses=100_000, packs=None,
                   pack_cache=None, pack_store=True):
        """Co-run over compiled trace packs; bit-identical to :meth:`run`.

        Each workload's trace is compiled (or loaded from the pack cache)
        into columnar arrays once, and the whole run is ONE epoch of the
        pack replay driver: the native ``multiwalk.c`` kernel when it is
        available, else the pure-Python
        :class:`~repro.cache.kernel.PythonEpochReplay` —
        no generator resumption, no ``MemoryAccess`` materialization,
        and no set hashing per access. ``packs`` optionally supplies
        pre-compiled packs aligned with ``workloads``. Falls back to
        :meth:`run` whenever neither driver applies: prefetchers on, a
        non-compilable trace factory, a write-bearing pack, two
        workloads on one core, or a hierarchy the lean walk cannot
        replay (dirty or prefetched state left by :meth:`run`, other
        inner geometry).
        """
        if not workloads:
            raise ValidationError("need at least one workload")
        names = [w.name for w in workloads]
        if len(set(names)) != len(names):
            raise ValidationError("workload names must be unique")

        hierarchy = self.hierarchy
        if hierarchy.prefetchers_enabled():
            return self.run(workloads, total_accesses)
        packs = _acquire_packs(workloads, packs, pack_cache, pack_store)
        if packs is None:
            return self.run(workloads, total_accesses)
        cores = [hierarchy.core_of_tid(w.tid) for w in workloads]
        replay = _build_replay(hierarchy, workloads, cores, packs)
        if replay is None:
            return self.run(workloads, total_accesses)
        with _gc_paused():
            replay.run_epoch(total_accesses)
        grabbed, vtimes = replay.finish()
        return self._packed_stats(
            workloads, list(grabbed), list(vtimes), packs
        )

    def run_dynamic(self, workloads, controller, epoch_accesses=5_000,
                    total_accesses=100_000, packs=None, pack_cache=None,
                    pack_store=True):
        """Trace-driven dynamic partitioning: epoch replay + controller.

        Replays the co-run in epochs of ``epoch_accesses`` combined
        accesses; after each epoch the per-domain LLC miss/access deltas
        become an MPKI window fed to ``controller.on_tick`` (one epoch =
        one control period), and any masks the controller returns are
        applied to the hierarchy *without flushing anything* — every
        resident line and the full recency state carry straight across
        the reallocation, which is the Section 2.1 mechanism semantics
        the analytical ``repro dynamic`` can only model. Uses the native
        epoch kernel when available, else the bit-identical pure-Python
        epoch driver; stats and the reallocation timeline are byte-equal
        either way. Returns a :class:`DynamicTraceResult`.
        """
        if len(workloads) < 2:
            raise ValidationError("dynamic partitioning needs >= 2 workloads")
        names = [w.name for w in workloads]
        if len(set(names)) != len(names):
            raise ValidationError("workload names must be unique")
        if epoch_accesses < 1:
            raise ValidationError("epoch_accesses must be positive")
        hierarchy = self.hierarchy
        if hierarchy.prefetchers_enabled():
            raise ValidationError("run_dynamic needs prefetchers off")
        packs = _acquire_packs(workloads, packs, pack_cache, pack_store)
        if packs is None:
            raise ValidationError(
                "run_dynamic needs pack-compilable, read-only traces"
            )
        cores = [hierarchy.core_of_tid(w.tid) for w in workloads]
        if len(set(cores)) != len(cores):
            raise ValidationError("workloads must run on distinct cores")
        core_by_name = dict(zip(names, cores))
        initial = controller.masks()
        if set(initial) != set(names):
            raise ValidationError(
                "controller domain names must match the workload names"
            )
        # Masks first, then the replay builders capture them.
        for name, mask in initial.items():
            hierarchy.set_way_mask(core_by_name[name], mask)

        from repro.core.dynamic import mpki_window

        replay = _build_replay(hierarchy, workloads, cores, packs)
        if replay is None:
            raise ValidationError(
                "run_dynamic needs the lean kernel replay (8-way inner "
                "levels, clean dirty/prefetch state)"
            )

        period_s = controller.period_s
        prev = [(0, 0, 0, 0)] * len(workloads)
        timeline = []
        epoch = 0
        issued = 0
        with _gc_paused():
            while issued < total_accesses:
                target = issued + epoch_accesses
                if target > total_accesses:
                    target = total_accesses
                progressed = replay.run_epoch(target)
                if progressed == issued:
                    break  # every domain retired
                issued = progressed
                epoch += 1
                metrics = {}
                for i, name in enumerate(names):
                    cur = replay.counters(i)
                    delta_acc = sum(cur) - sum(prev[i])
                    delta_miss = cur[3] - prev[i][3]
                    prev[i] = cur
                    metrics[name] = {"mpki": mpki_window(delta_miss,
                                                         delta_acc),
                                     "accesses": delta_acc,
                                     "misses": delta_miss}
                now_s = epoch * period_s
                new_masks = controller.on_tick(now_s, period_s, metrics)
                if new_masks:
                    for name, mask in new_masks.items():
                        hierarchy.set_way_mask(core_by_name[name], mask)
                    replay.refresh_masks()
                    timeline.append(
                        _timeline_entry(epoch, controller, new_masks)
                    )
        grabbed, vtimes = replay.finish()
        stats = self._packed_stats(
            workloads, list(grabbed), list(vtimes), packs
        )
        return DynamicTraceResult(
            stats=stats,
            timeline=timeline,
            actions=list(controller.actions),
            epochs=epoch,
            native=replay.native,
        )

    @staticmethod
    def _packed_stats(workloads, grabbed, vtimes, packs):
        """Materialize per-workload TraceStats from raw level counts."""
        stats_list = []
        issued = 0
        for i, w in enumerate(workloads):
            g0, g1, g2, g3 = grabbed[i]
            acc = g0 + g1 + g2 + g3
            issued += acc
            s = TraceStats()
            s.accesses = acc
            s.total_latency = float(g0 * 4 + g1 * 12 + g2 * 30 + g3 * 200)
            s.cycles = float(vtimes[i])
            hbl = s.hits_by_level
            for level, count in zip(_LEVEL_NAMES, (g0, g1, g2, g3)):
                if count:
                    hbl[level] = count
            s.llc_misses = g3
            stats_list.append(s)
        ec.add(ec.TRACE_ACCESSES, issued)
        ec.add(ec.PACK_REPLAYS, len(packs))
        return {w.name: stats_list[i] for i, w in enumerate(workloads)}


def measure_isolation(fg_workload, bg_workload, fg_mask=None, bg_mask=None,
                      total_accesses=120_000, prefetchers_on=False):
    """Foreground latency/miss-ratio alone, shared, and partitioned.

    The address-level version of the paper's core experiment. Prefetchers
    default off: a prefetch-accelerated stream monopolizes the access
    budget and the measurement becomes a warm-up study rather than a
    partitioning one. Each pass is a :meth:`TraceEngine.run_packed`
    co-run (bit-identical to :meth:`TraceEngine.run`, which it falls
    back to with prefetchers on); the measured pass replays on the
    state the warm-up pass left in place.
    """
    from repro.cache.llc import WayMask

    def fresh_engine(masks=None):
        engine = TraceEngine(prefetchers_on=prefetchers_on)
        if masks:
            for core, mask in masks.items():
                engine.hierarchy.set_way_mask(core, mask)
        return engine

    fg_core = fg_workload.tid // 2
    bg_core = bg_workload.tid // 2
    if fg_core == bg_core:
        raise ValidationError("workloads must run on different cores")

    def warm_then_measure(masks, workloads):
        engine = fresh_engine(masks)
        engine.run_packed(workloads, total_accesses)  # warm-up pass
        return engine.run_packed(workloads, total_accesses)  # measured pass

    alone = warm_then_measure(None, [fg_workload])
    shared = warm_then_measure(None, [fg_workload, bg_workload])
    masks = {
        fg_core: fg_mask or WayMask.contiguous(9, 0),
        bg_core: bg_mask or WayMask.contiguous(3, 9),
    }
    partitioned = warm_then_measure(masks, [fg_workload, bg_workload])

    def summarize(stats):
        s = stats[fg_workload.name]
        return {
            "avg_latency": s.avg_latency,
            "miss_ratio": s.llc_misses / s.accesses if s.accesses else 0.0,
        }

    return {
        "alone": summarize(alone),
        "shared": summarize(shared),
        "partitioned": summarize(partitioned),
    }


@dataclass
class RosterCell:
    """One independent co-run in a batched roster.

    ``masks`` optionally maps core -> :class:`~repro.cache.llc.WayMask`
    applied for this cell only (the batched equivalent of
    ``set_way_mask`` on a fresh engine); unnamed cores keep the
    hierarchy's default full mask.
    """

    workloads: list
    masks: dict = None
    total_accesses: int = 100_000


def _run_roster_sequential(cells, prefetchers_on, pack_cache, pack_store):
    """The reference path: one fresh engine + ``run_packed`` per cell."""
    results = []
    for cell in cells:
        engine = TraceEngine(prefetchers_on=prefetchers_on)
        if cell.masks:
            for core, mask in cell.masks.items():
                engine.hierarchy.set_way_mask(core, mask)
        results.append(engine.run_packed(
            cell.workloads,
            total_accesses=cell.total_accesses,
            pack_cache=pack_cache,
            pack_store=pack_store,
        ))
    return results


def run_packed_roster(cells, prefetchers_on=False, threads=None,
                      pack_cache=None, pack_store=True, sequential=False):
    """Replay a roster of independent co-runs in ONE native call.

    Each :class:`RosterCell` gets its own fresh hierarchy state (the
    template engine's state, snapshotted once and tiled inside
    :func:`~repro.cache.kernel.build_native_batch_replay`), its own way
    masks, and its own issue budget; the compiled batch kernel replays
    every cell in a single ctypes call, threading over cells per
    ``threads`` / ``REPRO_NATIVE_THREADS``. Returns a list of
    ``{name: TraceStats}`` aligned with ``cells``, bit-identical — for
    any thread count, and with ``REPRO_NATIVE=0`` — to running each
    cell on a fresh :class:`TraceEngine` via :meth:`TraceEngine.run_packed`
    (which is exactly what the fallback does whenever a cell is not
    batchable: prefetchers on, non-compilable traces, writing traces,
    shared cores, or no native kernel). ``sequential=True`` forces that
    reference path.

    Shared traces dedupe through the pack cache, so R allocations of a
    way sweep replay one memmapped TracePack, not R copies.
    """
    if not cells:
        return []
    for cell in cells:
        if not cell.workloads:
            raise ValidationError("every roster cell needs workloads")
        names = [w.name for w in cell.workloads]
        if len(set(names)) != len(names):
            raise ValidationError("workload names must be unique per cell")

    def fallback():
        return _run_roster_sequential(
            cells, prefetchers_on, pack_cache, pack_store
        )

    if sequential or prefetchers_on:
        return fallback()

    cell_packs = []
    for cell in cells:
        packs = _acquire_packs(cell.workloads, None, pack_cache, pack_store)
        if packs is None:
            return fallback()
        cell_packs.append(packs)

    from repro.cache.kernel import build_native_batch_replay

    template = TraceEngine(prefetchers_on=False)
    h = template.hierarchy
    columns = _llc_columns(h.llc.storage)
    core_of = h.core_of_tid
    default_bits = h.llc._mask_bits

    cell_dicts = []
    for cell, packs in zip(cells, cell_packs):
        cores = [core_of(w.tid) for w in cell.workloads]
        if len(set(cores)) != len(cores):
            return fallback()
        mask_bits = None
        if cell.masks:
            mask_bits = [
                cell.masks[c].bits if c in cell.masks else default_bits[c]
                for c in cores
            ]
        cell_dicts.append({
            "cores": cores,
            "thinks": [w.think_cycles for w in cell.workloads],
            "mask_bits": mask_bits,
            "lines": [p.line for p in packs],
            "sets": [p.set_column(*columns) for p in packs],
            "lengths": [len(p.line) for p in packs],
            "repeats": [w.repeat for w in cell.workloads],
            "stop": cell.total_accesses,
        })

    batch = build_native_batch_replay(h, cell_dicts, threads=threads)
    if batch is None:
        return fallback()

    with _gc_paused():
        outcomes = batch.run()
    ec.add(ec.BATCH_CALLS)
    ec.add(ec.BATCH_CELLS, len(cells))
    return [
        TraceEngine._packed_stats(
            cell.workloads, list(counts), list(vtimes), packs
        )
        for cell, packs, (counts, vtimes)
        in zip(cells, cell_packs, outcomes)
    ]


@dataclass
class DynamicRosterCell:
    """One controller-driven co-run in a batched dynamic roster.

    ``controller`` must be a fresh controller instance per cell
    (:class:`~repro.core.dynamic.DynamicPartitionController` or
    compatible) — controllers are stateful, and each cell's exact
    decision timeline is preserved.
    """

    workloads: list
    controller: object
    epoch_accesses: int = 5_000
    total_accesses: int = 100_000


def _run_dynamic_roster_sequential(cells, prefetchers_on, pack_cache,
                                   pack_store):
    """The reference path: one fresh engine + ``run_dynamic`` per cell."""
    results = []
    for cell in cells:
        engine = TraceEngine(prefetchers_on=prefetchers_on)
        results.append(engine.run_dynamic(
            cell.workloads,
            cell.controller,
            epoch_accesses=cell.epoch_accesses,
            total_accesses=cell.total_accesses,
            pack_cache=pack_cache,
            pack_store=pack_store,
        ))
    return results


def run_dynamic_roster(cells, prefetchers_on=False, threads=None,
                       pack_cache=None, pack_store=True, sequential=False):
    """Run a roster of dynamic-partitioning co-runs, batched.

    Every :class:`DynamicRosterCell` gets its own fresh hierarchy state
    (the template engine's state, tiled inside
    :func:`~repro.cache.kernel.build_native_epoch_batch_replay`), its
    own initial controller masks, and its own epoch/total budgets. Each
    round of the host loop advances every still-active cell by one
    epoch in ONE threaded ctypes call, then steps *all* cells'
    controllers in one pass — per-epoch MPKI windows computed vectorized
    over the banked counters (:func:`repro.core.dynamic.mpki_windows`)
    — and writes any returned way masks straight back into the dom
    banks, flush-free. Cells whose domains retire early simply drop out
    of the active set; the rest keep their exact epoch cadence.

    Returns a list of :class:`DynamicTraceResult` aligned with
    ``cells``, with stats bit-identical and per-cell reallocation
    timelines byte-equal — for any thread count, and with
    ``REPRO_NATIVE=0`` — to running each cell on a fresh
    :class:`TraceEngine` via :meth:`TraceEngine.run_dynamic` (which is
    exactly what the fallback does whenever a cell is not batchable or
    the epoch-batch kernel is unavailable). ``sequential=True`` forces
    that reference path.
    """
    if not cells:
        return []
    seen_controllers = set()
    for cell in cells:
        if not cell.workloads:
            raise ValidationError("every roster cell needs workloads")
        if id(cell.controller) in seen_controllers:
            raise ValidationError(
                "each dynamic roster cell needs its own controller "
                "instance (controllers are stateful)"
            )
        seen_controllers.add(id(cell.controller))

    def fallback():
        return _run_dynamic_roster_sequential(
            cells, prefetchers_on, pack_cache, pack_store
        )

    if sequential or prefetchers_on:
        return fallback()

    cell_packs = []
    for cell in cells:
        names = [w.name for w in cell.workloads]
        if (
            len(cell.workloads) < 2
            or len(set(names)) != len(names)
            or cell.epoch_accesses < 1
        ):
            return fallback()
        packs = _acquire_packs(cell.workloads, None, pack_cache, pack_store)
        if packs is None:
            return fallback()
        cell_packs.append(packs)

    from repro.cache.kernel import build_native_epoch_batch_replay
    from repro.core.dynamic import mpki_windows

    template = TraceEngine(prefetchers_on=False)
    h = template.hierarchy
    columns = _llc_columns(h.llc.storage)
    core_of = h.core_of_tid

    cell_dicts = []
    for cell, packs in zip(cells, cell_packs):
        names = [w.name for w in cell.workloads]
        cores = [core_of(w.tid) for w in cell.workloads]
        if len(set(cores)) != len(cores):
            return fallback()
        initial = cell.controller.masks()
        if set(initial) != set(names):
            return fallback()
        cell_dicts.append({
            "cores": cores,
            "thinks": [w.think_cycles for w in cell.workloads],
            "mask_bits": [initial[name].bits for name in names],
            "lines": [p.line for p in packs],
            "sets": [p.set_column(*columns) for p in packs],
            "lengths": [len(p.line) for p in packs],
            "repeats": [w.repeat for w in cell.workloads],
            "stop": 0,  # nothing runs until the host loop sets targets
        })

    batch = build_native_epoch_batch_replay(h, cell_dicts, threads=threads)
    if batch is None:
        return fallback()

    import numpy as np

    R = len(cells)
    issued = [0] * R
    epochs = [0] * R
    timelines = [[] for _ in range(R)]
    totals = [cell.total_accesses for cell in cells]
    bank = batch.counter_bank()
    prev = np.zeros_like(bank)
    active = [r for r in range(R) if issued[r] < totals[r]]

    with _gc_paused():
        while active:
            for r in active:
                target = issued[r] + cells[r].epoch_accesses
                if target > totals[r]:
                    target = totals[r]
                batch.set_stop(r, target)
            batch.run_active(active)
            ec.add(ec.DYNBATCH_CALLS)
            ec.add(ec.DYNBATCH_CELLS, len(active))
            cur = bank.copy()
            delta = cur - prev
            prev = cur
            # Vectorized controller inputs for every cell at once; each
            # element is bit-identical to the scalar mpki_window the
            # sequential driver computes.
            accesses = delta.sum(axis=2)
            mpki = mpki_windows(delta[:, :, 3], accesses)
            still = []
            for r in active:
                progressed = batch.issued_of(r)
                if progressed == issued[r]:
                    continue  # every domain retired
                issued[r] = progressed
                epochs[r] += 1
                cell = cells[r]
                controller = cell.controller
                names = [w.name for w in cell.workloads]
                metrics = {
                    name: {"mpki": float(mpki[r, i]),
                           "accesses": int(accesses[r, i]),
                           "misses": int(delta[r, i, 3])}
                    for i, name in enumerate(names)
                }
                period_s = controller.period_s
                now_s = epochs[r] * period_s
                new_masks = controller.on_tick(now_s, period_s, metrics)
                if new_masks:
                    slot_of = {name: i for i, name in enumerate(names)}
                    for name, mask in new_masks.items():
                        batch.set_mask_bits(r, slot_of[name], mask.bits)
                    timelines[r].append(
                        _timeline_entry(epochs[r], controller, new_masks)
                    )
                if issued[r] < totals[r]:
                    still.append(r)
            active = still

    results = []
    for r, (cell, packs) in enumerate(zip(cells, cell_packs)):
        counts, vtimes = batch.cell_result(r)
        stats = TraceEngine._packed_stats(
            cell.workloads, list(counts), list(vtimes), packs
        )
        results.append(DynamicTraceResult(
            stats=stats,
            timeline=timelines[r],
            actions=list(cell.controller.actions),
            epochs=epochs[r],
            native=True,
        ))
    return results


def way_allocation_sweep(workloads, total_accesses=100_000, prefetchers_on=False,
                         warmup_accesses=0, use_packs=True):
    """Per-domain ``hits(ways)`` utility curves from ONE co-run.

    Attaches a :class:`~repro.cache.profile.WayProfiler` (a per-domain
    UMON) to the hierarchy's LLC probe stream and co-runs the workloads
    once: the returned curves answer "how many LLC hits would domain d
    see with w ways to itself" for every w in 1..12 — the input the
    paper's allocation policies (and UCP) need, without re-simulating
    per mask. Returns ``(stats, {domain: WayCurve})``.

    With ``use_packs`` (the default) the co-run replays compiled trace
    packs through :meth:`TraceEngine.run_packed` — the profiler observes
    the identical LLC probe stream, the trace just isn't re-generated.
    The profiler has the LLC's geometry, so the native ``multiwalk.c``
    replay feeds it at every LLC probe; ``REPRO_NATIVE=0`` replays on
    the Python epoch driver with identical stats and curves.
    ``use_packs=False`` forces the generator path (the CLI's
    ``--no-pack`` escape hatch).
    """
    from repro.cache.profile import WayProfiler

    engine = TraceEngine(prefetchers_on=prefetchers_on)
    llc = engine.hierarchy.llc.storage
    run = engine.run_packed if use_packs else engine.run
    if warmup_accesses:
        run(workloads, total_accesses=warmup_accesses)
    profiler = WayProfiler(
        num_sets=llc.num_sets,
        num_ways=llc.num_ways,
        indexing=llc.indexing,
        num_domains=engine.hierarchy.num_cores,
    )
    engine.hierarchy.llc_profiler = profiler
    stats = run(workloads, total_accesses=total_accesses)
    engine.hierarchy.llc_profiler = None
    ec.add(ec.PROFILER_PASSES)
    return stats, profiler.curves()
