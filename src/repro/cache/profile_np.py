"""Vectorized way profiling over compiled trace packs.

:class:`~repro.cache.profile.WayProfiler` walks the trace one access at
a time, paying a set-index hash and a Python dispatch per access. Given
a :class:`~repro.workloads.tracepack.TracePack` the same histogram can
be computed set-group-at-a-time: the pack's precomputed set column is
stably argsorted by ``(domain, set)``, which clusters each UMON set's
accesses while preserving their program order, and each cluster is then
reduced with the bounded stack-update loop. The per-access work drops to
a bounded ``list`` membership probe — no indexing, no attribute lookups.

Because the stable sort preserves within-set order and sets are
independent under set-associative LRU, the grouped replay produces
*exactly* the sequential profiler's histograms (asserted by the tests
and the bench ``identical`` flag).
"""

import numpy as np

from repro.cache.profile import LLC_NUM_SETS, LLC_NUM_WAYS, WayCurve
from repro.perf import engine_counters as ec
from repro.util.errors import ConfigurationError


def _domain_column(pack, num_domains):
    """Per-access domain ids, mirroring WaySweep's tid//2 pairing."""
    if num_domains <= 1:
        return None
    return np.asarray(pack.tid, dtype=np.int64) >> 1


def _profile_pack_native(pack, sets, domains, num_sets, num_ways,
                         num_domains):
    """Histograms via the set-sharded C profiler, or ``None``.

    One ``repro_batch_profile`` call covers every domain: each
    (domain, set-shard) pair is an independent work item with its own
    histogram slot, and the per-domain histogram is the fixed-order
    integer sum over that domain's shard slots — exact, so the result
    is invariant to both the shard count and the thread schedule.
    """
    import ctypes

    from repro.cache import native

    fn = native.batch_profile_fn()
    if fn is None:
        return None
    i64 = np.int64
    lines = np.ascontiguousarray(np.asarray(pack.line, dtype=i64))
    sets = np.ascontiguousarray(sets)
    if domains is None:
        cell_lines = [lines]
        cell_sets = [sets]
    else:
        cell_lines = []
        cell_sets = []
        for d in range(num_domains):
            picked = np.flatnonzero(domains == d)
            cell_lines.append(np.ascontiguousarray(lines[picked]))
            cell_sets.append(np.ascontiguousarray(sets[picked]))
    cells = len(cell_lines)
    threads = native.resolve_native_threads(cells)
    shards = threads
    line_ptrs = np.array([c.ctypes.data for c in cell_lines], dtype=np.uintp)
    set_ptrs = np.array([c.ctypes.data for c in cell_sets], dtype=np.uintp)
    cell_n = np.array([len(c) for c in cell_lines], dtype=i64)
    stack_lines = np.zeros(cells * num_sets * num_ways, dtype=i64)
    stack_depth = np.zeros(cells * num_sets, dtype=i64)
    hist = np.zeros(cells * shards * (num_ways + 1), dtype=i64)
    pcfg = np.array([cells, threads, shards, num_sets, num_ways], dtype=i64)
    args = [
        ctypes.c_void_p(a.ctypes.data)
        for a in (pcfg, line_ptrs, set_ptrs, cell_n,
                  stack_lines, stack_depth, hist)
    ]
    fn(*args)
    per_cell = hist.reshape(cells, shards, num_ways + 1).sum(axis=1)
    return [[int(x) for x in per_cell[d]] for d in range(cells)]


def profile_pack(pack, num_sets=LLC_NUM_SETS, num_ways=LLC_NUM_WAYS,
                 indexing="hash", num_domains=1, domains=None):
    """Profile one pack; returns ``{domain: WayCurve}``.

    ``domains`` optionally overrides the per-access domain column (an
    int array aligned with the pack); the default mirrors
    :class:`~repro.cache.profile.WaySweep`'s ``tid // 2`` mapping.
    The stack updates run in the batched C profiler when it is
    available (``REPRO_NATIVE=0`` turns it off); histograms are
    identical either way, the native pass is only faster.
    """
    if num_ways < 1:
        raise ConfigurationError("profiler needs at least one way")
    if num_domains < 1:
        raise ConfigurationError("profiler needs at least one domain")
    sets = np.asarray(pack.set_column(num_sets, indexing), dtype=np.int64)
    if domains is None:
        domains = _domain_column(pack, num_domains)
    histograms = [[0] * (num_ways + 1) for _ in range(num_domains)]
    accesses = [0] * num_domains
    if len(sets):
        if domains is None:
            key = sets
            accesses[0] = len(sets)
        else:
            domains = np.asarray(domains, dtype=np.int64)
            key = domains * np.int64(num_sets) + sets
            counts = np.bincount(domains, minlength=num_domains)
            for d in range(num_domains):
                accesses[d] = int(counts[d])
        native_hists = _profile_pack_native(
            pack, sets, domains, num_sets, num_ways, num_domains
        )
        if native_hists is not None:
            ec.add(ec.PROFILER_PASSES)
            return {
                d: WayCurve(num_ways=num_ways, accesses=accesses[d],
                            histogram=native_hists[d])
                for d in range(num_domains)
            }
        order = np.argsort(key, kind="stable")
        sorted_keys = key[order]
        lines = np.asarray(pack.line, dtype=np.int64)[order].tolist()
        bounds = (np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1).tolist()
        starts = [0] + bounds
        ends = bounds + [len(lines)]
        group_keys = sorted_keys[starts].tolist()
        for start, end, group_key in zip(starts, ends, group_keys):
            hist = histograms[group_key // num_sets if domains is not None else 0]
            stack = []
            index = stack.index
            insert = stack.insert
            pop = stack.pop
            for line in lines[start:end]:
                if line in stack:
                    distance = index(line)
                    hist[distance] += 1
                    if distance:
                        del stack[distance]
                        insert(0, line)
                else:
                    hist[num_ways] += 1
                    insert(0, line)
                    if len(stack) > num_ways:
                        pop()
    ec.add(ec.PROFILER_PASSES)
    return {
        d: WayCurve(num_ways=num_ways, accesses=accesses[d],
                    histogram=histograms[d])
        for d in range(num_domains)
    }
