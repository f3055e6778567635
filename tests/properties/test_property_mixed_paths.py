"""Property: one hierarchy survives any chain of replay paths.

Every step of a random chain runs on the same hierarchy: the generic
``run()`` walk (object-model levels), a native ``run_packed`` (flat-form
levels, updated in place), the pure-Python epoch driver
(``REPRO_NATIVE=0``, list-form levels), a way-mask change, or one
``run_dynamic`` epoch. A second hierarchy runs the same chain through
``run()`` alone. Each hand-over between level forms must be invisible:
every step's stats agree, and at the end so do the level stats, resident
lines, per-way occupancy, LLC sharer words and the next victim of every
set.
"""

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.hierarchy import CacheHierarchy
from repro.cache.llc import WayMask
from repro.core.dynamic import DynamicPartitionController
from repro.perf import engine_counters as ec
from repro.sim.trace_engine import TraceEngine, TraceWorkload
from repro.workloads.trace import PointerChaseTrace, StreamingTrace, ZipfTrace
from repro.workloads.tracepack import TracePack, compile_columns, pack_key

KB = 1024
_TIDS = (0, 4, 2)  # cores 0, 2, 1
_STEPS = ("run", "native", "python", "mask", "dynamic")


def _native_available():
    from repro.cache import native

    return native.multi_walk_fn() is not None


def _without_native(fn):
    from repro.cache import native

    previous = os.environ.get("REPRO_NATIVE")
    os.environ["REPRO_NATIVE"] = "0"
    native.reset()
    try:
        return fn()
    finally:
        if previous is None:
            os.environ.pop("REPRO_NATIVE", None)
        else:
            os.environ["REPRO_NATIVE"] = previous
        native.reset()


def _engine():
    hierarchy = CacheHierarchy(
        num_cores=4,
        l1_bytes=4 * KB,
        l2_bytes=16 * KB,
        llc_bytes=96 * KB,
    )
    return TraceEngine(hierarchy=hierarchy, prefetchers_on=False)


def _workloads(lengths):
    makers = (
        lambda n, t: ZipfTrace(n, 64 * KB, alpha=0.9, tid=t, seed=11),
        lambda n, t: StreamingTrace(n, 256 * KB, tid=t),
        lambda n, t: PointerChaseTrace(n, 32 * KB, tid=t, seed=5),
    )
    names = ("fg", "bg", "bg2")
    return [
        TraceWorkload(
            names[i],
            lambda m=makers[i], n=n, t=_TIDS[i]: m(n, t),
            tid=_TIDS[i],
            think_cycles=3 * i,
            repeat=True,
        )
        for i, n in enumerate(lengths)
    ]


def _level_state(h):
    levels = [h.llc.storage, *h.l1, *h.l2]
    return [
        (
            sorted(lvl.stats.snapshot().items()),
            sorted(lvl.stats.per_domain_accesses.items()),
            sorted(lvl.stats.per_domain_misses.items()),
            lvl.occupancy_by_way(),
            sorted(lvl.resident_lines()),
        )
        for lvl in levels
    ]


def _next_victims(h, victim):
    """Each set's next victim under the full mask, plus every core's
    masked LLC victim, via ``victim(level, set, candidates)``."""
    out = []
    for lvl in [*h.l1, *h.l2]:
        out.append([victim(lvl, s, None) for s in range(lvl.num_sets)])
    llc = h.llc.storage
    for core in range(h.num_cores):
        ways = list(h.llc.mask_of(core))
        out.append([victim(llc, s, ways) for s in range(llc.num_sets)])
    return out


def _llc_sharers(h):
    llc = h.llc.storage
    return {line: llc.sharers_of(line) for line in llc.resident_lines()}


def _step(step, ker, ref, workloads, packs, data):
    if step == "mask":
        core = data.draw(st.sampled_from([t // 2 for t in _TIDS]))
        count = data.draw(st.integers(1, 12))
        offset = data.draw(st.integers(0, 12 - count))
        for engine in (ker, ref):
            engine.hierarchy.set_way_mask(
                core, WayMask.contiguous(count, offset)
            )
        return
    total = data.draw(st.integers(50, 1500))
    if step == "dynamic":
        controller = DynamicPartitionController("fg", "bg")
        for name, mask in controller.masks().items():
            tid = _TIDS[("fg", "bg").index(name)]
            ref.hierarchy.set_way_mask(tid // 2, mask)
        got = ker.run_dynamic(
            workloads[:2], controller, epoch_accesses=total,
            total_accesses=total, packs=packs[:2],
        ).stats
        expected = ref.run(workloads[:2], total)
        # Whatever the controller applied after its epoch, the object
        # model applies too.
        for core, mask in ker.hierarchy.llc.masks().items():
            ref.hierarchy.set_way_mask(core, mask)
        assert got == expected
        return
    chosen = sorted(data.draw(
        st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True)
    ))
    ws = [workloads[i] for i in chosen]
    ps = [packs[i] for i in chosen]
    if step == "run":
        got = ker.run(ws, total)
    else:
        # Both pack steps must be served by a pack driver, never by a
        # fallback to run().
        base = ec.engine_counters().snapshot()
        if step == "native":
            got = ker.run_packed(ws, total, packs=ps)
        else:
            got = _without_native(lambda: ker.run_packed(ws, total, packs=ps))
        delta = ec.engine_counters().delta(base)
        assert delta.get(ec.PACK_REPLAYS, 0) == len(ws)
        if step == "native" and _native_available():
            assert delta.get(ec.PYTHON_REPLAYS, 0) == 0
    assert got == ref.run(ws, total)


class TestMixedReplayPaths:
    @settings(max_examples=25, deadline=None)
    @given(
        lengths=st.lists(st.integers(60, 500), min_size=3, max_size=3),
        steps=st.lists(st.sampled_from(_STEPS), min_size=2, max_size=6),
        data=st.data(),
    )
    def test_chained_paths_match_object_model(self, lengths, steps, data):
        workloads = _workloads(lengths)
        packs = [
            TracePack(compile_columns(w.trace_factory()),
                      pack_key(w.trace_factory()))
            for w in workloads
        ]
        ker = _engine()
        ref = _engine()
        for step in steps:
            _step(step, ker, ref, workloads, packs, data)
        kh, rh = ker.hierarchy, ref.hierarchy
        assert _level_state(kh) == _level_state(rh)
        assert _llc_sharers(kh) == _llc_sharers(rh)
        def victim(lvl, s, c):
            return lvl._policies[s].victim(c)

        assert _next_victims(kh, victim) == _next_victims(rh, victim)
