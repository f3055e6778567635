"""Kernel-form levels hand their state to the object model and back
without a trace.

:class:`KernelCacheLevel` holds state only; the object model is the one
per-access protocol. Each lockstep test drives an object-model level and
a twin through the same operation stream, comparing them after EVERY
step — return values, stats, occupancy, and resident lines — while the
twin goes object -> flat -> object at random clean points, across
replacement policies, indexing schemes, and way masks. Then the forms'
readers and conversion counters, and hierarchy-level walks that convert
their levels lazily.
"""

import pytest

from repro.cache.block import MemoryAccess
from repro.cache.cache import CacheLevel
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.kernel import (
    KernelCacheLevel,
    _flat_encodable,
    _to_kernel,
    make_cache_level,
)
from repro.cache.llc import WayMask
from repro.perf import engine_counters as ec
from repro.util.errors import ConfigurationError, ValidationError
from repro.util.rng import DeterministicRng


def level_pair(replacement, indexing, num_ways=8, num_sets=16):
    """An object-model level and its twin, which starts in the flat
    form wherever one exists."""
    capacity = num_sets * num_ways * 64
    kwargs = dict(replacement=replacement, indexing=indexing)
    return (
        CacheLevel("ref", capacity, num_ways, **kwargs),
        make_cache_level("twin", capacity, num_ways, **kwargs),
    )


def state_of(level):
    return (
        sorted(level.stats.snapshot().items()),
        sorted(level.stats.per_domain_accesses.items()),
        sorted(level.stats.per_domain_misses.items()),
        level.occupancy(),
        level.occupancy_by_way(),
        sorted(level.resident_lines()),
    )


def evicted_key(evicted):
    if evicted is None:
        return None
    return (evicted.tag, evicted.valid, evicted.dirty, evicted.sharers)


def run_locked_step(ref, twin, rng, masks, step):
    """One pseudo-random op applied to both levels, compared exactly."""
    op = rng.integers(0, 10)
    line = rng.integers(0, 400)
    domain = rng.integers(0, 2)
    is_write = rng.integers(0, 4) == 0
    allowed = masks[domain] if masks else None
    if op <= 4:  # probe (the most common op)
        assert ref.access(line, is_write, domain=domain) == twin.access(
            line, is_write, domain=domain
        ), f"step {step}: hit/miss diverged on line {line}"
        if not ref.contains(line):
            a = ref.fill(line, is_write=is_write, domain=domain,
                         allowed_ways=allowed, sharer=domain)
            b = twin.fill(line, is_write=is_write, domain=domain,
                          allowed_ways=allowed, sharer=domain)
            assert evicted_key(a) == evicted_key(b), f"step {step}: victims differ"
    elif op <= 6:  # prefetch-style fill
        a = ref.fill(line, domain=domain, allowed_ways=allowed, prefetch=True)
        b = twin.fill(line, domain=domain, allowed_ways=allowed, prefetch=True)
        assert evicted_key(a) == evicted_key(b)
    elif op == 7:
        assert ref.invalidate(line) == twin.invalidate(line)
    elif op == 8:
        assert ref.mark_dirty(line) == twin.mark_dirty(line)
    else:
        ref.add_sharer(line, domain)
        twin.add_sharer(line, domain)
        assert ref.sharers_of(line) == twin.sharers_of(line)
    assert state_of(ref) == state_of(twin), f"step {step}: state diverged"


def hand_over(ref, twin, rng):
    """Reach a clean point — invalidate every dirty or prefetched line
    on both levels — then send the twin to the flat form (sometimes on
    to lists); its next op brings it back to the object model."""
    for line in sorted(ref.resident_lines()):
        set_idx, way = ref.find(line)
        cl = ref._sets[set_idx][way]
        if cl.dirty or cl.prefetched:
            assert ref.invalidate(line) == twin.invalidate(line)
    assert _flat_encodable(twin, inner=False)
    _to_kernel(twin)
    assert type(twin) is KernelCacheLevel
    if rng.integers(0, 2):
        twin._lookup  # flat -> lists
    assert state_of(ref) == state_of(twin)


def run_with_hand_overs(ref, twin, rng, masks, steps):
    for step in range(steps):
        run_locked_step(ref, twin, rng, masks, step)
        if rng.integers(0, 40) == 0:
            hand_over(ref, twin, rng)
    assert type(twin) is CacheLevel


@pytest.mark.parametrize("replacement", ["lru", "plru"])
@pytest.mark.parametrize("indexing", ["mod", "hash"])
@pytest.mark.parametrize("masked", [False, True])
class TestStepwiseIdentity:
    def test_locked_step_sequence(self, replacement, indexing, masked):
        ref, twin = level_pair(replacement, indexing)
        masks = {0: [0, 1, 2, 3, 4], 1: [4, 5, 6, 7]} if masked else None
        rng = DeterministicRng(seed=1234)
        run_with_hand_overs(ref, twin, rng, masks, 1500)

    def test_mask_reallocation_mid_sequence(self, replacement, indexing, masked):
        """Masks change between bursts; no flush, still bit-identical."""
        ref, twin = level_pair(replacement, indexing)
        schedules = [
            {0: [0, 1, 2], 1: [3, 4, 5, 6, 7]},
            {0: [0, 1, 2, 3, 4, 5], 1: [6, 7]},
            {0: [7], 1: [0, 1, 2, 3, 4, 5, 6]},
        ]
        rng = DeterministicRng(seed=99)
        for masks in schedules if masked else [None] * 3:
            run_with_hand_overs(ref, twin, rng, masks, 400)
            hand_over(ref, twin, rng)  # every reallocation on the flat form


class TestVictimErrors:
    """The object policies' victim errors, on a level of either start."""

    @pytest.mark.parametrize("replacement", ["lru", "plru"])
    def test_empty_allowed_ways_rejected(self, replacement):
        ref, twin = level_pair(replacement, "mod", num_ways=4, num_sets=4)
        for level in (ref, twin):
            for line in range(4 * 4 * 2):  # fill everything
                if not level.access(line):
                    level.fill(line)
            with pytest.raises(ValidationError):
                level.fill(10_000, allowed_ways=[])

    def test_out_of_range_allowed_ways_rejected_lru(self):
        ref, twin = level_pair("lru", "mod")
        for level in (ref, twin):
            for line in range(16 * 8):
                if not level.access(line):
                    level.fill(line)
            with pytest.raises(ValidationError):
                level.fill(10_000, allowed_ways=[9])

    def test_unknown_policy_and_indexing_rejected(self):
        with pytest.raises(ConfigurationError):
            KernelCacheLevel("bad", 64 * 64, 4, replacement="fifo")
        with pytest.raises(ConfigurationError):
            KernelCacheLevel("bad", 64 * 64, 4, indexing="skew")
        with pytest.raises(ConfigurationError):
            KernelCacheLevel("bad", 1000, 4)  # non-divisible geometry
        with pytest.raises(ConfigurationError):
            KernelCacheLevel("bad", 64 * 64, 4)  # 4-way LRU: no flat form


def tiny_hierarchy():
    return CacheHierarchy(
        num_cores=2,
        l1_bytes=2 * 1024,
        l2_bytes=8 * 1024,
        llc_bytes=48 * 1024,
    )


def object_hierarchy():
    """A tiny hierarchy whose levels are object-model levels from the
    start, built directly rather than converted."""
    h = tiny_hierarchy()
    h.l1 = [
        CacheLevel(lvl.name, lvl.capacity_bytes, lvl.num_ways,
                   replacement="lru")
        for lvl in h.l1
    ]
    h.l2 = [
        CacheLevel(lvl.name, lvl.capacity_bytes, lvl.num_ways,
                   replacement="plru")
        for lvl in h.l2
    ]
    llc = h.llc.storage
    h.llc.storage = CacheLevel(
        "LLC", llc.capacity_bytes, llc.num_ways, replacement="plru",
        indexing="hash",
    )
    return h


def hierarchy_state(h):
    levels = list(h.l1) + list(h.l2) + [h.llc.storage]
    return (
        [sorted(lvl.stats.snapshot().items()) for lvl in levels],
        [sorted(lvl.stats.per_domain_accesses.items()) for lvl in levels],
        [sorted(lvl.stats.per_domain_misses.items()) for lvl in levels],
        [lvl.occupancy_by_way() for lvl in levels],
        [sorted(lvl.resident_lines()) for lvl in levels],
    )


def mixed_stream(n=4000, seed=5):
    rng = DeterministicRng(seed=seed)
    stream = []
    for i in range(n):
        if rng.integers(0, 3) == 0:
            addr = rng.integers(0, 1 << 18)  # random within 256 KB
        else:
            addr = (i * 64) % (1 << 20)  # streaming sweep
        stream.append(
            MemoryAccess(
                address=addr,
                is_write=rng.integers(0, 4) == 0,
                pc=0x400 + (i % 7) * 4,
                tid=rng.integers(0, 4),
            )
        )
    return stream


class TestHierarchyIdentity:
    """A fresh hierarchy converts each level to the object model on its
    first use, mid-walk; it walks exactly like object levels built
    directly."""

    @pytest.mark.parametrize("prefetchers", [False, True])
    def test_full_protocol_stepwise(self, prefetchers):
        """access() walks agree step by step, prefetchers on and off."""
        ref = object_hierarchy()
        lazy = tiny_hierarchy()
        for h in (ref, lazy):
            h.set_prefetchers(enabled=prefetchers)
            h.set_way_mask(0, WayMask.contiguous(9, 0))
            h.set_way_mask(1, WayMask.contiguous(3, 9))
        for i, acc in enumerate(mixed_stream()):
            a = ref.access(acc)
            b = lazy.access(acc)
            assert (a.hit_level, a.latency, a.llc_victim_line) == (
                b.hit_level,
                b.latency,
                b.llc_victim_line,
            ), f"access {i} diverged"
        assert hierarchy_state(ref) == hierarchy_state(lazy)

    @pytest.mark.parametrize(
        "kernel_form", [False, True], ids=["object", "kernel"]
    )
    def test_access_fast_matches_object_protocol(self, kernel_form):
        """access_fast on a hierarchy of object levels, or on a fresh
        one in the kernel form, == the object model's access()."""
        ref = object_hierarchy()
        fast = tiny_hierarchy() if kernel_form else object_hierarchy()
        for h in (ref, fast):
            h.set_prefetchers(enabled=False)
            h.set_way_mask(0, WayMask.contiguous(5, 0))
            h.set_way_mask(1, WayMask.contiguous(7, 5))
        for i, acc in enumerate(mixed_stream(seed=11)):
            core = acc.tid // 2
            a = ref.access(acc)
            level, latency = fast.access_fast(
                acc.line_address, acc.is_write, core
            )
            assert (a.hit_level, a.latency) == (level, latency), f"access {i}"
        assert hierarchy_state(ref) == hierarchy_state(fast)

    def test_run_trace_batched_totals_match(self):
        stream = mixed_stream(n=3000, seed=8)
        totals = []
        for h in (object_hierarchy(), tiny_hierarchy()):
            h.set_prefetchers(enabled=False)
            totals.append(h.run_trace(stream))
        assert totals[0] == totals[1]

    def test_walk_converts_each_level_once(self):
        """A per-access walk on a fresh hierarchy raises
        ``level-materializations`` by exactly one per converted level,
        and every other level stays flat."""
        h = tiny_hierarchy()
        h.set_prefetchers(enabled=False)
        levels = [h.llc.storage, *h.l1, *h.l2]
        base = ec.engine_counters().snapshot()
        h.access_fast(5, False, 0)  # core 0: L1, L2 and the LLC
        delta = ec.engine_counters().delta(base)
        assert delta[ec.LEVEL_MATERIALIZATIONS] == 3
        assert [type(lvl) for lvl in levels] == [
            CacheLevel, CacheLevel, KernelCacheLevel, CacheLevel,
            KernelCacheLevel,
        ]
        h.run_trace(mixed_stream(n=2000, seed=3))
        converted = sum(type(lvl) is CacheLevel for lvl in levels)
        delta = ec.engine_counters().delta(base)
        assert delta[ec.LEVEL_MATERIALIZATIONS] == converted
        assert [h.llc.storage, *h.l1, *h.l2] == levels  # same objects


def _lru8_brute_force():
    """The 8-way LRU FSM by its definition: states are the permutations
    of 0..7 (most recent first) in lexicographic order, a touch moves
    the way to the front, a fill evicts the last way and touches it."""
    import itertools

    perms = list(itertools.permutations(range(8)))
    index = {p: i for i, p in enumerate(perms)}
    touch = [0] * (len(perms) * 8)
    fill = [0] * len(perms)
    for i, p in enumerate(perms):
        base = i * 8
        for w in range(8):
            if p[0] == w:
                touch[base + w] = i
            else:
                touch[base + w] = index[(w,) + tuple(x for x in p if x != w)]
        victim = p[-1]
        fill[i] = (touch[base + victim] << 3) | victim
    return perms, touch, fill


class TestLru8Tables:
    def test_numpy_tables_match_brute_force_definition(self):
        from repro.cache.kernel import _lru8_lists, _lru8_rank, _lru8_tables

        perms, touch, fill = _lru8_brute_force()
        np_perms, pos, np_touch, np_fill = _lru8_tables()
        assert [tuple(row) for row in np_perms.tolist()] == perms
        assert np_touch.ravel().tolist() == touch
        assert np_fill.tolist() == fill
        assert _lru8_lists() == (touch, fill)
        assert _lru8_rank(np_perms).tolist() == list(range(len(perms)))
        for i in (0, 1, 777, 40319):
            assert [perms[i].index(w) for w in range(8)] == pos[i].tolist()


class TestLevelForms:
    """A kernel level starts flat, builds lists on the first list read,
    and becomes the object model on the first per-access use."""

    def test_fresh_level_is_flat_until_read(self):
        ref, twin = level_pair("plru", "hash", num_ways=12)
        assert twin._flat is not None and "_lookup" not in vars(twin)
        # Introspection reads the flat form without converting it.
        assert state_of(twin) == state_of(ref)
        assert twin._flat is not None
        base = ec.engine_counters().snapshot()
        assert twin._lookup == [{}] * twin.num_sets  # a list read
        assert twin._flat is None and type(twin) is KernelCacheLevel
        assert not twin.contains(5)  # a probe becomes the object model
        assert type(twin) is CacheLevel and "_flat" not in vars(twin)
        assert ec.engine_counters().delta(base)[ec.LEVEL_MATERIALIZATIONS] == 2

    def test_non_8_way_lru_is_an_object_level(self):
        _, twin = level_pair("lru", "mod", num_ways=4)
        assert type(twin) is CacheLevel

    @pytest.mark.parametrize("replacement", ["lru", "plru"])
    def test_form_round_trips_are_invisible(self, replacement):
        ref, twin = level_pair(replacement, "mod")
        rng = DeterministicRng(seed=9)
        for step in range(600):
            line = rng.integers(0, 400)
            for lvl in (ref, twin):
                if not lvl.access(line, domain=0):
                    lvl.fill(line, domain=0, sharer=1)
            if step % 97 == 0:
                _to_kernel(twin)  # object -> flat
                assert state_of(ref) == state_of(twin)
                twin._lookup  # flat -> lists
                assert state_of(ref) == state_of(twin)
                twin.flat_state()  # lists -> flat; the next probe converts
                assert "_lookup" not in vars(twin)
            assert state_of(ref) == state_of(twin), f"step {step}"
        for s in range(twin.num_sets):
            assert ref._policies[s].victim(None) == (
                twin._policies[s].victim(None)
            )

    def test_dirty_level_declines_the_flat_form(self):
        ref, _ = level_pair("plru", "mod")
        ref.fill(3, is_write=True)
        assert not _flat_encodable(ref, inner=False)
        ref.invalidate(3)
        ref.fill(4, prefetch=True)
        assert not _flat_encodable(ref, inner=False)
        ref.invalidate(4)
        ref.fill(5, sharer=1)
        assert _flat_encodable(ref, inner=False)
        assert not _flat_encodable(ref, inner=True)
