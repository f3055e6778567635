"""Cache-level state in the native kernels' flat layout, and the pack
replay drivers that walk it.

:class:`KernelCacheLevel` holds one level's state and nothing of the
per-access protocol: the object model
(:class:`repro.cache.cache.CacheLevel`) is the one Python definition of
hits, fills, victims and invalidation. A kernel level holds its state in
exactly one of two forms:

- **flat** (where every level starts): int64 numpy arrays in the
  layout the native kernels (``multiwalk.c``, ``batchwalk.c``,
  ``epochbatch.c``) read and write — ``tags[set * ways + way]`` (-1 when
  invalid), per-set valid bitmasks, one recency word per set (the PLRU
  tree bits, or the 8-way LRU permutation-FSM state), and sharer words
  (``None`` while all zero). A native replay works on these buffers in
  place, so a fresh hierarchy, replayed once and discarded, never
  builds a Python list.
- **lists**: the same fields as Python lists plus one ``tag -> way``
  dict per set, the layout :class:`PythonEpochReplay`'s lean walk runs
  on.

Dirty, prefetched and touched-prefetch bits are zero in both forms.
Every conversion happens in place, so references to a level stay valid:

- the first read of a list attribute builds the lists from the flat
  arrays, and :meth:`KernelCacheLevel.flat_state` goes back;
- the first use of the object model's protocol (``access``, ``fill``,
  ``invalidate``, ``_sets``, ...) turns the instance into a
  :class:`CacheLevel` built from its flat state;
- a pack replay turns a :class:`CacheLevel` back into a flat kernel
  level when it has a flat encoding and all-zero dirty, prefetch and
  inner-sharer state (:func:`_epoch_replay_supported`).

Leaving the flat form for lists or for the object model is counted as
``level-materializations`` in ``--engine-stat``. An LRU level of other
than 8 ways has no flat encoding: :func:`make_cache_level` builds it as
a :class:`CacheLevel`.
"""

from repro.cache.block import CacheLine
from repro.cache.cache import CacheLevel, _INDEXING
from repro.cache.replacement import PseudoLruTree, TrueLru
from repro.cache.stats import CacheStats
from repro.perf import engine_counters as ec
from repro.util.errors import ConfigurationError

# The list-form state attributes; absent from a flat-form level's
# __dict__, so reading one reaches __getattr__ and materializes them.
_LIST_STATE = frozenset(("_tags", "_sharers", "_valid", "_lookup", "_rec"))

# The object model's state and protocol: reading any of these on a
# kernel level turns it into a CacheLevel.
_OBJECT_NAMES = frozenset((
    "_sets", "_policies", "_tag_index",
    *(name for name in vars(CacheLevel) if not name.startswith("__")),
))

# Attributes both level classes carry unchanged across a conversion.
_SHARED_ATTRS = (
    "name", "capacity_bytes", "num_ways", "line_size", "num_sets",
    "replacement", "indexing", "_indexer", "stats",
)


class FlatLevelState:
    """A level's state in the native kernels' flat int64 layout.

    ``tags[set * ways + way]`` (-1 = invalid), ``valid[set]`` way
    bitmask, ``rec[set]`` recency word (PLRU tree bits, or the 8-way
    LRU FSM state index), ``sharers[set * ways + way]`` or ``None``
    while every sharer word is zero. Dirty, prefetched and
    touched-prefetch bits are all zero by construction.
    """

    __slots__ = ("tags", "valid", "rec", "sharers")

    def __init__(self, tags, valid, rec, sharers=None):
        self.tags = tags
        self.valid = valid
        self.rec = rec
        self.sharers = sharers


def _plru_geometry(num_ways):
    """``(leaves, set_masks, clear_invs, left_masks, right_masks)`` of a
    tree-PLRU over ``num_ways`` ways.

    A touch of way ``w`` is ``bits = (bits | set_masks[w]) &
    clear_invs[w]``; ``left_masks[node]`` / ``right_masks[node]`` are the
    way bitmasks of a node's subtrees (heap order, root at index 1), the
    victim walk's static tables.
    """
    leaves = 1
    while leaves < num_ways:
        leaves *= 2
    set_masks, clear_invs = [], []
    for way in range(num_ways):
        node, lo, hi = 1, 0, leaves
        set_bits = clear_bits = 0
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if way < mid:
                set_bits |= 1 << node  # point right, away from way
                node, hi = 2 * node, mid
            else:
                clear_bits |= 1 << node  # point left
                node, lo = 2 * node + 1, mid
        set_masks.append(set_bits)
        clear_invs.append(~clear_bits)
    left_masks = [0] * (2 * leaves)
    right_masks = [0] * (2 * leaves)

    def build(node, lo, hi):
        if hi - lo <= 1:
            return
        mid = (lo + hi) // 2
        left_masks[node] = (1 << mid) - (1 << lo)
        right_masks[node] = (1 << hi) - (1 << mid)
        build(2 * node, lo, mid)
        build(2 * node + 1, mid, hi)

    build(1, 0, leaves)
    return leaves, set_masks, clear_invs, left_masks, right_masks


class KernelCacheLevel:
    """One cache level's state in flat or list form (see module docstring)."""

    def __init__(
        self,
        name,
        capacity_bytes,
        num_ways,
        line_size=64,
        replacement="lru",
        indexing="mod",
    ):
        if capacity_bytes % (num_ways * line_size):
            raise ConfigurationError(
                f"{name}: capacity {capacity_bytes} not divisible by "
                f"{num_ways} ways x {line_size}B lines"
            )
        if replacement not in ("lru", "plru"):
            raise ConfigurationError(f"unknown replacement policy {replacement!r}")
        if indexing not in _INDEXING:
            raise ConfigurationError(f"unknown indexing scheme {indexing!r}")
        if replacement == "lru" and num_ways != 8:
            raise ConfigurationError(
                f"{name}: {num_ways}-way LRU has no flat encoding"
            )
        import numpy as np

        self.name = name
        self.capacity_bytes = capacity_bytes
        self.num_ways = num_ways
        self.line_size = line_size
        self.num_sets = capacity_bytes // (num_ways * line_size)
        self.replacement = replacement
        self.indexing = indexing
        self._indexer = _INDEXING[indexing](self.num_sets)
        self.stats = CacheStats()
        self._set_geometry()
        i64 = np.int64
        self._flat = FlatLevelState(
            np.full(self.num_sets * num_ways, -1, dtype=i64),
            np.zeros(self.num_sets, dtype=i64),
            np.zeros(self.num_sets, dtype=i64),
        )

    def _set_geometry(self):
        """The walks' per-geometry constants (no state)."""
        self._full_mask = (1 << self.num_ways) - 1
        self._mod_mask = self.num_sets - 1 if self.indexing == "mod" else -1
        if self.replacement == "plru":
            (
                self._leaves, self._plru_set, self._plru_clear_inv,
                self._plru_left, self._plru_right,
            ) = _plru_geometry(self.num_ways)

    # -- state forms -------------------------------------------------------

    def __getattr__(self, name):
        # Reached only for attributes missing from the instance and the
        # class: a flat-form level builds its list state on the first
        # read of any of it, and any level becomes a CacheLevel on the
        # first use of the object model.
        state = self.__dict__
        if name in _LIST_STATE and state.get("_flat") is not None:
            self._materialize()
            return getattr(self, name)
        if name in _OBJECT_NAMES and "_flat" in state:
            self._to_object()
            return getattr(self, name)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def _materialize(self):
        """Flat form -> list form (the flat arrays are dropped)."""
        import numpy as np

        flat = self._flat
        num_sets, W = self.num_sets, self.num_ways
        tags = flat.tags.tolist()
        valid = flat.valid.tolist()
        lookup = [dict() for _ in range(num_sets)]
        full = self._full_mask
        for s in np.flatnonzero(flat.valid).tolist():
            d = lookup[s]
            v = valid[s]
            base = s * W
            if v == full:
                d.update(zip(tags[base:base + W], range(W)))
                continue
            while v:
                low = v & -v
                v ^= low
                w = low.bit_length() - 1
                d[tags[base + w]] = w
        self._tags = tags
        self._valid = valid
        self._lookup = lookup
        self._sharers = (
            [0] * (num_sets * W) if flat.sharers is None
            else flat.sharers.tolist()
        )
        self._rec = flat.rec.tolist()
        self._flat = None
        ec.add(ec.LEVEL_MATERIALIZATIONS)

    def flat_state(self):
        """The level's :class:`FlatLevelState`, converting list form to
        it first (closures over the old lists are stale afterwards)."""
        flat = self._flat
        if flat is None:
            import numpy as np

            i64 = np.int64
            flat = FlatLevelState(
                np.array(self._tags, dtype=i64),
                np.array(self._valid, dtype=i64),
                np.array(self._rec, dtype=i64),
                np.array(self._sharers, dtype=i64)
                if any(self._sharers) else None,
            )
            for name in _LIST_STATE:
                self.__dict__.pop(name, None)
            self._flat = flat
        return flat

    def _has_sharers(self):
        flat = self._flat
        if flat is None:
            return any(self._sharers)
        return flat.sharers is not None and bool(flat.sharers.any())

    def _to_object(self):
        """Become a :class:`CacheLevel` in place, with the object model's
        state built from the flat arrays (list form goes through
        :meth:`flat_state` first). Stats and identity carry over."""
        import numpy as np

        flat = self.flat_state()
        num_sets, W = self.num_sets, self.num_ways
        lru = self.replacement == "lru"
        policy = TrueLru if lru else PseudoLruTree
        sets = [[CacheLine() for _ in range(W)] for _ in range(num_sets)]
        policies = [policy(W) for _ in range(num_sets)]
        tag_index = [dict() for _ in range(num_sets)]
        occupied = np.flatnonzero(flat.valid).tolist()
        if occupied:
            tags = flat.tags.tolist()
            valid = flat.valid.tolist()
            sharers = None if flat.sharers is None else flat.sharers.tolist()
            for s in occupied:
                row, index = sets[s], tag_index[s]
                base = s * W
                v = valid[s]
                while v:
                    low = v & -v
                    v ^= low
                    w = low.bit_length() - 1
                    cl = row[w]
                    cl.tag = tags[base + w]
                    cl.valid = True
                    if sharers is not None:
                        cl.sharers = sharers[base + w]
                    index[cl.tag] = w
        rec = flat.rec
        if lru:
            perms = _lru8_tables()[0]
            for s in np.flatnonzero(rec).tolist():
                policies[s]._recency = perms[rec[s]].tolist()
        else:
            leaves = policies[0]._leaves
            for s, word in zip(
                np.flatnonzero(rec).tolist(), rec[rec != 0].tolist()
            ):
                policies[s]._bits = [(word >> n) & 1 for n in range(leaves)]
        _become(self, CacheLevel, _sets=sets, _policies=policies,
                _tag_index=tag_index)
        ec.add(ec.LEVEL_MATERIALIZATIONS)

    # -- introspection -----------------------------------------------------

    def occupancy(self):
        """Number of valid lines currently held."""
        if self._flat is not None:
            return sum(self.occupancy_by_way())
        return sum(len(lookup) for lookup in self._lookup)

    def occupancy_by_way(self):
        """Valid-line count per way index (used by partitioning tests)."""
        if self._flat is not None:
            valid = self._flat.valid
            return [int(((valid >> w) & 1).sum()) for w in range(self.num_ways)]
        counts = [0] * self.num_ways
        for valid in self._valid:
            while valid:
                low = valid & -valid
                counts[low.bit_length() - 1] += 1
                valid ^= low
        return counts

    def resident_lines(self):
        """Set of line numbers currently cached (for inclusion checks)."""
        flat = self._flat
        if flat is not None:
            import numpy as np

            ways = np.arange(self.num_ways, dtype=np.int64)
            held = ((flat.valid[:, None] >> ways) & 1).astype(bool).ravel()
            return set(flat.tags[held].tolist())
        resident = set()
        for lookup in self._lookup:
            resident.update(lookup)
        return resident


def _become(level, cls, **state):
    """Switch ``level`` to class ``cls`` in place: keep the attributes
    both level classes share, replace the rest with ``state``."""
    attrs = level.__dict__
    shared = {name: attrs[name] for name in _SHARED_ATTRS}
    attrs.clear()
    attrs.update(shared, **state)
    level.__class__ = cls


def _flat_encodable(level, inner):
    """Whether ``level`` holds, or can take, the flat form.

    A kernel level holds it; an inner (L1/L2) one must also have
    all-zero sharer words. An object-model level needs a flat encoding
    (PLRU, or 8-way LRU) and no dirty, prefetched or touched-prefetch
    line, nor a sharer bit when ``inner``.
    """
    if isinstance(level, KernelCacheLevel):
        return not (inner and level._has_sharers())
    if level.replacement == "lru" and level.num_ways != 8:
        return False
    for row in level._sets:
        for cl in row:
            if (
                cl.dirty or cl.prefetched or cl.touched_after_prefetch
                or (inner and cl.sharers)
            ):
                return False
    return True


def _to_kernel(level):
    """Turn a :class:`CacheLevel` that passes :func:`_flat_encodable`
    into a flat-form :class:`KernelCacheLevel` in place."""
    import numpy as np

    i64 = np.int64
    lines = [cl for row in level._sets for cl in row]
    W = level.num_ways
    valid = [0] * level.num_sets
    for i, cl in enumerate(lines):
        if cl.valid:
            valid[i // W] |= 1 << (i % W)
    sharers = [cl.sharers for cl in lines]
    policies = level._policies
    if level.replacement == "lru":
        rec = _lru8_rank(np.array([p._recency for p in policies], dtype=i64))
    else:
        rec = np.array(
            [sum(b << n for n, b in enumerate(p._bits)) for p in policies],
            dtype=i64,
        )
    flat = FlatLevelState(
        np.array([cl.tag if cl.valid else -1 for cl in lines], dtype=i64),
        np.array(valid, dtype=i64),
        rec,
        np.array(sharers, dtype=i64) if any(sharers) else None,
    )
    _become(level, KernelCacheLevel, _flat=flat)
    level._set_geometry()


def _plru_victim_table(leaves, allowed_mask, left_masks, right_masks):
    """victim way for every PLRU bits value under one allowed-way mask.

    The victim walk depends only on (bits, allowed_mask); tree bits live
    in nodes ``1..leaves-1`` so there are at most ``2**leaves`` states.
    """
    table = [0] * (1 << leaves)
    for bits in range(1 << leaves):
        node = 1
        while node < leaves:
            go_right = (bits >> node) & 1
            if go_right:
                if not allowed_mask & right_masks[node]:
                    go_right = 0
            elif not allowed_mask & left_masks[node]:
                go_right = 1
            node = 2 * node + 1 if go_right else 2 * node
        table[bits] = node - leaves
    return table


# 8-way true-LRU as a finite state machine: per-set recency is one of
# 8! = 40320 permutation states (most recent way first, ranked in
# lexicographic order, so the fresh order 0..7 is state 0), and touch
# and victim are table lookups. Built lazily once per process with
# numpy and shared by every walk; the Python driver gets list copies.
_LRU8_TABLES = None
_LRU8_LISTS = None
_FACT8 = (5040, 720, 120, 24, 6, 2, 1, 1)  # (7 - k)! per position k


def _lru8_rank(perms):
    """Lexicographic rank (Lehmer code) of each row of an ``(m, 8)``
    array of permutations of ``0..7``."""
    import numpy as np

    rank = np.zeros(len(perms), dtype=np.int64)
    for k in range(7):
        smaller_after = (perms[:, k + 1:] < perms[:, k:k + 1]).sum(axis=1)
        rank += smaller_after * _FACT8[k]
    return rank


def _lru8_tables():
    """``(perms, pos, touch, fill)`` numpy tables of the 8-way LRU FSM.

    ``perms[i]`` lists state ``i``'s ways most recent first and
    ``pos[i, w]`` is way ``w``'s position in it (both int8);
    ``touch[i, w]`` is the state after touching ``w`` (``w`` moves to
    the front) and ``fill[i]`` packs evict-and-fill into one lookup:
    the victim (the last way) in the low 3 bits, the post-touch state
    above them. ``touch`` and ``fill`` are int32, the kernels' type.
    """
    global _LRU8_TABLES
    if _LRU8_TABLES is None:
        import numpy as np

        i32 = np.int32
        # Lexicographic permutations of 0..n-1: for each leading way f,
        # f followed by the permutations of n-1 relabelled to skip f.
        perms = np.zeros((1, 0), dtype=np.int8)
        for n in range(1, 9):
            perms = np.concatenate([
                np.concatenate(
                    [np.full((len(perms), 1), f, np.int8),
                     perms + (perms >= f)],
                    axis=1,
                )
                for f in range(n)
            ])
        count = len(perms)
        rows = np.arange(count)
        fact = np.array(_FACT8, dtype=i32)
        # Lehmer digit k of rank i: how many later ways are smaller.
        digits = (rows[:, None] // fact) % np.arange(8, 0, -1)
        pos = np.empty_like(perms)
        pos[rows[:, None], perms] = np.arange(8, dtype=np.int8)
        # Touching w puts w in front (digit w, weight 7!). A way at
        # position k < pos[w] moves one place back (weight fact[k+1])
        # and loses w from behind it (digit - 1 when w is smaller); a
        # way after w keeps its digit and weight.
        shifted = np.append(fact[1:], 0)
        before = np.zeros((count, 9), dtype=np.int64)
        np.cumsum(digits * shifted, axis=1, out=before[:, 1:])
        upto = np.cumsum(digits * fact, axis=1)
        pos64 = pos.astype(np.intp)
        touch = (
            np.arange(8) * 5040
            + np.take_along_axis(before, pos64, axis=1)
            + upto[:, 7:8] - np.take_along_axis(upto, pos64, axis=1)
        )
        ways = np.arange(8, dtype=np.int8)
        for k in range(7):
            touch -= ((ways < perms[:, k:k + 1]) & (pos > k)) * shifted[k]
        victim = perms[:, 7].astype(np.int64)
        fill = (touch[rows, victim] << 3) | victim
        _LRU8_TABLES = (perms, pos, touch.astype(i32), fill.astype(i32))
    return _LRU8_TABLES


def _lru8_lists():
    """``(touch, fill)`` as flat Python lists for the lean Python walk
    (``touch[(state << 3) + way]``)."""
    global _LRU8_LISTS
    if _LRU8_LISTS is None:
        _, _, touch, fill = _lru8_tables()
        _LRU8_LISTS = (touch.ravel().tolist(), fill.tolist())
    return _LRU8_LISTS


def _plru_touch_table(num_ways, set_masks, clear_invs, leaves):
    """next tree state for every (bits, way): bits' = (bits | set) & clear."""
    table = [0] * ((1 << leaves) * num_ways)
    for bits in range(1 << leaves):
        base = bits * num_ways
        for way in range(num_ways):
            table[base + way] = (bits | set_masks[way]) & clear_invs[way]
    return table


# Way-masked PLRU victims depend only on (tree geometry, mask, bits), so
# the lazy bits -> victim memo is shared process-wide per mask and stays
# warm across engine instances and repeated replays.
_LLC_VICTIM_MEMOS = {}


def _llc_victim_memo(leaves, num_ways, mask_bits):
    key = (leaves, num_ways, mask_bits)
    memo = _LLC_VICTIM_MEMOS.get(key)
    if memo is None:
        memo = _LLC_VICTIM_MEMOS[key] = {}
    return memo


# PLRU victim/touch/fill tables for the uniform 8-way inner levels are
# pure functions of the tree geometry; build them once per process.
_PLRU8_TABLES = {}


def _plru8_fill_tables(lvl):
    key = (lvl._leaves, lvl._full_mask)
    tables = _PLRU8_TABLES.get(key)
    if tables is None:
        victim_of = _plru_victim_table(
            lvl._leaves, lvl._full_mask, lvl._plru_left, lvl._plru_right
        )
        touch_of = _plru_touch_table(
            lvl.num_ways, lvl._plru_set, lvl._plru_clear_inv, lvl._leaves
        )
        fill_of = [
            (touch_of[(bits << 3) + v] << 3) | v
            for bits, v in enumerate(victim_of)
        ]
        tables = _PLRU8_TABLES[key] = (victim_of, touch_of, fill_of)
    return tables


def _flush_level_deltas(stats, hits, misses, evictions, writebacks, core):
    accesses = hits + misses
    if not accesses:
        return
    stats.accesses += accesses
    stats.hits += hits
    stats.misses += misses
    stats.fills += misses  # every walk-level miss fills the level
    stats.evictions += evictions
    stats.writebacks += writebacks
    pa = stats.per_domain_accesses
    pa[core] = pa.get(core, 0) + accesses
    if misses:
        pm = stats.per_domain_misses
        pm[core] = pm.get(core, 0) + misses


def _build_lean_pack_walk(hierarchy, core, think_cycles):
    """A read-only L1 -> L2 -> LLC walk for compiled-pack replay on one
    core, fused into one closure.

    Same state transitions as
    :meth:`repro.cache.hierarchy.CacheHierarchy.access_fast`
    (bit-identical caches and stats totals) for a core that passes
    :func:`_epoch_replay_supported`, restructured for long replays:

    - the LLC set index comes precomputed from the pack's geometry
      column (``walk(line, llc_set)``), so there is no hashing per access;
    - the walk returns the access's whole virtual-time delta
      (``latency + think_cycles``) and counts hit levels internally;
    - level counters accumulate in closure-local integers and land in
      the :class:`CacheStats` objects on ``flush()``;
    - L1 recency runs through the 40320-state LRU permutation FSM, L2
      PLRU through full tables, and the way-masked LLC through a lazy
      per-mask victim memo; the mask is captured at build time.

    Returns ``(walk, flush, report)``: ``report()`` gives the
    ``(l1_hits, l2_hits, llc_hits, llc_misses)`` counts since the last
    ``flush()``, which deposits them.
    """
    l1 = hierarchy.l1[core]
    l2 = hierarchy.l2[core]
    llc = hierarchy.llc.storage
    mbits = hierarchy.llc._mask_bits[core]

    h = hierarchy
    cores_range = range(h.num_cores)
    core_bit = 1 << core

    def dropper(lvl):
        """Back-invalidate a resident inner line. Inner lines in this
        walk are clean and unshared, so dropping the line is all of
        :meth:`~repro.cache.cache.CacheLevel.invalidate`."""
        lookup, valid, tags = lvl._lookup, lvl._valid, lvl._tags
        stats, mod, W = lvl.stats, lvl._mod_mask, lvl.num_ways

        def drop(line):
            s = line & mod
            way = lookup[s].pop(line)
            valid[s] &= ~(1 << way)
            tags[s * W + way] = -1
            stats.back_invalidations += 1

        return drop

    inner_l1_lookup = [lvl._lookup for lvl in h.l1]
    inner_l2_lookup = [lvl._lookup for lvl in h.l2]
    l1_drop = [dropper(lvl) for lvl in h.l1]
    l2_drop = [dropper(lvl) for lvl in h.l2]
    own_l1_drop = l1_drop[core]
    own_l2_drop = l2_drop[core]

    l1_mod = l1._mod_mask
    l1_full = l1._full_mask
    l1_lookup, l1_tags = l1._lookup, l1._tags
    l1_valid = l1._valid
    l1_stats = l1.stats
    l1_touch, l1_fill_of = _lru8_lists()
    l1_state = l1._rec

    l2_mod = l2._mod_mask
    l2_full = l2._full_mask
    l2_lookup, l2_tags = l2._lookup, l2._tags
    l2_valid = l2._valid
    l2_plru = l2._rec
    l2_stats = l2.stats
    _, l2_touch_of, l2_fill_of = _plru8_fill_tables(l2)

    llc_W = llc.num_ways
    llc_leaves = llc._leaves
    llc_lookup, llc_tags, llc_sharers = llc._lookup, llc._tags, llc._sharers
    llc_valid = llc._valid
    llc_plru = llc._rec
    llc_pset, llc_pclr = llc._plru_set, llc._plru_clear_inv
    llc_left, llc_right = llc._plru_left, llc._plru_right
    llc_stats = llc.stats
    llc_vmemo = _llc_victim_memo(llc._leaves, llc.num_ways, mbits)
    llc_vmemo_get = llc_vmemo.get

    prof = h.llc_profiler
    prof_observe = prof.observe if prof is not None else None

    lt0 = 4 + think_cycles
    lt1 = 12 + think_cycles
    lt2 = 30 + think_cycles
    lt3 = 200 + think_cycles

    h1 = h2 = h3 = m3 = ev1 = ev2 = ev3 = 0

    def walk(line, s3):
        nonlocal h1, h2, h3, m3, ev1, ev2, ev3
        # ---- L1 probe (LRU FSM, modulo) ---------------------------------
        s1 = line & l1_mod
        look1 = l1_lookup[s1]
        way = look1.get(line)
        if way is not None:
            h1 += 1
            l1_state[s1] = l1_touch[(l1_state[s1] << 3) + way]
            return lt0

        # ---- L2 probe (PLRU tables, modulo) -----------------------------
        s2 = line & l2_mod
        look2 = l2_lookup[s2]
        way = look2.get(line)
        if way is not None:
            h2 += 1
            l2_plru[s2] = l2_touch_of[(l2_plru[s2] << 3) + way]
            ret = lt1
        else:
            # ---- LLC probe (precomputed set index) ----------------------
            if prof_observe is not None:
                prof_observe(line, core)
            look3 = llc_lookup[s3]
            way = look3.get(line)
            if way is not None:
                h3 += 1
                llc_plru[s3] = (llc_plru[s3] | llc_pset[way]) & llc_pclr[way]
                llc_sharers[s3 * llc_W + way] |= core_bit  # add_sharer
                ret = lt2
            else:
                m3 += 1
                # ---- LLC fill (way-masked victim, inclusion) ------------
                valid3 = llc_valid[s3]
                inv = ~valid3 & mbits
                if inv:
                    # Mask way lists are ascending, so "first invalid in
                    # mask order" is the lowest set bit.
                    vbit = inv & -inv
                    victim = vbit.bit_length() - 1
                    llc_valid[s3] = valid3 | vbit
                    base = s3 * llc_W + victim
                else:
                    bits = llc_plru[s3]
                    victim = llc_vmemo_get(bits)
                    if victim is None:
                        node = 1
                        while node < llc_leaves:
                            go_right = (bits >> node) & 1
                            if go_right:
                                if not mbits & llc_right[node]:
                                    go_right = 0
                            elif not mbits & llc_left[node]:
                                go_right = 1
                            node = 2 * node + 1 if go_right else 2 * node
                        victim = node - llc_leaves
                        llc_vmemo[bits] = victim
                    base = s3 * llc_W + victim
                    old_tag = llc_tags[base]
                    old_sharers = llc_sharers[base]
                    ev3 += 1
                    del look3[old_tag]
                    # Inclusion: the victim leaves every inner cache.
                    if old_sharers == core_bit:
                        if old_tag in l1_lookup[old_tag & l1_mod]:
                            own_l1_drop(old_tag)
                        if old_tag in l2_lookup[old_tag & l2_mod]:
                            own_l2_drop(old_tag)
                    elif old_sharers:
                        sh = old_sharers
                        while sh:
                            low = sh & -sh
                            c = low.bit_length() - 1
                            sh ^= low
                            if old_tag in inner_l1_lookup[c][old_tag & l1_mod]:
                                l1_drop[c](old_tag)
                            if old_tag in inner_l2_lookup[c][old_tag & l2_mod]:
                                l2_drop[c](old_tag)
                    else:
                        for c in cores_range:
                            if old_tag in inner_l1_lookup[c][old_tag & l1_mod]:
                                l1_drop[c](old_tag)
                            if old_tag in inner_l2_lookup[c][old_tag & l2_mod]:
                                l2_drop[c](old_tag)
                llc_tags[base] = line
                llc_sharers[base] = core_bit
                look3[line] = victim
                llc_plru[s3] = (
                    llc_plru[s3] | llc_pset[victim]
                ) & llc_pclr[victim]
                ret = lt3

            # ---- L2 fill (demand fills land clean) ----------------------
            valid2 = l2_valid[s2]
            if valid2 == l2_full:
                packed = l2_fill_of[l2_plru[s2]]
                victim = packed & 7
                l2_plru[s2] = packed >> 3
                base = (s2 << 3) + victim
                ev2 += 1
                del look2[l2_tags[base]]
            else:
                vbit = ~valid2 & l2_full
                vbit &= -vbit
                victim = vbit.bit_length() - 1
                l2_valid[s2] = valid2 | vbit
                base = (s2 << 3) + victim
                l2_plru[s2] = l2_touch_of[(l2_plru[s2] << 3) + victim]
            l2_tags[base] = line
            look2[line] = victim

        # ---- L1 fill ----------------------------------------------------
        valid1 = l1_valid[s1]
        st = l1_state[s1]
        if valid1 == l1_full:
            packed = l1_fill_of[st]
            victim = packed & 7
            l1_state[s1] = packed >> 3
            base = (s1 << 3) + victim
            ev1 += 1
            del look1[l1_tags[base]]
        else:
            vbit = ~valid1 & l1_full
            vbit &= -vbit
            victim = vbit.bit_length() - 1
            l1_valid[s1] = valid1 | vbit
            base = (s1 << 3) + victim
            l1_state[s1] = l1_touch[(st << 3) + victim]
        l1_tags[base] = line
        look1[line] = victim
        return ret

    def flush():
        """Deposit the counter deltas into the levels' stats."""
        nonlocal h1, h2, h3, m3, ev1, ev2, ev3
        m2 = h3 + m3
        m1 = h2 + m2
        _flush_level_deltas(l1_stats, h1, m1, ev1, 0, core)
        _flush_level_deltas(l2_stats, h2, m2, ev2, 0, core)
        _flush_level_deltas(llc_stats, h3, m3, ev3, 0, core)
        h1 = h2 = h3 = m3 = ev1 = ev2 = ev3 = 0

    def report():
        return h1, h2, h3, m3

    return walk, flush, report


# numpy mirrors of the recency tables for the native kernel, built once
# per process (keyed like their list-of-int counterparts).
_NP_TABLES = {}


def _np_plru8_tables(lvl):
    key = ("plru8", lvl._leaves, lvl._full_mask)
    tables = _NP_TABLES.get(key)
    if tables is None:
        import numpy as np

        _, touch_of, fill_of = _plru8_fill_tables(lvl)
        tables = _NP_TABLES[key] = (
            np.asarray(touch_of, dtype=np.int32),
            np.asarray(fill_of, dtype=np.int32),
        )
    return tables


def _np_llc_geometry(llc):
    key = ("llcgeo", llc._leaves, llc.num_ways)
    tables = _NP_TABLES.get(key)
    if tables is None:
        import numpy as np

        tables = _NP_TABLES[key] = (
            np.asarray(llc._plru_set, dtype=np.int64),
            np.asarray(llc._plru_clear_inv, dtype=np.int64),
            np.asarray(llc._plru_left, dtype=np.int64),
            np.asarray(llc._plru_right, dtype=np.int64),
        )
    return tables


def _umon_load(profiler):
    """A :class:`~repro.cache.profile.WayProfiler`'s state as the four
    flat int64 buffers ``multiwalk.c``'s ``umon_observe`` updates:
    ``(stack, depth, hist, accesses)``, stacks padded to ``num_ways``
    slots per (domain, set), most recent line first."""
    import itertools

    import numpy as np

    i64 = np.int64
    W = profiler.num_ways
    flat = [stack for per_set in profiler._stacks for stack in per_set]
    depth = np.fromiter(map(len, flat), dtype=i64, count=len(flat))
    stack = np.zeros(len(flat) * W, dtype=i64)
    total = int(depth.sum())
    if total:
        starts = np.cumsum(depth) - depth
        rows = np.repeat(np.arange(len(flat), dtype=i64), depth)
        within = np.arange(total, dtype=i64) - np.repeat(starts, depth)
        stack[rows * W + within] = np.fromiter(
            itertools.chain.from_iterable(flat), dtype=i64, count=total
        )
    hist = np.array(profiler._hist, dtype=i64).ravel()
    accesses = np.array(profiler._accesses, dtype=i64)
    return stack, depth, hist, accesses


def _umon_store(profiler, loaded, stack, depth, hist, accesses):
    """Write the :func:`_umon_load` buffers back into the profiler's
    lists, so ``curves()``, ``snapshot()`` and a later replay see them.
    Only the (domain, set) stacks that differ from ``loaded`` (the
    ``(stack, depth)`` copies taken at load) are rebuilt."""
    import numpy as np

    W = profiler.num_ways
    sets = profiler.num_sets
    stack0, depth0 = loaded
    changed = np.flatnonzero(
        (stack != stack0).reshape(-1, W).any(axis=1) | (depth != depth0)
    )
    rows = stack.reshape(-1, W)[changed].tolist()
    stacks = profiler._stacks
    for i, row, n in zip(changed.tolist(), rows, depth[changed].tolist()):
        del row[n:]
        stacks[i // sets][i % sets] = row
    for d in range(profiler.num_domains):
        profiler._hist[d][:] = hist[d * (W + 1):(d + 1) * (W + 1)].tolist()
    profiler._accesses[:] = accesses.tolist()


# ---------------------------------------------------------------------------
# Epoch-resumable N-domain replay (multiwalk.c + pure-Python reference)
# ---------------------------------------------------------------------------

# dom[] per-domain slot offsets; must match the D_* enum in multiwalk.c.
_DOM_STRIDE = 20
_D_MASK = 2
_D_POS, _D_LIVE, _D_VTIME = 9, 10, 11
_D_H1 = 12  # h1, h2, h3, m3, e1, e2, e3 follow contiguously
_D_E1 = 16
# cfg[] per-cell scalars; must match the CFG_* enum in multiwalk.c.
_CFG_SLOTS = 8
_CFG_STOP = 6


def _inner_walkable(l1, l2):
    """A core's inner levels fit the lean walk and the flat bank layout:
    8-way, modulo-indexed, LRU L1 (the permutation FSM) and PLRU L2."""
    return (
        l1.replacement == "lru" and l2.replacement == "plru"
        and l1.num_ways == 8 and l2.num_ways == 8
        and l1.indexing == "mod" and l2.indexing == "mod"
    )


def _epoch_replay_supported(hierarchy, cores):
    """Guards shared by every pack replay driver (one core per domain).

    Each walked core needs :func:`_inner_walkable` inner levels over a
    PLRU LLC, and every level of the hierarchy must hold or take the
    flat form (:func:`_flat_encodable`): the lean walk keeps dirty,
    prefetch and inner-sharer state all-zero, and nothing in a
    read-only replay sets it. Only when every check passes are
    object-model levels converted to flat kernel levels, so a replay
    that declines converts nothing.
    """
    h = hierarchy
    if len(set(cores)) != len(cores) or h.llc.storage.replacement != "plru":
        return False
    if not all(_inner_walkable(h.l1[c], h.l2[c]) for c in cores):
        return False
    if not _flat_encodable(h.llc.storage, inner=False):
        return False
    if not all(_flat_encodable(lvl, inner=True) for lvl in (*h.l1, *h.l2)):
        return False
    for lvl in _levels(h):
        if not isinstance(lvl, KernelCacheLevel):
            _to_kernel(lvl)
    return True


def _profiler_matches_llc(hierarchy):
    """Whether the attached ``llc_profiler`` indexes exactly like the
    LLC: a :class:`~repro.cache.profile.WayProfiler` with the LLC's set
    count, way count and indexing, and one domain per core. Then the
    packs' LLC set column is also the profiler's set index."""
    from repro.cache.profile import WayProfiler

    prof = hierarchy.llc_profiler
    llc = hierarchy.llc.storage
    return (
        type(prof) is WayProfiler
        and prof.num_sets == llc.num_sets
        and prof.num_ways == llc.num_ways
        and prof.indexing == llc.indexing
        and prof.num_domains == hierarchy.num_cores
    )


def _native_layout_supported(hierarchy):
    """Extra guards of the compiled kernels, checked after
    :func:`_epoch_replay_supported` has put every level in kernel form.

    An attached profiler must match the LLC's geometry
    (:func:`_profiler_matches_llc`; ``multiwalk.c`` feeds it at every
    LLC probe, the batched builders decline any profiler before this
    check), the LLC mask must fit one int64 word, and every core's
    inner levels must be :func:`_inner_walkable` with one geometry, the
    uniform flat layout the C code assumes.
    """
    h = hierarchy
    if h.llc.storage.num_ways > 62:
        return False
    if h.llc_profiler is not None and not _profiler_matches_llc(h):
        return False
    l1_sets = h.l1[0].num_sets
    l2_sets = h.l2[0].num_sets
    return all(
        _inner_walkable(l1, l2)
        and l1.num_sets == l1_sets and l2.num_sets == l2_sets
        for l1, l2 in zip(h.l1, h.l2)
    )


def _levels(hierarchy):
    """Every cache level of a hierarchy: the LLC, then L1s, then L2s."""
    return [hierarchy.llc.storage, *hierarchy.l1, *hierarchy.l2]


def _flat_levels(hierarchy):
    """Every level's :class:`FlatLevelState` (LLC, L1s, L2s), converting
    list-form levels first."""
    return [lvl.flat_state() for lvl in _levels(hierarchy)]


def _gather_flat(flats, field):
    """Concatenate one field of per-core flat states into the kernels'
    all-core buffer, and rebind each level's field to its slice: the
    kernel then updates the levels' own state in place."""
    import numpy as np

    bank = np.concatenate([getattr(f, field) for f in flats])
    n = len(bank) // len(flats)
    for i, f in enumerate(flats):
        setattr(f, field, bank[i * n:(i + 1) * n])
    return bank


def _plain_column(col):
    """A plain Python list view of a pack column (lists pass through)."""
    if isinstance(col, list):
        return col
    tolist = getattr(col, "tolist", None)
    return tolist() if tolist is not None else list(col)


class PythonEpochReplay:
    """The pure-Python pack driver, over the lean pack-walk closures.

    Implements the exact scheduler of ``multiwalk.c`` — linear scan for
    the minimum ``(vtime, slot)`` over live domains, exhausted
    non-repeating domains retiring without issuing, ``stop_at`` as an
    absolute issued-access target and ``horizon`` as a virtual-time
    bound checked before issuing — over the per-core closures from
    :func:`_build_lean_pack_walk`. Virtual times and slot keys are
    unique, so the scan order equals the ``(vtime, slot)`` heap order of
    :meth:`repro.sim.trace_engine.TraceEngine.run` and replays are
    bit-identical to both the object model and the native kernel. It
    serves every read-only pack replay the native kernel declines —
    ``REPRO_NATIVE=0``, no compiler, or an attached ``llc_profiler``
    whose geometry does not match the LLC's — and an attached profiler
    sees each LLC probe in issue order.

    The lean closures capture the LLC way-mask bits at build time, so
    :meth:`refresh_masks` synchronizes counters and recency state back
    into the hierarchy and rebuilds every walk against the new masks —
    a representation hand-off, not a cache flush: every resident line
    and the full recency order survive, which is the Section 2.1
    mask-change contract the native kernel gets for free.
    """

    native = False

    def __init__(self, hierarchy, cores, thinks, lines, sets, lengths,
                 repeats):
        self._h = hierarchy
        self._cores = list(cores)
        self._thinks = list(thinks)
        self._lines = [_plain_column(col) for col in lines]
        self._sets = [_plain_column(col) for col in sets]
        self._lengths = [int(n) for n in lengths]
        self._repeats = [bool(r) for r in repeats]
        n = len(self._cores)
        self._positions = [0] * n
        self._vtimes = [0] * n
        self._lives = [bool(x) for x in self._lengths]
        self._issued = 0
        self._totals = [[0, 0, 0, 0] for _ in range(n)]
        self._build_walks()

    def _build_walks(self):
        built = [
            _build_lean_pack_walk(self._h, core, think)
            for core, think in zip(self._cores, self._thinks)
        ]
        self._walks = [b[0] for b in built]
        self._flushes = [b[1] for b in built]
        self._reports = [b[2] for b in built]

    @property
    def issued(self):
        return self._issued

    def vtimes(self):
        return list(self._vtimes)

    def counters(self, slot):
        """Cumulative ``(l1_hits, l2_hits, llc_hits, llc_misses)``."""
        t = self._totals[slot]
        r = self._reports[slot]()
        return (t[0] + r[0], t[1] + r[1], t[2] + r[2], t[3] + r[3])

    def run_epoch(self, stop_at, horizon=-1):
        """Advance until ``issued == stop_at`` or the merge frontier
        reaches ``horizon`` (virtual time, -1 to disable); returns the
        total issued so far. Call again to resume exactly."""
        walks = self._walks
        lines, sets = self._lines, self._sets
        positions, vtimes = self._positions, self._vtimes
        lives, lengths, repeats = self._lives, self._lengths, self._repeats
        nslots = len(walks)
        issued = self._issued
        while issued < stop_at:
            best = -1
            bt = 0
            for d in range(nslots):
                if lives[d]:
                    vt = vtimes[d]
                    if best < 0 or vt < bt:
                        best = d
                        bt = vt
            if best < 0:
                break
            if 0 <= horizon <= bt:
                break
            i = positions[best]
            if i == lengths[best]:
                if not repeats[best]:
                    lives[best] = False
                    continue
                i = 0
            vtimes[best] = bt + walks[best](lines[best][i], sets[best][i])
            positions[best] = i + 1
            issued += 1
        self._issued = issued
        return issued

    def _sync(self):
        """Bank level counters and push recency state into the levels."""
        for i in range(len(self._cores)):
            r = self._reports[i]()
            t = self._totals[i]
            t[0] += r[0]
            t[1] += r[1]
            t[2] += r[2]
            t[3] += r[3]
            self._flushes[i]()

    def refresh_masks(self):
        """Re-read the hierarchy's way masks; state carries over intact."""
        self._sync()
        self._build_walks()

    def llc_resident(self):
        return sorted(self._h.llc.storage.resident_lines())

    def finish(self):
        """Deposit stat deltas; returns ``(level counts, vtimes)``."""
        self._sync()
        counts = tuple(tuple(t) for t in self._totals)
        return counts, tuple(self._vtimes)


class NativeEpochReplay:
    """Epoch driver over the compiled ``multiwalk.c`` kernel.

    Runs on the cache levels' own flat buffers (see the module
    docstring): the LLC's arrays are handed to the kernel as they are,
    and each state field of the per-core L1s and L2s is gathered into
    one all-core buffer whose slices become those levels' state, so the
    kernel updates every level in place. Each :meth:`run_epoch` is a
    single ``ctypes`` call that advances the replay and returns with
    all state — tags, valid bits, sharers, recency words, per-domain
    counters and virtual times, the issued total — intact in those
    buffers. :meth:`refresh_masks` rewrites only the per-domain mask
    words, so a partition change between epochs costs nothing and
    flushes nothing. :meth:`finish` deposits the level stats; the state
    is already where it belongs and stays flat, exactly as the object
    model would leave it. An attached ``llc_profiler`` is loaded into
    the kernel's UMON buffers here and written back by :meth:`finish`.
    """

    native = True

    def __init__(self, hierarchy, cores, thinks, lines, sets, lengths,
                 repeats, fn):
        import ctypes

        import numpy as np

        i64 = np.int64
        h = hierarchy
        llc = h.llc.storage
        num_cores = h.num_cores
        self._h = h
        self._cores = list(cores)
        self._fn = fn
        self._llc_W = llc.num_ways

        _, _, l1_touch, l1_fill = _lru8_tables()
        l2_touch, l2_fill = _np_plru8_tables(h.l2[cores[0]])
        pset, pclr, pleft, pright = _np_llc_geometry(llc)

        flats = _flat_levels(h)
        g = flats[0]
        if g.sharers is None:
            g.sharers = np.zeros(len(g.tags), dtype=i64)
        g_tags, g_sharers, g_valid, g_plru = g.tags, g.sharers, g.valid, g.rec
        self._g_tags, self._g_valid = g_tags, g_valid
        l1_flats = flats[1:1 + num_cores]
        l2_flats = flats[1 + num_cores:]
        i1_tags = _gather_flat(l1_flats, "tags")
        i1_valid = _gather_flat(l1_flats, "valid")
        l1_state = _gather_flat(l1_flats, "rec")
        i2_tags = _gather_flat(l2_flats, "tags")
        i2_valid = _gather_flat(l2_flats, "valid")
        l2_plru = _gather_flat(l2_flats, "rec")

        cfg = np.zeros(8, dtype=i64)
        cfg[0] = len(cores)
        cfg[1] = llc._leaves
        cfg[2] = llc.num_ways
        cfg[3] = h.l1[cores[0]]._mod_mask
        cfg[4] = h.l2[cores[0]]._mod_mask
        cfg[5] = num_cores
        self._cfg = cfg

        dom = np.zeros(len(cores) * _DOM_STRIDE, dtype=i64)
        for slot, (core, think) in enumerate(zip(cores, thinks)):
            base = slot * _DOM_STRIDE
            dom[base + 0] = core
            dom[base + 1] = 1 << core
            dom[base + 2] = h.llc._mask_bits[core]
            dom[base + 3:base + 7] = (
                4 + think, 12 + think, 30 + think, 200 + think,
            )
            dom[base + 7] = int(lengths[slot])
            dom[base + 8] = bool(repeats[slot])
            dom[base + _D_LIVE] = 1 if lengths[slot] else 0
        self._dom = dom

        def _col(col):
            return np.ascontiguousarray(np.asarray(col, dtype=i64))

        self._line_cols = [_col(c) for c in lines]
        self._set_cols = [_col(c) for c in sets]
        line_ptrs = np.array(
            [c.ctypes.data for c in self._line_cols], dtype=np.uintp
        )
        set_ptrs = np.array(
            [c.ctypes.data for c in self._set_cols], dtype=np.uintp
        )

        bi = np.zeros(2 * num_cores, dtype=i64)
        sched = np.zeros(1, dtype=i64)
        self._bi, self._sched = bi, sched

        self._prof = h.llc_profiler
        umon = () if self._prof is None else _umon_load(self._prof)
        self._umon = umon
        self._umon_loaded = tuple(a.copy() for a in umon[:2])

        # Every buffer is owned by self, the levels, or a process-wide
        # table memo, so its address is stable for the driver's
        # lifetime: bind the whole ctypes argument list once.
        arrays = (
            cfg, dom, line_ptrs, set_ptrs,
            g_tags, g_sharers, g_valid, g_plru,
            pset, pclr, pleft, pright,
            l1_touch, l1_fill, l2_touch, l2_fill,
            i1_tags, i1_valid, l1_state,
            i2_tags, i2_valid, l2_plru,
            bi, sched,
        )
        self._keep = arrays
        self._args = [
            ctypes.c_void_p(a.ctypes.data) for a in arrays + umon
        ] + [ctypes.c_void_p(None)] * (4 - len(umon)) + [
            ctypes.c_int64(llc.num_sets)
        ]

    @property
    def issued(self):
        return int(self._sched[0])

    def vtimes(self):
        dom = self._dom
        return [
            int(dom[s * _DOM_STRIDE + _D_VTIME])
            for s in range(len(self._cores))
        ]

    def counters(self, slot):
        """Cumulative ``(l1_hits, l2_hits, llc_hits, llc_misses)``."""
        base = slot * _DOM_STRIDE + _D_H1
        return tuple(int(x) for x in self._dom[base:base + 4])

    def run_epoch(self, stop_at, horizon=-1):
        cfg = self._cfg
        cfg[6] = stop_at
        cfg[7] = horizon
        self._fn(*self._args)
        return int(self._sched[0])

    def refresh_masks(self):
        """Re-read the hierarchy's way masks; nothing else changes."""
        dom = self._dom
        mask_bits = self._h.llc._mask_bits
        for slot, core in enumerate(self._cores):
            dom[slot * _DOM_STRIDE + _D_MASK] = mask_bits[core]

    def llc_resident(self):
        lines = []
        tags = self._g_tags
        valid = self._g_valid
        W = self._llc_W
        for s in range(len(valid)):
            v = int(valid[s])
            base = s * W
            while v:
                low = v & -v
                v ^= low
                lines.append(int(tags[base + low.bit_length() - 1]))
        return sorted(lines)

    def finish(self):
        """Deposit stat deltas; returns ``(level counts, vtimes)``.
        Call exactly once; the levels' state is already in place."""
        h = self._h
        num_cores = h.num_cores
        bi = self._bi.tolist()
        for c in range(num_cores):
            if bi[c]:
                h.l1[c].stats.back_invalidations += bi[c]
            if bi[num_cores + c]:
                h.l2[c].stats.back_invalidations += bi[num_cores + c]
        dom = self._dom
        llc_stats = h.llc.storage.stats
        counts = []
        for slot, core in enumerate(self._cores):
            h1, h2, h3, m3 = self.counters(slot)
            base = slot * _DOM_STRIDE + _D_E1
            e1, e2, e3 = (int(x) for x in dom[base:base + 3])
            m2 = h3 + m3
            m1 = h2 + m2
            _flush_level_deltas(h.l1[core].stats, h1, m1, e1, 0, core)
            _flush_level_deltas(h.l2[core].stats, h2, m2, e2, 0, core)
            _flush_level_deltas(llc_stats, h3, m3, e3, 0, core)
            counts.append((h1, h2, h3, m3))
        if self._prof is not None:
            _umon_store(self._prof, self._umon_loaded, *self._umon)
        return tuple(counts), tuple(self.vtimes())


def build_python_epoch_replay(hierarchy, cores, thinks, lines, sets,
                              lengths, repeats):
    """The pure-Python epoch driver, or ``None`` if the lean preconditions
    (distinct cores, read-only state, 8-way mod-indexed inner levels)
    don't hold. An attached ``llc_profiler`` observes every LLC probe."""
    if not _epoch_replay_supported(hierarchy, cores):
        return None
    return PythonEpochReplay(
        hierarchy, cores, thinks, lines, sets, lengths, repeats
    )


def build_native_epoch_replay(hierarchy, cores, thinks, lines, sets,
                              lengths, repeats):
    """Epoch driver over the compiled ``multiwalk.c`` kernel, or ``None``
    whenever :func:`build_python_epoch_replay` would decline, the kernel
    is unavailable (no compiler, ``REPRO_NATIVE=0``), the geometry
    deviates from the uniform flat layout the C code assumes, or an
    attached ``llc_profiler`` does not index like the LLC. A matching
    profiler is fed by the kernel and observes every LLC probe."""
    if len(cores) > 16 or not _epoch_replay_supported(hierarchy, cores):
        return None
    if not _native_layout_supported(hierarchy):
        return None

    from repro.cache import native

    fn = native.multi_walk_fn()
    if fn is None:
        return None
    return NativeEpochReplay(
        hierarchy, cores, thinks, lines, sets, lengths, repeats, fn
    )


class NativeBatchReplay:
    """One-call batched replay over the compiled ``batchwalk.c`` kernel.

    Holds R independent replay cells — the allocations of a way sweep,
    or a roster of unrelated co-runs — as contiguous per-cell banks of
    the same flat state :class:`NativeEpochReplay` uses: the template
    hierarchy's flat level buffers are tiled R times, so every cell
    starts from an identical copy, no cell can observe another, and the
    template itself is never written. :meth:`run` is a single ``ctypes`` call; the kernel threads
    over cells but each writes only its own dom/sched bank, so the
    per-cell ``(counters, vtimes)`` read back afterwards are
    bit-identical to running :class:`NativeEpochReplay` once per cell,
    for any thread count.

    Unlike the epoch driver there is no ``finish()``: batch cells are
    throwaway measurements, never a hierarchy the caller keeps
    simulating.
    """

    native = True

    def __init__(self, hierarchy, cells, threads, fn):
        import ctypes

        import numpy as np

        i64 = np.int64
        h = hierarchy
        llc = h.llc.storage
        num_cores = h.num_cores
        R = len(cells)
        n_max = max(len(cell["cores"]) for cell in cells)
        self._h = h
        self._cells = cells
        self._fn = fn
        self._n_max = n_max

        first_core = cells[0]["cores"][0]
        _, _, l1_touch, l1_fill = _lru8_tables()
        l2_touch, l2_fill = _np_plru8_tables(h.l2[first_core])
        pset, pclr, pleft, pright = _np_llc_geometry(llc)

        # The template hierarchy's flat state, tiled R times: every cell
        # starts from an identical copy.
        flats = _flat_levels(h)
        g = flats[0]
        l1_flats = flats[1:1 + num_cores]
        l2_flats = flats[1 + num_cores:]

        def _tiled(field_flats, field):
            return np.tile(
                np.concatenate([getattr(f, field) for f in field_flats]), R
            )

        g_tags = _tiled([g], "tags")
        g_sharers = (
            np.zeros(R * len(g.tags), dtype=i64) if g.sharers is None
            else _tiled([g], "sharers")
        )
        g_valid = _tiled([g], "valid")
        g_plru = _tiled([g], "rec")
        i1_tags = _tiled(l1_flats, "tags")
        i1_valid = _tiled(l1_flats, "valid")
        l1_state = _tiled(l1_flats, "rec")
        i2_tags = _tiled(l2_flats, "tags")
        i2_valid = _tiled(l2_flats, "valid")
        l2_plru = _tiled(l2_flats, "rec")

        l1_sets = h.l1[first_core].num_sets
        l2_sets = h.l2[first_core].num_sets
        cfg = np.zeros(R * _CFG_SLOTS, dtype=i64)
        dom = np.zeros(R * n_max * _DOM_STRIDE, dtype=i64)
        self._line_cols = []
        self._set_cols = []
        line_ptrs = np.zeros(R * n_max, dtype=np.uintp)
        set_ptrs = np.zeros(R * n_max, dtype=np.uintp)

        def _col(col):
            return np.ascontiguousarray(np.asarray(col, dtype=i64))

        mask_bits = h.llc._mask_bits
        for r, cell in enumerate(cells):
            cores = cell["cores"]
            cell_masks = cell.get("mask_bits")
            cbase = r * _CFG_SLOTS
            cfg[cbase + 0] = len(cores)
            cfg[cbase + 1] = llc._leaves
            cfg[cbase + 2] = llc.num_ways
            cfg[cbase + 3] = h.l1[cores[0]]._mod_mask
            cfg[cbase + 4] = h.l2[cores[0]]._mod_mask
            cfg[cbase + 5] = num_cores
            cfg[cbase + 6] = int(cell["stop"])
            cfg[cbase + 7] = -1
            for slot, (core, think) in enumerate(
                zip(cores, cell["thinks"])
            ):
                base = (r * n_max + slot) * _DOM_STRIDE
                dom[base + 0] = core
                dom[base + 1] = 1 << core
                dom[base + 2] = (
                    mask_bits[core] if cell_masks is None
                    else cell_masks[slot]
                )
                dom[base + 3:base + 7] = (
                    4 + think, 12 + think, 30 + think, 200 + think,
                )
                dom[base + 7] = int(cell["lengths"][slot])
                dom[base + 8] = bool(cell["repeats"][slot])
                dom[base + _D_LIVE] = 1 if cell["lengths"][slot] else 0
                lcol = _col(cell["lines"][slot])
                scol = _col(cell["sets"][slot])
                self._line_cols.append(lcol)
                self._set_cols.append(scol)
                line_ptrs[r * n_max + slot] = lcol.ctypes.data
                set_ptrs[r * n_max + slot] = scol.ctypes.data

        bi = np.zeros(R * 2 * num_cores, dtype=i64)
        sched = np.zeros(R, dtype=i64)
        bcfg = np.array(
            [R, threads, n_max, llc.num_sets, llc.num_ways,
             l1_sets, l2_sets, num_cores],
            dtype=i64,
        )
        self._cfg, self._dom, self._sched = cfg, dom, sched

        arrays = (
            bcfg, cfg, dom, line_ptrs, set_ptrs,
            g_tags, g_sharers, g_valid, g_plru,
            pset, pclr, pleft, pright,
            l1_touch, l1_fill, l2_touch, l2_fill,
            i1_tags, i1_valid, l1_state,
            i2_tags, i2_valid, l2_plru,
            bi, sched,
        )
        self._keep = arrays
        self._args = [ctypes.c_void_p(a.ctypes.data) for a in arrays]

    def cell_result(self, r):
        """Cell ``r``'s ``(counts, vtimes)`` read from its dom bank,
        where ``counts`` is a per-domain tuple of ``(l1_hits, l2_hits,
        llc_hits, llc_misses)`` — the same shape ``NativeEpochReplay``'s
        ``finish`` reports, without any hierarchy writeback."""
        dom = self._dom
        counts = []
        vtimes = []
        for slot in range(len(self._cells[r]["cores"])):
            base = (r * self._n_max + slot) * _DOM_STRIDE
            counts.append(tuple(
                int(x) for x in dom[base + _D_H1:base + _D_H1 + 4]
            ))
            vtimes.append(int(dom[base + _D_VTIME]))
        return tuple(counts), tuple(vtimes)

    def run(self):
        """One ctypes call; returns ``[(counts, vtimes), ...]`` per cell."""
        self._fn(*self._args)
        return [self.cell_result(r) for r in range(len(self._cells))]

    @property
    def issued(self):
        return int(self._sched.sum())


def _batch_cells_supported(hierarchy, cells):
    """Shared preconditions of the batched builders (one bank layout;
    the batched kernels feed no profiler)."""
    if hierarchy.llc_profiler is not None:
        return False
    for cell in cells:
        cores = cell["cores"]
        if not cores or len(cores) > 16:
            return False
        if not _epoch_replay_supported(hierarchy, cores):
            return False
    return _native_layout_supported(hierarchy)


def build_native_batch_replay(hierarchy, cells, threads=None):
    """Batched driver over ``batchwalk.c``, or ``None`` when any cell
    fails the epoch-replay preconditions or the kernel is unavailable.

    ``cells`` is a list of dicts with keys ``cores``, ``thinks``,
    ``lines``, ``sets``, ``lengths``, ``repeats``, ``stop`` and
    optionally ``mask_bits`` (per-slot LLC way-mask words; defaults to
    the hierarchy's current masks). ``threads`` follows
    :func:`repro.cache.native.resolve_native_threads` — invalid
    ``REPRO_NATIVE_THREADS`` values raise, they never silently fall
    back.
    """
    if not cells or not _batch_cells_supported(hierarchy, cells):
        return None

    from repro.cache import native

    fn = native.batch_walk_fn()
    if fn is None:
        return None
    threads = native.resolve_native_threads(len(cells), threads)
    return NativeBatchReplay(hierarchy, cells, threads, fn)


class NativeEpochBatchReplay(NativeBatchReplay):
    """Epoch-resumable batched driver over ``epochbatch.c``.

    The same per-cell state banks as :class:`NativeBatchReplay`, kept
    alive between calls: :meth:`run_active` is ONE ctypes call that
    advances only the named cells, each to its own per-cell stop target
    (:meth:`set_stop`), and returns with every cell's walk state — LLC
    and inner-cache tags and recency, per-domain counters, cursors,
    virtual times, scheduler frontiers — resting in the Python-owned
    banks. Between calls the host reads the banked counters
    (:meth:`counter_bank`, a zero-copy view sliced for vectorized MPKI
    windows), runs each cell's controller decision, and rewrites that
    cell's dom way-mask words flush-free (:meth:`set_mask_bits`) — the
    batched generalization of ``NativeEpochReplay``'s ``run_epoch`` +
    ``refresh_masks`` loop. Each work item writes only its own cell's
    banks, so the replay is bit-identical to the sequential epoch
    driver for any thread count and any active-set schedule.
    """

    def __init__(self, hierarchy, cells, threads, fn):
        import ctypes

        import numpy as np

        super().__init__(hierarchy, cells, threads, fn)
        active = np.zeros(len(cells) + 1, dtype=np.int64)
        self._active = active
        self._keep = (*self._keep, active)
        args = list(self._args)
        args.insert(1, ctypes.c_void_p(active.ctypes.data))
        self._args = args

    def issued_of(self, r):
        """Cell ``r``'s scheduler frontier (total issued accesses)."""
        return int(self._sched[r])

    def set_stop(self, r, stop):
        """Cell ``r``'s next absolute issued-access target."""
        self._cfg[r * _CFG_SLOTS + _CFG_STOP] = stop

    def set_mask_bits(self, r, slot, bits):
        """Rewrite one domain's LLC way-mask word — a flush-free
        reallocation, exactly ``NativeEpochReplay.refresh_masks`` for
        one (cell, domain)."""
        self._dom[(r * self._n_max + slot) * _DOM_STRIDE + _D_MASK] = bits

    def counter_bank(self):
        """``(R, n_max, 4)`` int64 view of the cumulative per-domain
        ``(l1_hits, l2_hits, llc_hits, llc_misses)`` counters, zero-copy
        into the dom bank; slots past a cell's domain count stay zero."""
        R = len(self._cells)
        return self._dom.reshape(R, self._n_max, _DOM_STRIDE)[
            :, :, _D_H1:_D_H1 + 4
        ]

    def run_active(self, active_cells):
        """ONE ctypes call advancing ``active_cells`` to their stops."""
        a = self._active
        n = len(active_cells)
        a[0] = n
        a[1:1 + n] = active_cells
        self._fn(*self._args)


def build_native_epoch_batch_replay(hierarchy, cells, threads=None):
    """Batched epoch driver over ``epochbatch.c``, or ``None`` when any
    cell fails the epoch-replay preconditions or the kernel is
    unavailable.

    ``cells`` carries the same keys as
    :func:`build_native_batch_replay`; ``stop`` is the first epoch
    target (0 means nothing runs until the host raises it via
    ``set_stop``). ``threads`` resolves like the one-shot batch driver;
    each call's worker count further clamps to the active cell count
    inside the kernel.
    """
    if not cells or not _batch_cells_supported(hierarchy, cells):
        return None

    from repro.cache import native

    fn = native.epoch_batch_fn()
    if fn is None:
        return None
    threads = native.resolve_native_threads(len(cells), threads)
    return NativeEpochBatchReplay(hierarchy, cells, threads, fn)


def make_cache_level(
    name,
    capacity_bytes,
    num_ways,
    line_size=64,
    replacement="lru",
    indexing="mod",
):
    """A cache level that starts in the flat form where one exists
    (PLRU, or 8-way LRU), else an object-model :class:`CacheLevel`."""
    cls = (
        CacheLevel if replacement == "lru" and num_ways != 8
        else KernelCacheLevel
    )
    return cls(
        name, capacity_bytes, num_ways, line_size, replacement, indexing
    )
