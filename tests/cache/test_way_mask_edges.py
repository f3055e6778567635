"""Way-mask edge cases, across the forms a level's state can take.

The paper's partitioning contract has three sharp edges: a mask can
never be empty, a single-way partition must still function (the smallest
CAT allocation), and reassigning masks never flushes data — old lines
keep hitting from ways the domain no longer owns while new fills are
confined. Every test runs twice and expects the exact same behaviour,
including the error messages the replacement policies raise
(``kernel_form``, test ids ``object`` and ``kernel``):

- the level is an object-model ``CacheLevel`` from construction and
  stays one;
- the level starts as a flat ``KernelCacheLevel``, becomes the object
  model on its first access, and is handed back to the flat form at
  every phase boundary of the scenario (after filling, around each mask
  change), so each edge is also checked across a hand-over.
"""

import pytest

from repro.cache.cache import CacheLevel
from repro.cache.kernel import _flat_encodable, _to_kernel, make_cache_level
from repro.cache.llc import PartitionedLLC, WayMask
from repro.util.errors import ValidationError

KERNEL_FORM = pytest.mark.parametrize(
    "kernel_form", [False, True], ids=["object", "kernel"]
)
NUM_WAYS = 8
NUM_SETS = 16
CAPACITY = NUM_SETS * NUM_WAYS * 64


def make_level(kernel_form, name, replacement):
    make = make_cache_level if kernel_form else CacheLevel
    return make(name, CAPACITY, NUM_WAYS, replacement=replacement)


def small_llc(kernel_form, num_domains=2, replacement="plru"):
    llc = PartitionedLLC(
        capacity_bytes=CAPACITY,
        num_ways=NUM_WAYS,
        num_domains=num_domains,
        replacement=replacement,
        indexing="mod",  # predictable line -> set mapping for the asserts
    )
    if not kernel_form:
        llc.storage = CacheLevel(
            "LLC", CAPACITY, NUM_WAYS, replacement=replacement, indexing="mod"
        )
    return llc


def settle(level, kernel_form):
    """A phase boundary: a kernel-form level goes back to the flat form."""
    if kernel_form and isinstance(level, CacheLevel):
        assert _flat_encodable(level, inner=False)
        _to_kernel(level)


def fill_domain(llc, domain, lines):
    for line in lines:
        if not llc.access(line, domain=domain):
            llc.fill(line, domain=domain)


def ways_used(llc, lines):
    """The set of ways holding ``lines``, via the level's own lookup."""
    used = set()
    for line in lines:
        set_idx, way = llc.storage.find(line)
        if way is not None:
            used.add(way)
    return used


class TestEmptyMasks:
    def test_way_mask_type_rejects_empty(self):
        with pytest.raises(ValidationError, match="cannot be empty"):
            WayMask([])
        with pytest.raises(ValidationError):
            WayMask.contiguous(0, 0)
        with pytest.raises(ValidationError):
            WayMask.from_bits(0)

    @KERNEL_FORM
    @pytest.mark.parametrize("replacement", ["lru", "plru"])
    def test_fill_with_no_allowed_ways_rejected(
        self, kernel_form, replacement
    ):
        """An empty allowed set must fail in the victim policy, not hang
        or silently fall back to an unpartitioned fill."""
        level = make_level(kernel_form, "edge", replacement)
        for line in range(NUM_SETS * NUM_WAYS):  # no invalid ways left
            level.fill(line)
        settle(level, kernel_form)
        with pytest.raises(
            ValidationError, match="at least one allowed way"
        ):
            level.fill(10_000, allowed_ways=[])

    @KERNEL_FORM
    def test_allowed_ways_outside_set_rejected(self, kernel_form):
        level = make_level(kernel_form, "edge", "lru")
        for line in range(NUM_SETS * NUM_WAYS):
            level.fill(line)
        settle(level, kernel_form)
        with pytest.raises(ValidationError, match="outside this set"):
            level.fill(10_000, allowed_ways=[NUM_WAYS + 3])


@KERNEL_FORM
class TestSingleWayPartitions:
    def test_occupancy_confined_to_one_way(self, kernel_form):
        llc = small_llc(kernel_form)
        llc.set_mask(0, WayMask([5], num_ways=NUM_WAYS))
        llc.set_mask(1, WayMask([w for w in range(NUM_WAYS) if w != 5],
                                num_ways=NUM_WAYS))
        lines = list(range(6 * NUM_SETS))
        fill_domain(llc, 0, lines)
        settle(llc.storage, kernel_form)
        by_way = llc.storage.occupancy_by_way()
        assert by_way[5] == NUM_SETS  # every set's way 5 is full
        assert sum(by_way) == NUM_SETS  # and nothing else was touched

    def test_direct_mapped_domain_still_hits(self, kernel_form):
        """One way per set behaves as a direct-mapped cache: a working
        set of one line per set hits forever, two lines per set thrash."""
        llc = small_llc(kernel_form)
        llc.set_mask(0, WayMask([2], num_ways=NUM_WAYS))
        resident = list(range(NUM_SETS))  # one line per set under mod?
        fill_domain(llc, 0, resident)
        settle(llc.storage, kernel_form)
        assert all(llc.access(line, domain=0) for line in resident)

    def test_hits_allowed_anywhere_despite_mask(self, kernel_form):
        """Partitioning constrains *replacement* only (paper section 2.1):
        a domain hits on lines resident in ways it does not own."""
        llc = small_llc(kernel_form)
        llc.set_mask(0, WayMask.contiguous(4, 0, num_ways=NUM_WAYS))
        llc.set_mask(1, WayMask.contiguous(4, 4, num_ways=NUM_WAYS))
        fill_domain(llc, 1, [7, 8, 9])
        settle(llc.storage, kernel_form)
        assert llc.access(7, domain=0)
        assert llc.access(8, domain=0)


@KERNEL_FORM
class TestMaskReallocation:
    def test_reallocation_does_not_flush(self, kernel_form):
        llc = small_llc(kernel_form)
        llc.set_mask(0, WayMask.contiguous(2, 0, num_ways=NUM_WAYS))
        old_lines = list(range(2 * NUM_SETS))
        fill_domain(llc, 0, old_lines)
        occupancy_before = llc.storage.occupancy()

        settle(llc.storage, kernel_form)
        llc.set_mask(0, WayMask.contiguous(2, 6, num_ways=NUM_WAYS))
        assert llc.storage.occupancy() == occupancy_before
        assert all(llc.access(line, domain=0) for line in old_lines)

    def test_new_fills_confined_to_new_ways(self, kernel_form):
        llc = small_llc(kernel_form)
        llc.set_mask(0, WayMask.contiguous(2, 0, num_ways=NUM_WAYS))
        old_lines = list(range(2 * NUM_SETS))
        fill_domain(llc, 0, old_lines)

        settle(llc.storage, kernel_form)
        llc.set_mask(0, WayMask.contiguous(2, 6, num_ways=NUM_WAYS))
        new_lines = list(range(1000, 1000 + 2 * NUM_SETS))
        fill_domain(llc, 0, new_lines)
        settle(llc.storage, kernel_form)
        assert ways_used(llc, new_lines) <= {6, 7}
        # Stale lines persist in the relinquished ways until another
        # domain's replacement reclaims them.
        assert ways_used(llc, old_lines) <= {0, 1}
        assert all(llc.access(line, domain=0) for line in old_lines)

    def test_shrunk_domain_cannot_evict_outside_its_mask(self, kernel_form):
        """After shrinking to one way, heavy traffic from the domain must
        never displace another domain's lines."""
        llc = small_llc(kernel_form)
        llc.set_mask(1, WayMask.contiguous(4, 4, num_ways=NUM_WAYS))
        victim_set = list(range(4 * NUM_SETS))
        fill_domain(llc, 1, victim_set)
        held_before = ways_used(llc, victim_set)

        settle(llc.storage, kernel_form)
        llc.set_mask(0, WayMask([0], num_ways=NUM_WAYS))
        fill_domain(llc, 0, range(2000, 2000 + 8 * NUM_SETS))
        assert ways_used(llc, victim_set) == held_before
        assert all(llc.access(line, domain=1) for line in victim_set)

    def test_backends_agree_through_reallocation(self, kernel_form):
        """The same scenario ends in the same state, victims included,
        whichever form the level crosses each phase boundary in."""
        reference = small_llc(False)
        other = small_llc(kernel_form)
        for llc in (reference, other):
            llc.set_mask(0, WayMask.contiguous(3, 0, num_ways=NUM_WAYS))
            llc.set_mask(1, WayMask.contiguous(5, 3, num_ways=NUM_WAYS))
            fill_domain(llc, 0, range(3 * NUM_SETS))
            fill_domain(llc, 1, range(500, 500 + 5 * NUM_SETS))
            if llc is other:
                settle(llc.storage, kernel_form)
            llc.set_mask(0, WayMask.contiguous(6, 0, num_ways=NUM_WAYS))
            llc.set_mask(1, WayMask.contiguous(2, 6, num_ways=NUM_WAYS))
            fill_domain(llc, 0, range(3 * NUM_SETS, 6 * NUM_SETS))
            if llc is other:
                settle(llc.storage, kernel_form)
        assert sorted(reference.storage.resident_lines()) == sorted(
            other.storage.resident_lines()
        )
        assert reference.storage.occupancy_by_way() == (
            other.storage.occupancy_by_way()
        )
        assert sorted(reference.storage.stats.snapshot().items()) == sorted(
            other.storage.stats.snapshot().items()
        )
        for s in range(NUM_SETS):
            for ways in ([0, 1, 2, 3, 4, 5], [6, 7]):
                assert reference.storage._policies[s].victim(ways) == (
                    other.storage._policies[s].victim(ways)
                )
