"""Single-pass way-profiling: LRU stack distances and way counters.

Hardware utility monitors (UCP's UMON, and the lightweight occupancy
profiling Com-CAS/LFOC-style schedulers rely on) exploit the LRU stack
inclusion property: if an access hits at stack distance ``d`` in a set,
it hits in *any* allocation of more than ``d`` ways. One replay that
records the per-set stack-distance histogram therefore answers
``hits(ways)`` for every allocation ``1..W`` at once — no per-mask
re-simulation.

:class:`WayProfiler` maintains one auxiliary tag directory per domain
(exactly a UMON: each domain is profiled as if it had the cache to
itself) and truncates each per-set stack at ``num_ways`` entries, so the
cost per access is one bounded ``list.index`` instead of a cache-model
walk. Under true LRU the resulting curve is *exact* — it equals a
brute-force re-simulation at every way count, which
:func:`verify_profile` (and the tests) check literally.

:class:`WaySweep` wraps the profiler in the LLC's default geometry and
is what the trace engine, the MRC calibration fast path, and the
``repro trace-sweep`` CLI command drive.
"""

from dataclasses import dataclass

from repro.cache.block import MemoryAccess
from repro.cache.cache import CacheLevel, _INDEXING
from repro.util.errors import ConfigurationError, ValidationError

LLC_NUM_SETS = 8192  # 6 MB / (12 ways x 64 B lines)
LLC_NUM_WAYS = 12


@dataclass
class WayCurve:
    """One domain's profiled utility curve: hits under every allocation."""

    num_ways: int
    accesses: int
    histogram: list  # histogram[d] = accesses at stack distance d;
    # histogram[num_ways] = accesses beyond every allocation (cold or deep)

    def __post_init__(self):
        # hits()/miss_ratio()/marginal_hits() sit inside solver loops, so
        # the prefix sums are materialized once; _cum[w] = hits with w ways.
        cum = [0] * (self.num_ways + 1)
        total = 0
        for ways, count in enumerate(self.histogram[: self.num_ways], start=1):
            total += count
            cum[ways] = total
        self._cum = cum

    def hits(self, ways):
        """Hits this domain would see alone with ``ways`` ways per set."""
        if not 1 <= ways <= self.num_ways:
            raise ValidationError(f"ways must be in 1..{self.num_ways}")
        return self._cum[ways]

    def misses(self, ways):
        return self.accesses - self.hits(ways)

    def miss_ratio(self, ways):
        return self.misses(ways) / self.accesses if self.accesses else 0.0

    def marginal_hits(self, ways):
        """Extra hits contributed by the ``ways``-th way (UCP's utility)."""
        if not 1 <= ways <= self.num_ways:
            raise ValidationError(f"ways must be in 1..{self.num_ways}")
        return self.histogram[ways - 1]

    def curve(self):
        """``{ways: hits}`` for every allocation 1..W."""
        return {w: self.hits(w) for w in range(1, self.num_ways + 1)}


class WayProfiler:
    """Per-domain, per-set LRU stack-distance profiler (UMON-style)."""

    def __init__(self, num_sets=LLC_NUM_SETS, num_ways=LLC_NUM_WAYS,
                 indexing="mod", num_domains=1):
        if num_ways < 1:
            raise ConfigurationError("profiler needs at least one way")
        if num_domains < 1:
            raise ConfigurationError("profiler needs at least one domain")
        if indexing not in _INDEXING:
            raise ConfigurationError(f"unknown indexing scheme {indexing!r}")
        self.num_sets = num_sets
        self.num_ways = num_ways
        self.num_domains = num_domains
        self.indexing = indexing
        self._indexer = _INDEXING[indexing](num_sets)
        self._stacks = [
            [[] for _ in range(num_sets)] for _ in range(num_domains)
        ]
        self._hist = [[0] * (num_ways + 1) for _ in range(num_domains)]
        self._accesses = [0] * num_domains

    def observe(self, line_number, domain=0):
        """Record one access; updates the domain's stack-distance histogram."""
        stack = self._stacks[domain][self._indexer.index(line_number)]
        try:
            distance = stack.index(line_number)
        except ValueError:
            self._hist[domain][self.num_ways] += 1
            stack.insert(0, line_number)
            if len(stack) > self.num_ways:
                stack.pop()
        else:
            self._hist[domain][distance] += 1
            if distance:
                del stack[distance]
                stack.insert(0, line_number)
        self._accesses[domain] += 1

    def curve(self, domain=0):
        return WayCurve(
            num_ways=self.num_ways,
            accesses=self._accesses[domain],
            histogram=list(self._hist[domain]),
        )

    def curves(self):
        return {d: self.curve(d) for d in range(self.num_domains)}

    def accesses(self, domain=0):
        return self._accesses[domain]

    def snapshot(self):
        """Per-domain histogram/access copies, for windowed (delta) curves.

        Callers that warm the profiler's directory on a prefix of the
        trace snapshot here, replay the measured window, and subtract —
        :func:`delta_curve` builds the windowed curve.
        """
        return [list(h) for h in self._hist], list(self._accesses)

    def delta_curve(self, snapshot, domain=0):
        """The WayCurve accumulated since ``snapshot`` for ``domain``."""
        hists, accesses = snapshot
        return WayCurve(
            num_ways=self.num_ways,
            accesses=self._accesses[domain] - accesses[domain],
            histogram=[
                now - then
                for now, then in zip(self._hist[domain], hists[domain])
            ],
        )


def _line_of(item):
    return item.line_address if isinstance(item, MemoryAccess) else int(item)


class WaySweep:
    """Answer hits/misses under every allocation 1..W from one replay."""

    def __init__(self, num_sets=LLC_NUM_SETS, num_ways=LLC_NUM_WAYS,
                 indexing="hash", num_domains=1, domain_of=None):
        self.num_sets = num_sets
        self.num_ways = num_ways
        self.indexing = indexing
        self.num_domains = num_domains
        # tid -> domain mapping mirrors the hierarchy's pairwise mapping.
        self._domain_of = domain_of or (
            (lambda acc: acc.tid // 2 if isinstance(acc, MemoryAccess) else 0)
            if num_domains > 1
            else (lambda acc: 0)
        )

    def run(self, trace_factory):
        """Replay once; returns ``{domain: WayCurve}``."""
        from repro.perf import engine_counters as ec

        profiler = WayProfiler(
            self.num_sets, self.num_ways, self.indexing, self.num_domains
        )
        observe = profiler.observe
        domain_of = self._domain_of
        for item in trace_factory():
            observe(_line_of(item), domain_of(item))
        ec.add(ec.PROFILER_PASSES)
        return profiler.curves()

    def run_single(self, trace_factory):
        """Replay a single-domain trace; returns its WayCurve."""
        return self.run(trace_factory)[0]

    def run_pack(self, pack, domains=None):
        """Profile a compiled :class:`TracePack` on the vectorized fast
        path (the batched C profiler when available); bit-identical to
        :meth:`run` over the same stream."""
        from repro.cache.profile_np import profile_pack

        return profile_pack(
            pack, self.num_sets, self.num_ways, self.indexing,
            self.num_domains, domains=domains,
        )


def brute_force_hits(trace_factory, ways, num_sets=LLC_NUM_SETS,
                     indexing="hash", line_size=64):
    """Ground truth: replay through a standalone ``ways``-way LRU cache
    of the object model.

    The geometry pins ``num_sets`` while varying associativity, exactly
    what an LLC way mask of size ``ways`` does for a lone domain.
    """
    level = CacheLevel(
        f"sweep-{ways}w",
        num_sets * ways * line_size,
        ways,
        line_size=line_size,
        replacement="lru",
        indexing=indexing,
    )
    hits = 0
    for item in trace_factory():
        line = _line_of(item)
        if level.access(line):
            hits += 1
        else:
            level.fill(line)
    return hits


def verify_profile(trace_factory, way_counts=None, num_sets=LLC_NUM_SETS,
                   num_ways=LLC_NUM_WAYS, indexing="hash", use_pack=False):
    """Compare the single-pass profile to per-mask re-simulation.

    Returns ``[(ways, profiled_hits, brute_hits), ...]``; the two columns
    must be equal under true LRU. Raises ValidationError on any mismatch
    so callers (CLI ``--check``, CI) fail loudly.

    With ``use_pack`` both columns replay the compiled trace pack — the
    profile on the vectorized pack profiler, the brute-force passes over
    the pack's raw line column — so a disk-cached pack verifies without
    regenerating the trace N+1 times.
    """
    ways_list = list(way_counts or range(1, num_ways + 1))
    sweep = WaySweep(num_sets, num_ways, indexing)
    if use_pack:
        from repro.workloads.tracepack import get_pack

        pack = get_pack(trace_factory())
        curve = sweep.run_pack(pack)[0]
        source = pack.lines_list
    else:
        curve = sweep.run_single(trace_factory)
        source = trace_factory
    rows = []
    for ways in ways_list:
        brute = brute_force_hits(
            source, ways, num_sets=num_sets, indexing=indexing
        )
        rows.append((ways, curve.hits(ways), brute))
    mismatched = [(w, p, b) for w, p, b in rows if p != b]
    if mismatched:
        raise ValidationError(
            f"profiled hits diverge from re-simulation at {mismatched}"
        )
    return rows
