"""Shard planning: pack batchable cells into native roster calls.

The perf contract of a campaign is that its inner loop is C — or, for
the analytical backend, NumPy — not per-cell Python. Every trace cell
is batchable, each policy through the shard kind that fits its control
structure:

- ``shared``/``fair``/``static-N`` (one fixed-split co-run known before
  anything executes) group into **roster** shards, each replayed by ONE
  :func:`repro.sim.trace_engine.run_packed_roster` call;
- ``biased`` (measure every split, then argmax) groups into **sweep**
  shards: each cell contributes its 11-allocation measured sweep to one
  batched roster call, and the winner is chosen from the measured
  entries — no separate re-measure co-run is needed, because the
  entries *are* co-run measurements and replay is deterministic;
- ``dynamic`` (epoch feedback loop) groups into **dynamic-roster**
  shards, each driven by :func:`repro.sim.trace_engine.run_dynamic_roster`
  — one threaded batch-kernel call per control period for the whole
  shard, controller decisions stepped host-side between calls;
- N-tenant group cells batch too: fixed-split groups join **roster**
  shards (masks straight from their ``GroupSplit``), and ``cluster``
  cells form **cluster** shards — each cell profiles its tenants' way
  utility (one batched sweep call), then every planned split in the
  shard replays in ONE batched roster call. Group ``biased``/``dynamic``
  cells fall back per-cell; their control loops already run one batched
  native call per cell.

Analytical ``shared``/``fair`` cells group into **grid** shards, each
solved by ONE vectorized
:meth:`repro.backend.analytical.AnalyticalBackend.co_run_grid` call.
Only the genuinely unbatchable remainder (analytical ``biased``/
``dynamic``, whose inner loop is the scalar engine) falls back to
per-cell execution fanned out over the exec pool's ``parallel_map``.

Shards are also the checkpoint unit: the runner persists one atomic
RunSet shard file per executed shard, so ``--resume`` granularity and
C-call granularity are the same knob (``shard_size``).
"""

from dataclasses import dataclass, field

from repro.campaign.manifest import static_policy_ways
from repro.util.errors import ValidationError

DEFAULT_SHARD_SIZE = 64
DEFAULT_FALLBACK_SHARD_SIZE = 8

# tids for the fg/bg domains of every campaign pair: cores 0 and 2 on
# the four-core hierarchy (matching trace_pair_spec).
FG_TID = 0
BG_TID = 4


def shard_kind_for(cell):
    """The batched shard kind executing this cell, or ``None``.

    ``"roster"`` for fixed-split trace cells, ``"sweep"`` for trace
    ``biased`` (an 11-allocation measured-sweep roster per cell),
    ``"dynamic"`` for trace ``dynamic`` (the batch kernel driving
    a controller per cell), ``"grid"`` for analytical fixed splits.
    ``None`` means per-cell fallback over the exec pool.
    """
    if cell.backend == "trace":
        if cell.tenants:
            # N-tenant group cells: fixed splits replay as roster
            # shards; `cluster` profiles then replays (its own shard
            # kind); group biased/dynamic stay per-cell — their control
            # loops (utility scoring, churn-aware epoch feedback) run
            # one batched native call per cell already.
            if cell.policy in ("shared", "fair"):
                return "roster"
            if cell.policy == "cluster":
                return "cluster"
            return None
        if cell.policy == "biased":
            return "sweep"
        if cell.policy == "dynamic":
            return "dynamic"
        if (
            cell.policy in ("shared", "fair")
            or static_policy_ways(cell.policy) is not None
        ):
            return "roster"
        return None
    if cell.backend == "analytical":
        return "grid" if cell.policy in ("shared", "fair") else None
    return None


def is_batchable(cell):
    """True when the cell executes inside a batched shard kind.

    Every trace policy is batchable — fixed splits as roster shards,
    ``biased`` as measured-sweep roster shards, ``dynamic`` as
    epoch-batched dynamic-roster shards. Analytical ``shared``/``fair``
    batch into vectorized grid shards; analytical ``biased``/``dynamic``
    stay per-cell (their inner loop is the scalar engine).
    """
    return shard_kind_for(cell) is not None


def split_for(cell, llc_ways=12):
    """The WaySplit a batchable cell runs under (None for non-batchable)."""
    from repro.backend.protocol import WaySplit

    if cell.policy == "shared":
        return WaySplit.shared(llc_ways)
    if cell.policy == "fair":
        return WaySplit.fair(llc_ways)
    ways = static_policy_ways(cell.policy)
    if ways is None:
        return None
    return WaySplit.disjoint(ways, llc_ways)


def trace_spec_for(cell):
    """The backend PairSpec for a trace cell (picklable factories)."""
    from repro.analysis.experiments import trace_pair_spec

    geometry = cell.geometry_dict
    return trace_pair_spec(
        cell.fg,
        cell.bg,
        accesses=int(geometry["accesses"]),
        footprint_mb=float(geometry["footprint_mb"]),
        alpha=float(geometry["alpha"]),
        seed=int(geometry["seed"]),
        bg_footprint_mb=float(geometry["bg_footprint_mb"]),
    )


def trace_group_for(cell):
    """The backend TenantSet for an N-tenant trace cell."""
    from repro.analysis.experiments import trace_group_spec

    geometry = cell.geometry_dict
    return trace_group_spec(
        cell.tenants,
        accesses=int(geometry["accesses"]),
        footprint_mb=float(geometry["footprint_mb"]),
        alpha=float(geometry["alpha"]),
        seed=int(geometry["seed"]),
        bg_footprint_mb=float(geometry["bg_footprint_mb"]),
    )


def group_split_for(cell, llc_ways=12):
    """The GroupSplit a fixed-split group cell runs under.

    Mirrors ``group_shared``/``group_fair`` exactly — including the
    two-tenant fair case, which follows ``WaySplit.fair``'s remainder
    convention — so a roster-replayed group cell is bit-identical to
    the per-cell reference path.
    """
    from repro.backend.protocol import GroupSplit, WaySplit

    n = len(cell.tenants)
    if cell.policy == "shared":
        return GroupSplit.shared(n, llc_ways)
    if cell.policy == "fair":
        if n == 2:
            return GroupSplit.from_pair(WaySplit.fair(llc_ways), llc_ways)
        return GroupSplit.fair(n, llc_ways)
    return None


def backend_for(cell, threads=None):
    """A fresh SimBackend configured for the cell."""
    if cell.backend == "trace":
        from repro.backend import TraceBackend

        geometry = cell.geometry_dict
        controller = cell.controller_dict
        # measured_sweep: biased cells choose from *replayed* splits
        # (one batched roster call), so the per-cell reference path and
        # the sweep-shard path score identical measurements.
        return TraceBackend(
            total_accesses=int(geometry["accesses"]),
            epoch_accesses=int(
                controller.get("epoch_accesses") or 4_000
            ),
            dynamic_total_accesses=controller.get("total_accesses"),
            measured_sweep=True,
            native_threads=threads,
        )
    if cell.backend == "analytical":
        from repro.backend import AnalyticalBackend

        return AnalyticalBackend()
    raise ValidationError(f"unknown cell backend {cell.backend!r}")


def roster_cell_for(cell, llc_ways=12):
    """The RosterCell realizing a batchable campaign cell.

    Masks are built exactly as ``TraceBackend.co_run`` builds them —
    the foreground's ways from way 0 up, the background's from the top
    down — so a roster-replayed cell is bit-identical to the per-cell
    reference path.
    """
    from repro.cache.llc import WayMask
    from repro.sim.trace_engine import RosterCell

    split = split_for(cell, llc_ways)
    if split is None:
        raise ValidationError(f"cell {cell.cell_id} is not batchable")
    spec = trace_spec_for(cell)
    return RosterCell(
        workloads=[spec.fg, spec.bg],
        masks={
            spec.fg.tid // 2: WayMask.contiguous(split.fg_ways, 0, llc_ways),
            spec.bg.tid // 2: WayMask.contiguous(
                split.bg_ways, llc_ways - split.bg_ways, llc_ways
            ),
        },
        total_accesses=int(cell.geometry_dict["accesses"]),
    ), spec, split


@dataclass
class ShardPlan:
    """The execution plan: roster, grid, sweep, dynamic, and fallback
    shards.

    Each entry is a list of :class:`~repro.campaign.manifest.CampaignCell`;
    roster shards execute as one batched native call, grid shards as one
    vectorized analytical solve, sweep shards as one batched
    measured-sweep call covering every member cell's 11 allocations,
    dynamic shards as one epoch-batched controller roster, and fallback
    shards as a ``parallel_map`` over per-cell execution. ``skipped``
    counts cells the store already held (resume hits).
    """

    roster_shards: list = field(default_factory=list)
    grid_shards: list = field(default_factory=list)
    sweep_shards: list = field(default_factory=list)
    dynamic_shards: list = field(default_factory=list)
    cluster_shards: list = field(default_factory=list)
    fallback_shards: list = field(default_factory=list)
    skipped: list = field(default_factory=list)

    @property
    def batchable_cells(self):
        return sum(len(shard) for shard in self.roster_shards)

    @property
    def grid_cells(self):
        return sum(len(shard) for shard in self.grid_shards)

    @property
    def sweep_cells(self):
        return sum(len(shard) for shard in self.sweep_shards)

    @property
    def dynamic_cells(self):
        return sum(len(shard) for shard in self.dynamic_shards)

    @property
    def cluster_cells(self):
        return sum(len(shard) for shard in self.cluster_shards)

    @property
    def fallback_cells(self):
        return sum(len(shard) for shard in self.fallback_shards)

    @property
    def total_shards(self):
        return (
            len(self.roster_shards)
            + len(self.grid_shards)
            + len(self.sweep_shards)
            + len(self.dynamic_shards)
            + len(self.cluster_shards)
            + len(self.fallback_shards)
        )

    def shards(self):
        """All shards in deterministic execution order, tagged by kind."""
        for shard in self.roster_shards:
            yield "roster", shard
        for shard in self.grid_shards:
            yield "grid", shard
        for shard in self.sweep_shards:
            yield "sweep", shard
        for shard in self.dynamic_shards:
            yield "dynamic", shard
        for shard in self.cluster_shards:
            yield "cluster", shard
        for shard in self.fallback_shards:
            yield "fallback", shard


def plan_shards(cells, done_ids=(), shard_size=DEFAULT_SHARD_SIZE,
                fallback_shard_size=DEFAULT_FALLBACK_SHARD_SIZE):
    """Split the remaining cells into shards by kind.

    ``done_ids`` holds content addresses already present in the store;
    those cells are skipped without executing anything. The split and
    the shard boundaries are deterministic functions of the cell list,
    so two planners over the same manifest and store agree exactly.
    Sweep shards chunk at ``shard_size // 11`` cells (floor 1), since
    every member contributes an 11-allocation roster to the one batched
    call — a shard's native call stays near ``shard_size`` replay
    cells regardless of kind.
    """
    if shard_size < 1 or fallback_shard_size < 1:
        raise ValidationError("shard sizes must be >= 1")
    done_ids = set(done_ids)
    plan = ShardPlan()
    by_kind = {
        "roster": [], "grid": [], "sweep": [], "dynamic": [],
        "cluster": [], None: [],
    }
    for cell in cells:
        if cell.cell_id in done_ids:
            plan.skipped.append(cell)
        else:
            by_kind[shard_kind_for(cell)].append(cell)

    def chunk(items, size):
        return [items[i:i + size] for i in range(0, len(items), size)]

    plan.roster_shards = chunk(by_kind["roster"], shard_size)
    plan.grid_shards = chunk(by_kind["grid"], shard_size)
    plan.sweep_shards = chunk(by_kind["sweep"], max(1, shard_size // 11))
    plan.dynamic_shards = chunk(by_kind["dynamic"], shard_size)
    # A cluster cell profiles (one 12-allocation sweep call) before its
    # final replay joins the shard's one batched roster call.
    plan.cluster_shards = chunk(by_kind["cluster"], max(1, shard_size // 12))
    plan.fallback_shards = chunk(by_kind[None], fallback_shard_size)
    return plan
