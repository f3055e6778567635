"""``perf stat``-style reporting of run measurements.

The paper's toolchain is libpfm/perf_events; presenting results the way
``perf stat`` does keeps the simulated platform familiar to the same
audience. ``format_stat`` renders a RunResult; ``format_comparison``
renders several runs side by side with relative deltas.
"""

from repro.util.errors import ValidationError


def _fmt(value):
    if value >= 1e9:
        return f"{value / 1e9:,.3f} G"
    if value >= 1e6:
        return f"{value / 1e6:,.3f} M"
    return f"{value:,.0f}  "


def format_stat(result, config=None):
    """Render one RunResult like a ``perf stat`` summary block."""
    if result.runtime_s <= 0:
        raise ValidationError("cannot report a zero-length run")
    lines = [f" Performance counter stats for '{result.name}':", ""]
    rows = [
        ("instructions", result.instructions, None),
        ("LLC-loads", result.llc_accesses, None),
        (
            "LLC-load-misses",
            result.llc_misses,
            f"{100 * result.llc_misses / result.llc_accesses:.2f}% of all LLC hits"
            if result.llc_accesses
            else None,
        ),
        ("MPKI", result.mpki, None),
        ("instructions/sec", result.ips, None),
    ]
    if config is not None:
        cycles = result.runtime_s * config.frequency_hz
        ipc = result.instructions / cycles if cycles else 0.0
        rows.insert(1, ("cycles", cycles, f"{ipc:.2f} insn per cycle"))
    for event, value, note in rows:
        annotation = f"   # {note}" if note else ""
        lines.append(f"  {_fmt(value):>14}  {event}{annotation}")
    lines.append("")
    lines.append(f"  {result.socket_energy_j:,.1f} Joules power/energy-pkg/")
    if result.pp0_energy_j:
        lines.append(f"  {result.pp0_energy_j:,.1f} Joules power/energy-cores/")
    lines.append("")
    lines.append(f"  {result.runtime_s:.3f} seconds time elapsed")
    return "\n".join(lines)


def format_engine_stat(counters=None):
    """Render the engine's own counters (memo, occupancy solver).

    The simulator is a measured system too: this is the ``perf stat``
    block for the engine itself. Pass a snapshot dict from
    :func:`repro.perf.engine_counters.engine_counters` (or nothing for
    the live process-wide totals).
    """
    from repro.perf import engine_counters as ec

    if counters is None:
        counters = ec.engine_counters().snapshot()
    hits = counters.get(ec.MEMO_HITS, 0.0)
    misses = counters.get(ec.MEMO_MISSES, 0.0)
    solves = counters.get(ec.OCCUPANCY_SOLVES, 0.0)
    iterations = counters.get(ec.OCCUPANCY_ITERATIONS, 0.0)
    fast = counters.get(ec.OCCUPANCY_FAST_PATH, 0.0)
    trace_accesses = counters.get(ec.TRACE_ACCESSES, 0.0)
    batches = counters.get(ec.KERNEL_BATCHES, 0.0)
    batched = counters.get(ec.KERNEL_BATCHED_ACCESSES, 0.0)
    profiler_passes = counters.get(ec.PROFILER_PASSES, 0.0)
    pack_hits = counters.get(ec.PACK_HITS, 0.0)
    pack_misses = counters.get(ec.PACK_MISSES, 0.0)
    pack_compiled = counters.get(ec.PACK_COMPILED_ACCESSES, 0.0)
    pack_replays = counters.get(ec.PACK_REPLAYS, 0.0)
    python_replays = counters.get(ec.PYTHON_REPLAYS, 0.0)
    materializations = counters.get(ec.LEVEL_MATERIALIZATIONS, 0.0)
    batch_calls = counters.get(ec.BATCH_CALLS, 0.0)
    batch_cells = counters.get(ec.BATCH_CELLS, 0.0)
    dynbatch_calls = counters.get(ec.DYNBATCH_CALLS, 0.0)
    dynbatch_cells = counters.get(ec.DYNBATCH_CELLS, 0.0)
    grid_calls = counters.get(ec.GRID_CALLS, 0.0)
    grid_cells = counters.get(ec.GRID_CELLS, 0.0)
    campaign_shards = counters.get(ec.CAMPAIGN_SHARDS, 0.0)
    campaign_run = counters.get(ec.CAMPAIGN_CELLS_RUN, 0.0)
    campaign_skipped = counters.get(ec.CAMPAIGN_CELLS_SKIPPED, 0.0)
    campaign_retries = counters.get(ec.CAMPAIGN_RETRIES, 0.0)
    campaign_planned = campaign_run + campaign_skipped
    lookups = hits + misses
    pack_lookups = pack_hits + pack_misses
    iterated = solves - fast
    rows = [
        (
            "memo-hits",
            hits,
            f"{100 * hits / lookups:.2f}% of all memo lookups" if lookups else None,
        ),
        ("memo-misses", misses, None),
        (
            "occupancy-solves",
            solves,
            f"{100 * fast / solves:.2f}% closed-form" if solves else None,
        ),
        (
            "occupancy-iterations",
            iterations,
            f"{iterations / iterated:.1f} per iterative solve" if iterated else None,
        ),
        ("trace-accesses", trace_accesses, None),
        (
            "kernel-batches",
            batches,
            f"{batched / batches:,.0f} accesses per batch" if batches else None,
        ),
        ("profiler-passes", profiler_passes, None),
        (
            "pack-hits",
            pack_hits,
            f"{100 * pack_hits / pack_lookups:.2f}% of pack lookups"
            if pack_lookups
            else None,
        ),
        (
            "pack-misses",
            pack_misses,
            f"{pack_compiled:,.0f} accesses compiled" if pack_misses else None,
        ),
        ("pack-replays", pack_replays, None),
        ("python-replays", python_replays, None),
        ("level-materializations", materializations, None),
        (
            "batch-calls",
            batch_calls,
            f"{batch_cells / batch_calls:,.1f} cells per call"
            if batch_calls
            else None,
        ),
        (
            "dynbatch-calls",
            dynbatch_calls,
            f"{dynbatch_cells / dynbatch_calls:,.1f} cells per epoch call"
            if dynbatch_calls
            else None,
        ),
        ("dynbatch-cells", dynbatch_cells, None),
        (
            "grid-calls",
            grid_calls,
            f"{grid_cells / grid_calls:,.1f} cells per call"
            if grid_calls
            else None,
        ),
        ("grid-cells", grid_cells, None),
        (
            "campaign-shards",
            campaign_shards,
            f"{campaign_run / campaign_shards:,.1f} cells per shard"
            if campaign_shards
            else None,
        ),
        ("campaign-cells-run", campaign_run, None),
        (
            "campaign-cells-skipped",
            campaign_skipped,
            f"{100 * campaign_skipped / campaign_planned:.2f}% of planned "
            "cells already stored"
            if campaign_planned
            else None,
        ),
        ("campaign-retries", campaign_retries, None),
    ]
    lines = [" Performance counter stats for 'engine':", ""]
    for event, value, note in rows:
        annotation = f"   # {note}" if note else ""
        lines.append(f"  {_fmt(value):>14}  {event}{annotation}")
    # The native library is part of the measured system: report it as
    # "ok" or the recorded reason it is off (no compiler,
    # REPRO_NATIVE=0, compile failure) so "why is native off?" is
    # answerable from the same block.
    from repro.cache import native

    lines.append("")
    for name, status in native.kernel_status().items():
        lines.append(f"  native-kernel/{name}: {status}")
    threading = native.threading_status()
    detail = f"; {threading['reason']}" if threading["reason"] else ""
    lines.append(f"  native-batch/threading: {threading['mode']}{detail}")
    return "\n".join(lines)


def format_comparison(results, baseline_index=0):
    """Side-by-side comparison of runs against a baseline run."""
    if not results:
        raise ValidationError("nothing to compare")
    if not 0 <= baseline_index < len(results):
        raise ValidationError("baseline index out of range")
    base = results[baseline_index]
    header = f"{'run':<24}{'time (s)':>12}{'vs base':>10}{'MPKI':>10}{'pkg (J)':>12}"
    lines = [header, "-" * len(header)]
    for result in results:
        ratio = result.runtime_s / base.runtime_s
        lines.append(
            f"{result.name:<24}{result.runtime_s:>12.2f}{ratio:>10.3f}"
            f"{result.mpki:>10.2f}{result.socket_energy_j:>12.1f}"
        )
    return "\n".join(lines)
