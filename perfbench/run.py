"""The repo's benchmark: seeded campaign workloads, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload trace-static --seed 1 \\
        --seconds 30 --trace 0

Each run generates its workload's manifest from ``--seed``, then spawns
fresh worker processes that run the real entry point,
``repro.campaign.runner.run_campaign`` on an empty store followed by
``verify_campaign`` on a fixed stride. The work is closed loop with one
caller: a worker runs one campaign after another until ``--seconds``
have passed, and the run reports medians over those repetitions.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (spawn until
ready, median over several processes), ``cells_per_ref_s``,
``check_cells_per_ref_s`` and ``peak_rss_mb``. Times are scaled to a
nominal host speed with a reference unit timed around each phase (see
``reference.py``). ``--trace 1`` prints the
per-layer metrics instead, from spans recorded around each layer's
public functions and from engine-counter deltas, plus the tracing
overhead. The last line of standard output is the JSON result; a full
record with host provenance, kernel status and ``results_sha256`` is
written under ``.perfbench/results/``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import tracing
from worker import SHARD_KINDS, empty_pack_cache

HERE = os.path.dirname(os.path.abspath(__file__))

# Setup-only worker processes per run; the measuring worker's own setup
# is one more sample of setup_s.
SETUP_SAMPLES = 2
# Every worker must end within this many seconds of the run's start.
RUN_BUDGET_S = 170

# Spans reported as `<name>_s` (busy) and `<name>.self_s`: the root
# spans the worker records around each phase, then every wrapped layer.
SPAN_METRICS = ("campaign.run", "campaign.verify") + tracing.SPAN_NAMES
# Layers whose call count is also reported, as `<name>.calls`.
COUNTED_SPANS = (
    "workloads.get_pack",
    "sim.run_packed_roster",
    "sim.run_packed",
    "sim.run_pair",
    "core.controller_tick",
    "analysis.store_write",
)


class BenchError(Exception):
    """A run that cannot produce a result."""


def _ratio(num, den):
    return num / den if den else 0.0


def _check_checkout(root):
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        raise BenchError(
            f"no program source at {os.path.join(root, 'src', 'repro')}; "
            "run from the root of a checkout"
        )


def _environment(root, cache, tmp):
    env = dict(os.environ)
    env.pop("REPRO_NATIVE", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["REPRO_TRACE_CACHE"] = cache
    # One worker (the CLI default) and one native thread: all work stays
    # in the measuring process, where spans and counters see it, and the
    # run is least sensitive to other load on a shared host.
    env["REPRO_WORKERS"] = "1"
    env["REPRO_NATIVE_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["TMPDIR"] = tmp
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_worker(args, env, deadline):
    """Run one worker process to the end.

    Returns its last output line, parsed as JSON, and the seconds from
    spawn until it printed ``ready`` (None if it never did). The worker
    is killed if it is still running at ``deadline``.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    watchdog = threading.Timer(max(deadline - start, 0.0), proc.kill)
    watchdog.start()
    ready_s = last = None
    try:
        for line in proc.stdout:
            line = line.strip()
            if line == "ready" and ready_s is None:
                ready_s = time.perf_counter() - start
            elif line:
                last = line
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or last is None:
        raise BenchError(f"worker {args[0]} exited with code {code}")
    return json.loads(last), ready_s


def _median(values):
    return statistics.median(values) if values else 0.0


def _quantile(values, q):
    """Nearest-rank quantile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))
    return ordered[int(rank) - 1]


def _rates(reps, normalized):
    """Median campaign and check rates over repetitions, in cells/s.

    ``normalized`` scales each rate to the nominal host speed of the
    reference unit timed around the phase (see ``reference.py``).
    """
    from reference import NOMINAL_S

    def scale(ref_s):
        return ref_s / NOMINAL_S if normalized else 1.0

    return (
        _median([r["cells_run"] / r["run_s"] * scale(r["ref_run_s"])
                 for r in reps]),
        _median([r["checked"] / r["check_s"] * scale(r["ref_check_s"])
                 for r in reps]),
    )


def _setup_seconds(samples, normalized):
    """Median spawn-to-ready seconds, optionally at the nominal speed."""
    from reference import NOMINAL_S

    return _median([
        ready_s * (NOMINAL_S / ref_s if normalized else 1.0)
        for ready_s, ref_s in samples
    ])


def end_to_end(measure, setup_samples):
    reps = [r for r in measure["reps"] if not r["traced"]]
    cells, check = _rates(reps, normalized=True)
    return {
        "setup_s": {
            "value": _setup_seconds(setup_samples, normalized=True),
            "unit": "s",
        },
        "cells_per_ref_s": {"value": cells, "unit": "cells/ref-s"},
        "check_cells_per_ref_s": {"value": check, "unit": "cells/ref-s"},
        "peak_rss_mb": {"value": measure["peak_rss_mb"], "unit": "MB"},
    }


_NO_SPANS = (0.0, 0.0, 0, 0)  # layer_times() entry of an unused layer


def _rep_layers(rep):
    """Per-layer metrics of one traced repetition."""
    layers = rep["layers"]
    counters = rep["counters"]
    out = {}
    for name in SPAN_METRICS:
        busy, self_s, calls, _ = layers.get(name, _NO_SPANS)
        out[f"{name}_s"] = busy
        out[f"{name}.self_s"] = self_s
        if name in COUNTED_SPANS:
            out[f"{name}.calls"] = calls
    out["sim.roster_cells"] = layers.get("sim.run_packed_roster", _NO_SPANS)[3]
    batch = layers.get("cache.batch_replay", _NO_SPANS)
    out["cache.batch_maccess_per_s"] = _ratio(batch[3], batch[0]) / 1e6
    hits = counters.get("pack_hits", 0.0)
    misses = counters.get("pack_misses", 0.0)
    out["workloads.pack_compiled_accesses"] = counters.get(
        "pack_compiled_accesses", 0.0
    )
    out["workloads.pack_hit_ratio"] = _ratio(hits, hits + misses)
    out["sim.dynbatch_calls"] = counters.get("dynbatch_calls", 0.0)
    out["sim.dynbatch_cells"] = counters.get("dynbatch_cells", 0.0)
    out["sim.grid_cells"] = counters.get("grid_cells", 0.0)
    memo_hits = counters.get("memo_hits", 0.0)
    out["sim.memo_hit_ratio"] = _ratio(
        memo_hits, memo_hits + counters.get("memo_misses", 0.0)
    )
    out["sim.occupancy_iterations_per_solve"] = _ratio(
        counters.get("occupancy_iterations", 0.0),
        counters.get("occupancy_solves", 0.0),
    )
    for kind in SHARD_KINDS:
        out[f"campaign.shards.{kind}"] = rep["shards"][kind]
    out["campaign.retries"] = rep["retries"]
    shard_times = rep.get("shard_times") or [0.0]
    out["campaign.shard_s.p50"] = _quantile(shard_times, 0.5)
    out["campaign.shard_s.p90"] = _quantile(shard_times, 0.9)
    return out


def per_layer(measure, setups, native_compile_s):
    traced = [r for r in measure["reps"] if r["traced"]]
    untraced = [r for r in measure["reps"] if not r["traced"]]
    per_rep = [_rep_layers(r) for r in traced]
    names = list(per_rep[0])
    values = {name: _median([m[name] for m in per_rep]) for name in names}
    setup_layers = measure["setup"]["layers"]
    values["setup.import_s"] = _median([s["import_s"] for s in setups])
    values["cache.native_load_s"] = _median(
        [s.get("native_load_s", 0.0) for s in setups]
    )
    values["cache.native_compile_s"] = native_compile_s
    values["setup.warmup_s"] = _median([s["warmup_s"] for s in setups])
    values["setup.table_build_s"] = setup_layers.get(
        "cache.table_build", _NO_SPANS
    )[0]
    cps, _ = _rates(untraced, normalized=True)
    cps_traced, _ = _rates(traced, normalized=True)
    values["trace.overhead_ratio"] = _ratio(cps, cps_traced) - 1.0
    values["host.reference_s"] = _median(
        [r["ref_run_s"] for r in measure["reps"]]
    )
    return values


def run(args, root):
    import workloads

    work = os.path.join(root, ".perfbench")
    cache = os.path.join(work, "cache")
    tmp = os.path.join(work, "tmp")
    results = os.path.join(work, "results")
    run_dir = os.path.join(work, f"run-{args.workload}-{os.getpid()}")
    for path in (cache, tmp, results, run_dir):
        os.makedirs(path, exist_ok=True)
    env = _environment(root, cache, tmp)
    deadline = time.perf_counter() + RUN_BUDGET_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        manifest = workloads.manifest_for(args.workload, args.seed)
        manifest_path = os.path.join(run_dir, "manifest.json")
        warmup_path = os.path.join(run_dir, "warmup.json")
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle, indent=1)
        with open(warmup_path, "w") as handle:
            json.dump(workloads.warmup_manifest(manifest), handle, indent=1)
        uses_native = "trace" in manifest["backends"]

        # Warm the native .so cache outside every timed process.
        os.environ.pop("REPRO_NATIVE", None)
        os.environ.update(env)
        from repro.cache import native

        kernels = native.kernel_status()
        from reference import Reference

        reference = Reference()
        common = [
            "--manifest", manifest_path,
            "--warmup", warmup_path,
            "--stride", str(workloads.VERIFY_STRIDE[args.workload]),
            "--native", str(int(uses_native)),
        ]
        # (spawn-to-ready seconds, reference seconds around the spawn)
        setups, setup_samples = [], []
        for i in range(SETUP_SAMPLES):
            ref_before = reference.seconds()
            out, ready_s = _run_worker(
                ["setup", *common, "--store-root",
                 os.path.join(run_dir, f"setup-{i}")],
                env,
                deadline,
            )
            setups.append(out)
            setup_samples.append(
                (ready_s, (ref_before + out["ref_after_s"]) / 2)
            )
        native_compile_s = None
        if args.trace:
            compile_env = dict(env)
            compile_env["REPRO_TRACE_CACHE"] = os.path.join(
                run_dir, "empty-cache"
            )
            out, _ = _run_worker(["native"], compile_env, deadline)
            native_compile_s = out["load_s"]
        ref_before = reference.seconds()
        measure, ready_s = _run_worker(
            ["measure", *common,
             "--store-root", os.path.join(run_dir, "measure"),
             "--seconds", str(args.seconds),
             "--trace", str(args.trace),
             "--spans-out", os.path.join(results, f"{tag}-spans.json")],
            env,
            deadline,
        )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        empty_pack_cache(cache)

    reps = measure["reps"]
    digests = sorted({r["digest"] for r in reps})
    attempted = sum(r["cells"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    correct = (
        failed == 0
        and len(digests) == 1
        and all(r["cells_run"] == r["cells"] for r in reps)
    )
    if args.trace:
        metrics = {
            name: {"value": value, "unit": _unit(name)}
            for name, value in sorted(
                per_layer(measure, setups, native_compile_s).items()
            )
        }
    else:
        setup_samples.append(
            (ready_s, (ref_before + measure["setup"]["ref_after_s"]) / 2)
        )
        metrics = end_to_end(measure, setup_samples)
    unavailable = sorted(
        name for name, status in kernels.items() if not status.startswith("ok")
    )
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "cell_fail_ratio": _ratio(failed, attempted),
        "host_time": {
            "setup_s": _setup_seconds(setup_samples, normalized=False),
            **dict(zip(
                ("cells_per_s", "check_cells_per_s"),
                _rates([r for r in reps if not r["traced"]],
                       normalized=False),
            )),
        },
        "results_sha256": digests[0] if len(digests) == 1 else digests,
        "metrics": metrics,
        "setup_samples_s": setup_samples,
        "reps": [
            {k: v for k, v in r.items() if k not in ("layers", "counters")}
            for r in reps
        ],
        "excluded_trace_kinds": workloads.EXCLUDED_TRACE_KINDS,
        "native_unavailable": unavailable,
        "kernel_status": kernels,
        "host": measure["host"],
        "manifest": manifest,
    }
    with open(os.path.join(results, f"{tag}.json"), "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    return record


def _unit(name):
    if name.endswith(".calls") or name.startswith("campaign.shards."):
        return "count"
    if name.endswith("maccess_per_s"):
        return "Maccess/s"
    if name.endswith("_s") or ".shard_s." in name:
        return "s"
    if name.endswith("ratio") or name.endswith("_per_solve"):
        return "ratio"
    return "count"


def _report(record):
    """Human-readable lines printed before the JSON result line."""
    for kind, reason in sorted(record["excluded_trace_kinds"].items()):
        print(f"excluded trace kind {kind}: {reason}")
    if record["native_unavailable"]:
        print("WARNING: native kernel unavailable: "
              + ", ".join(record["native_unavailable"]))
    print(
        f"{record['workload']} seed {record['seed']}: "
        f"{len(record['reps'])} campaigns of {record['reps'][0]['cells']} "
        f"cells, results_sha256 {record['results_sha256']}"
    )
    metrics = dict(record["metrics"])
    for name, value in record["host_time"].items():
        unit = "s" if name == "setup_s" else "cells/s"
        metrics[f"host_time.{name}"] = {"value": value, "unit": unit}
    metrics["cell_fail_ratio"] = {
        "value": record["cell_fail_ratio"], "unit": "ratio"
    }
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    try:
        _check_checkout(root)
        sys.path.insert(0, os.path.join(root, "src"))
        import workloads

        if args.workload not in workloads.WORKLOADS:
            raise BenchError(
                f"unknown workload {args.workload!r}; valid: "
                + ", ".join(workloads.WORKLOADS)
            )
        record = run(args, root)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    _report(record)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
