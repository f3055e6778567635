"""One benchmark process: set up like a CLI process, then measure.

Run by ``run.py`` with the benchmark's environment (``PYTHONPATH=src``,
a benchmark-owned ``REPRO_TRACE_CACHE``, explicit worker and thread
counts). Modes:

``native``   load every native kernel; prints the load time and
             ``kernel_status()`` (against an empty cache this is the
             native compile time).
``setup``    import, load kernels, run and verify the warm-up campaign,
             print ``ready`` and the setup layer times, exit.
``measure``  the same set-up, then repeat the timed campaign for the
             given seconds; prints one JSON result line.

Every repetition starts from an empty store and an empty trace-pack
cache, so each timed campaign compiles the packs its geometries need.
"""

import argparse
import contextlib
import gc
import hashlib
import json
import os
import resource
import shutil
import sys
import time

# The CampaignResult shard counters, `<kind>_shards`.
SHARD_KINDS = ("roster", "grid", "sweep", "dynamic", "cluster", "fallback")


def _emit(payload):
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _load_native():
    start = time.perf_counter()
    from repro.cache import native

    status = native.kernel_status()
    return time.perf_counter() - start, status


def empty_pack_cache(cache):
    """Delete every trace pack under ``cache``; keep the native .so files."""
    for entry in os.listdir(cache):
        if entry != "native":
            path = os.path.join(cache, entry)
            if os.path.isdir(path):
                shutil.rmtree(path)
            else:
                os.unlink(path)


def _clear_packs():
    """Empty the pack cache on disk and in process."""
    from repro.workloads import tracepack

    empty_pack_cache(os.environ["REPRO_TRACE_CACHE"])
    # The per-process pack registry would otherwise serve the previous
    # repetition's packs from memory (the test suite resets it the same way).
    tracepack._OPEN_PACKS.clear()


def results_digest(records):
    """sha256 over the canonical stored records, without provenance.

    Provenance carries cell ids, attempt counts and sources; everything
    else in a record is a simulated statistic or its identity, so equal
    digests mean every simulated result is unchanged.
    """
    rows = []
    for record in records:
        data = record.to_dict()
        data.pop("provenance", None)
        rows.append(json.dumps(data, sort_keys=True))
    return hashlib.sha256("\n".join(sorted(rows)).encode()).hexdigest()


def _count_mismatches(manifest, store, sample, stored):
    """Per-cell recheck, used only after ``verify_campaign`` raised.

    Cells missing from the store are already counted as missing, so only
    stored cells are rechecked here.
    """
    from repro.campaign.runner import verify_campaign
    from repro.util.errors import ValidationError

    bad = 0
    for cell in sample:
        if cell.cell_id not in stored:
            continue
        try:
            verify_campaign(manifest, store, cells=[cell])
        except ValidationError as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            bad += 1
    return bad


class Campaign:
    """The manifest under test and the reference checks around it."""

    def __init__(self, manifest_path, store_root, stride, reference=None):
        from repro.campaign.manifest import expand_manifest, load_manifest

        self.reference = reference
        self.manifest = load_manifest(manifest_path)
        self.cells = expand_manifest(self.manifest)
        self.sample = self.cells[::stride]
        self.store_root = store_root
        self.reps = 0

    def run_once(self, tracer=None):
        """One timed campaign plus its check; returns a rep record."""
        from repro.analysis.store import load_runset_dir
        from repro.campaign.runner import run_campaign, verify_campaign
        from repro.perf.engine_counters import engine_counters
        from repro.util.errors import ReproError

        store = os.path.join(self.store_root, f"rep-{self.reps}")
        self.reps += 1
        _clear_packs()
        gc.collect()
        before = engine_counters().snapshot()
        span = tracer.span if tracer is not None else _untraced
        ref = [self._reference()]
        error = None
        start = time.perf_counter()
        try:
            with span("campaign.run"):
                result = run_campaign(self.manifest, store)
        except ReproError as exc:
            result = None
            error = repr(exc)
        run_s = time.perf_counter() - start

        wanted = {cell.cell_id for cell in self.cells}
        records = []
        if os.path.isdir(store) and os.listdir(store):
            records = [
                r for r in load_runset_dir(store).records
                if r.provenance.get("cell_id") in wanted
            ]
        stored = {r.provenance["cell_id"] for r in records}
        missing = len(wanted - stored)

        gc.collect()
        ref.append(self._reference())
        start = time.perf_counter()
        try:
            with span("campaign.verify"):
                checked = verify_campaign(
                    self.manifest, store, cells=self.sample
                )
            mismatches = 0
        except ReproError:
            checked = len(self.sample)
            mismatches = _count_mismatches(
                self.manifest, store, self.sample, stored
            )
        check_s = time.perf_counter() - start
        ref.append(self._reference())
        if error:
            print(f"campaign failed: {error}", file=sys.stderr)
        return {
            "cells": len(self.cells),
            "cells_run": result.cells_run if result else 0,
            "run_s": run_s,
            "checked": checked,
            "check_s": check_s,
            "ref_run_s": (ref[0] + ref[1]) / 2,
            "ref_check_s": (ref[1] + ref[2]) / 2,
            "failed": missing + mismatches,
            "digest": results_digest(records),
            "retries": result.retries if result else 0,
            "shards": {
                kind: getattr(result, f"{kind}_shards") if result else 0
                for kind in SHARD_KINDS
            },
            "counters": engine_counters().delta(before),
        }

    def _reference(self):
        return self.reference.seconds() if self.reference else 0.0


def _untraced(name):
    return contextlib.nullcontext()


def _setup(args, tracer=None):
    """Import, load kernels, warm up; returns the setup layer times.

    After ``ready`` it times the reference unit once, so the parent can
    scale the spawn-to-ready time by the host speed around it. Returns
    the times and the reference.
    """
    times = {}
    start = time.perf_counter()
    import repro.cli  # noqa: F401  (what every CLI process imports)

    times["import_s"] = time.perf_counter() - start
    if args.native:
        times["native_load_s"], _ = _load_native()
    start = time.perf_counter()
    warm = Campaign(args.warmup, os.path.join(args.store_root, "warmup"), 1)
    with tracer.recording("setup") if tracer else contextlib.nullcontext():
        warm.run_once(tracer)
    times["warmup_s"] = time.perf_counter() - start
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    from reference import Reference

    reference = Reference()
    times["ref_after_s"] = reference.seconds()
    return times, reference


def _measure(args):
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    setup, reference = _setup(args, tracer)
    campaign = Campaign(
        args.manifest, os.path.join(args.store_root, "timed"), args.stride,
        reference=reference,
    )
    reps = []
    deadline = time.perf_counter() + args.seconds
    # Traced runs alternate untraced and traced repetitions, so the
    # tracing overhead is measured on the same process and inputs.
    min_reps = 4 if args.trace else 3
    while len(reps) < min_reps or time.perf_counter() < deadline:
        traced = bool(args.trace) and len(reps) % 2 == 1
        if traced:
            with tracer.recording(len(reps)):
                rep = campaign.run_once(tracer)
        else:
            rep = campaign.run_once()
        rep["traced"] = traced
        reps.append(rep)
    if tracer is not None:
        for i, rep in enumerate(reps):
            if rep["traced"]:
                rep["layers"] = tracing.layer_times(tracer.spans, i)
                rep["shard_times"] = tracing.shard_times(tracer.spans, i)
        setup["layers"] = tracing.layer_times(tracer.spans, "setup")
        tracer.dump(args.spans_out)

    from repro.perf.host import host_provenance

    provenance = host_provenance()
    _emit({
        "setup": setup,
        "reps": reps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "host": provenance,
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("native", "setup", "measure"))
    parser.add_argument("--manifest")
    parser.add_argument("--warmup")
    parser.add_argument("--store-root")
    parser.add_argument("--stride", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--native", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)
    if args.mode == "native":
        import repro  # noqa: F401

        load_s, status = _load_native()
        _emit({"load_s": load_s, "kernel_status": status})
    elif args.mode == "setup":
        _emit(_setup(args)[0])
    else:
        _measure(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
