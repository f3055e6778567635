"""Host provenance for benchmark artifacts.

A perf number without its host context is unreviewable: the batch
speedup depends on CPU count, the native gate, and the thread knobs.
``host_provenance`` captures the execution environment in plain data so
every perfbench result record says where its numbers came from —
including every ``REPRO_NATIVE*`` variable, the native library's
compile/disable status and threading mode, and the *resolved*
worker/thread counts those knobs produce on this host, so "why was
native off on that run?" and "how parallel was it actually?" are
answerable from the artifact alone even when no ``REPRO_*`` variable
was set.
"""

import os
import platform


def host_provenance():
    """A JSON-ready description of the measuring host."""
    from repro.cache import native
    from repro.exec.pool import resolve_workers, usable_cpus

    env = {
        key: value
        for key, value in sorted(os.environ.items())
        if key.startswith("REPRO_NATIVE") or key == "REPRO_WORKERS"
    }
    threading = native.threading_status()
    cpus = usable_cpus()
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "usable_cpus": cpus,
        "native_enabled": native.enabled(),
        "threading_mode": threading["mode"],
        "threading_reason": threading["reason"],
        "kernel_status": dict(native.kernel_status()),
        # The *resolved* knobs, not just the raw env (which serializes
        # as {} when nothing is set): what a pool or a batched native
        # call sized at this moment would actually use.
        "resolved_workers": resolve_workers(None),
        "resolved_native_threads": native.resolve_native_threads(cpus),
        "env": env,
    }


__all__ = ["host_provenance"]
