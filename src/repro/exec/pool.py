"""An ordered, chunked process-pool map with a serial fallback.

The contract is strict determinism: ``parallel_map(fn, items)`` returns
``[fn(item) for item in items]`` — same values, same order — no matter
how many workers run or how the pool schedules chunks. Workers receive
work through pickling, so ``fn`` must be a module-level function and the
items picklable; anything else falls back to the serial path rather than
failing the experiment.
"""

import os

from repro.util.errors import ValidationError

_ENV_WORKERS = "REPRO_WORKERS"


class _TaskCall:
    """``fn`` run in a worker, its outcome returned as ``(ok, value)``.

    A task's own exception travels back as a value, so the parent can
    re-raise it once instead of mistaking it for a pool failure.
    """

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, item):
        try:
            return True, self.fn(item)
        except Exception as exc:
            return False, exc


def resolve_workers(workers=None):
    """Turn a worker request into a concrete positive count.

    ``None`` defers to the ``REPRO_WORKERS`` environment variable and
    finally to 1 (serial) — experiments stay serial unless a caller or
    the environment opts in.
    """
    if workers is None:
        env = os.environ.get(_ENV_WORKERS, "").strip()
        if env:
            try:
                workers = int(env)
            except ValueError:
                # The ValueError's traceback adds nothing the message
                # doesn't already say; keep the validation error clean.
                raise ValidationError(
                    f"{_ENV_WORKERS} must be an integer, got {env!r}"
                ) from None
        else:
            workers = 1
    workers = int(workers)
    if workers < 1:
        raise ValidationError("workers must be >= 1")
    return workers


def _usable_cpus():
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1)


def usable_cpus():
    """CPUs this process may actually run on (affinity-aware).

    The default sizing input for both process pools and the native batch
    kernel's in-C thread count (``repro.cache.native``).
    """
    return _usable_cpus()


def _serial_map(fn, items, initializer, initargs):
    if initializer is not None:
        initializer(*initargs)
    return [fn(item) for item in items]


def persisted_pack_paths(packs):
    """On-disk directories of the already-persisted packs.

    Memory-only packs (``pack.path is None``) are skipped — a worker
    that needs one recompiles it locally, which keeps the fan-out
    correct at the cost of that one pack's compile time. The result
    feeds ``parallel_map(..., pack_paths=...)`` so N-domain sweeps ship
    paths to workers, never arrays.
    """
    return tuple(p.path for p in packs if getattr(p, "path", None))


def pack_initializer(pack_paths, initializer=None, initargs=()):
    """Compose a worker initializer that pre-opens compiled trace packs.

    ``pack_paths`` are on-disk pack directories (strings — cheap to
    pickle); each worker memmaps them into its process-local pack memo
    on startup, so tasks that replay the same traces share the cached
    files zero-copy instead of shipping or regenerating arrays. Any
    wrapped ``initializer`` runs after the preload. Returns
    ``(initializer, initargs)`` ready for :func:`parallel_map`.
    """
    paths = tuple(str(p) for p in pack_paths)
    return _preload_then_init, (paths, initializer, initargs)


def _preload_then_init(paths, initializer, initargs):
    from repro.workloads.tracepack import preload_packs

    preload_packs(paths)
    if initializer is not None:
        initializer(*initargs)


def parallel_map(
    fn,
    items,
    workers=None,
    initializer=None,
    initargs=(),
    chunksize=None,
    cap_to_cpus=True,
    pack_paths=None,
):
    """Map ``fn`` over ``items``, optionally on a process pool.

    Results come back in input order. ``workers=1`` (the default) runs
    serially in-process — including the initializer, so the two paths
    exercise identical code. Simulation work is CPU-bound, so the pool
    never oversubscribes: requested workers are capped at the cores the
    process may actually use (``cap_to_cpus=False`` disables this, for
    tests that must exercise the pool machinery regardless of host).
    If the pool cannot be created or fails mid-flight (sandboxes without
    fork, unpicklable work, a crashed worker), the whole map re-runs
    serially: parallelism is a wall-clock optimization, never a
    correctness dependency. An exception raised by ``fn`` itself is not
    a pool failure: it propagates once, exactly as on the serial path.
    """
    if pack_paths:
        initializer, initargs = pack_initializer(
            pack_paths, initializer, initargs
        )
    items = list(items)
    workers = resolve_workers(workers)
    if cap_to_cpus:
        workers = min(workers, _usable_cpus())
    if workers == 1 or len(items) <= 1:
        return _serial_map(fn, items, initializer, initargs)

    workers = min(workers, len(items))
    if chunksize is None:
        chunksize = max(1, len(items) // (workers * 4))
    import concurrent.futures
    import multiprocessing
    import pickle
    from concurrent.futures.process import BrokenProcessPool

    # What a pool can fail with: no fork or semaphores (OSError), a dead
    # worker or failed initializer (BrokenProcessPool), and unpicklable
    # work, which pickle reports as PicklingError, AttributeError
    # ("Can't pickle local object") or TypeError ("cannot pickle ...").
    # Task exceptions never land here: _TaskCall returns them as values.
    pool_failures = (
        OSError, BrokenProcessPool, pickle.PicklingError, AttributeError,
        TypeError,
    )
    try:
        context = multiprocessing.get_context("fork")
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers,
            mp_context=context,
            initializer=initializer,
            initargs=initargs,
        ) as executor:
            outcomes = list(
                executor.map(_TaskCall(fn), items, chunksize=chunksize)
            )
    except pool_failures:
        return _serial_map(fn, items, initializer, initargs)
    for ok, value in outcomes:
        if not ok:
            raise value
    return [value for _, value in outcomes]
