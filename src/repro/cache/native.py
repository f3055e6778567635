"""On-demand compilation of the native pack-replay library.

One translation unit, ``batchwalk.c``, is the whole native kernel
family: it ``#include``s ``multiwalk.c`` (the fused N-domain,
epoch-resumable lean replay loop) and adds the batched driver that
advances a roster of independent cells — every cell of a static roster
or way sweep in one call, or the still-active cells of a dynamic roster
one epoch per call — plus the set-sharded UMON profiler. Both files
live next to this module. The library is compiled once per (source
revision, flag set) with whatever ``cc``/``gcc`` the host offers,
cached as a shared object under the trace-pack cache directory, and
loaded with :mod:`ctypes`. Everything is best-effort: no compiler, a
failed compile, or ``REPRO_NATIVE=0`` simply means the ``*_fn``
accessors return ``None`` and callers stay on the pure-Python epoch
driver — results are bit-identical either way, the native kernels are
only faster.

"Best-effort" does not mean "silent": the first failure is recorded
and :func:`kernel_status` reports it, so ``repro trace-sweep
--engine-stat`` (via ``format_engine_stat``) can answer "why is native
off?" without strace archaeology. The same policy covers threading: the
real source is compiled strongest mode first — ``-fopenmp``, then a
pthread worker loop, then the serial batched loop — and the first
diagnostic of every stronger build that failed is stored beside the
object that was kept, so a later process that loads the cached object
(without starting a compiler) still says why. :func:`threading_status`
reads the mode from the loaded object's own ``repro_batch_threading()``.
"""

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile

_ENV_GATE = "REPRO_NATIVE"
_ENV_THREADS = "REPRO_NATIVE_THREADS"
_HERE = os.path.dirname(os.path.abspath(__file__))

# The library's name, its translation unit followed by every source it
# textually #includes (all of them fold into the cache key), and its
# exported symbols.
_LIBRARY = "batchwalk"
_SOURCES = ("batchwalk.c", "multiwalk.c")
_SYMBOLS = (
    "repro_multi_walk",
    "repro_batch_walk",
    "repro_batch_profile",
    "repro_batch_threading",
)

# Threading modes, strongest first: (name, compile flags).
_MODES = (
    ("openmp", ("-fopenmp",)),
    ("pthreads", ("-pthread", "-DREPRO_BATCH_PTHREADS")),
    ("serial", ()),
)
# repro_batch_threading() -> mode name.
_COMPILED_MODES = {2: "openmp", 1: "pthreads", 0: "serial"}

_UNTRIED = object()
# Tri-state per-process memo, like the kernel's table memos:
# _UNTRIED -> not tried, None -> unavailable, else {symbol: function}.
_FNS = _UNTRIED
# Why the library is unavailable, or why the loaded object is not the
# strongest threading mode (None when it is).
_REASON = None

_NO_COMPILER = "no C compiler found ($CC, cc, gcc, clang)"


def enabled():
    """Native kernels are opt-out: ``REPRO_NATIVE=0`` disables them."""
    return os.environ.get(_ENV_GATE, "1").lower() not in ("0", "false", "off")


def _cache_dir():
    root = os.environ.get("REPRO_TRACE_CACHE")
    if not root:
        root = os.path.join(
            os.path.expanduser(os.environ.get("XDG_CACHE_HOME", "~/.cache")),
            "repro",
            "traces",
        )
    return os.path.join(os.path.expanduser(root), "native")


def _compiler():
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


def _compile(cc, flags, target, reason):
    """Compile the library with ``flags`` into ``target``; ``None`` on
    success, else the first diagnostic line.

    ``reason`` (why a stronger mode lost, or ``None``) is written beside
    the object before the object itself appears, so any process that
    finds the object also finds why it is not a stronger one.
    """
    cache = os.path.dirname(target)
    try:
        os.makedirs(cache, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
        os.close(fd)
        proc = subprocess.run(
            [cc, "-O2", "-shared", "-fPIC", *flags, "-o", tmp,
             os.path.join(_HERE, _SOURCES[0])],
            capture_output=True,
            timeout=120,
        )
        if proc.returncode != 0:
            os.unlink(tmp)
            stderr = proc.stderr.decode("utf-8", "replace").strip()
            return stderr.splitlines()[0] if stderr else "no diagnostics"
        if reason:
            fd, note = tempfile.mkstemp(suffix=".reason", dir=cache)
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(reason)
            os.replace(note, target + ".reason")
        os.replace(tmp, target)  # atomic: concurrent builders converge
        return None
    except (OSError, subprocess.SubprocessError) as exc:
        return str(exc)


def _stored_reason(target):
    try:
        with open(target + ".reason", encoding="utf-8") as fh:
            return fh.read().strip() or None
    except OSError:
        return None


def _build_library():
    """Find or compile the library; returns ``(path, reason)``.

    With a path, ``reason`` says why a stronger threading mode lost
    (``None`` when OpenMP won); without one, why the library is
    unavailable. The cache key covers every source byte and the mode's
    flags, so an OpenMP object and a serial object never share a file.
    A cached object is taken strongest mode first without starting any
    compiler; only when none is cached are the modes compiled, strongest
    first, keeping the first that builds.
    """
    hasher = hashlib.sha256()
    for filename in _SOURCES:
        try:
            with open(os.path.join(_HERE, filename), "rb") as fh:
                hasher.update(fh.read())
        except OSError as exc:
            return None, f"source unreadable: {exc}"
    cache = _cache_dir()
    targets = []
    for _, flags in _MODES:
        keyed = hasher.copy()
        for flag in flags:
            keyed.update(flag.encode("utf-8"))
        targets.append(
            os.path.join(cache, f"{_LIBRARY}-{keyed.hexdigest()[:16]}.so")
        )
    for target in targets:
        if os.path.exists(target):
            return target, _stored_reason(target)
    cc = _compiler()
    if cc is None:
        return None, _NO_COMPILER
    failures = []
    for (mode, flags), target in zip(_MODES, targets):
        reason = "; ".join(failures) or None
        failure = _compile(cc, flags, target, reason)
        if failure is None:
            return target, reason
        failures.append(f"{mode} build failed: {failure}")
    return None, "; ".join(failures)


def _load():
    """Tri-state load of the library; records the reason once."""
    global _FNS, _REASON
    if _FNS is not _UNTRIED:
        return _FNS
    fns = None
    if not enabled():
        reason = f"disabled ({_ENV_GATE}={os.environ.get(_ENV_GATE)!r})"
    else:
        path, reason = _build_library()
        if path is not None:
            try:
                lib = ctypes.CDLL(path)
                fns = {}
                for symbol in _SYMBOLS:
                    fn = getattr(lib, symbol)
                    fn.restype = ctypes.c_int64
                    fns[symbol] = fn
            except (OSError, AttributeError) as exc:
                fns = None
                reason = f"load failed: {exc}"
    _FNS, _REASON = fns, reason
    return fns


def _symbol(symbol):
    fns = _load()
    return None if fns is None else fns[symbol]


def multi_walk_fn():
    """The compiled ``repro_multi_walk`` entry point, or ``None``.

    See multiwalk.c for the argument list and the persistent
    ``cfg``/``dom``/``sched`` buffer layouts; the Python owner of those
    buffers is :func:`repro.cache.kernel.build_native_epoch_replay`.
    """
    return _symbol("repro_multi_walk")


def batch_walk_fn():
    """The compiled ``repro_batch_walk`` entry point, or ``None``.

    One call advances the cells named by its ``active`` index list, each
    to its own per-cell ``cfg[CFG_STOP]`` target, against contiguous
    per-cell state banks that persist between calls; see batchwalk.c
    for the ``bcfg`` layout and
    :func:`repro.cache.kernel.build_native_batch_replay` for the Python
    owner of the banks.
    """
    return _symbol("repro_batch_walk")


def batch_profile_fn():
    """The compiled ``repro_batch_profile`` entry point, or ``None``.

    Set-sharded UMON stack-distance profiling over pack columns; the
    Python caller is :func:`repro.cache.profile_np.profile_pack`.
    """
    return _symbol("repro_batch_profile")


def threading_status():
    """``{"mode": ..., "reason": ...}`` for the batched driver's threading.

    ``mode`` is ``"openmp"``, ``"pthreads"`` or ``"serial"``, read from
    the loaded object's own ``repro_batch_threading()``, so the answer
    describes the code that will run, not the flags that were
    requested. ``reason`` explains any fallback (``None`` when OpenMP
    won cleanly); when the library is unavailable the mode is
    ``"serial"`` and ``reason`` says why.
    """
    fns = _load()
    if fns is None:
        return {"mode": "serial", "reason": _REASON}
    compiled = int(fns["repro_batch_threading"]())
    return {
        "mode": _COMPILED_MODES.get(compiled, "unknown"),
        "reason": _REASON,
    }


def resolve_native_threads(allocations, threads=None):
    """Worker-thread count for one batched native call.

    Mirrors :func:`repro.exec.pool.resolve_workers`: an explicit
    ``threads`` argument wins, else ``REPRO_NATIVE_THREADS`` (whitespace
    counts as unset), else ``min(usable CPUs, allocations)`` — a batch
    of R cells never needs more than R threads.
    """
    from repro.exec.pool import usable_cpus
    from repro.util.errors import ValidationError

    if threads is None:
        env = os.environ.get(_ENV_THREADS, "").strip()
        if env:
            try:
                threads = int(env)
            except ValueError:
                raise ValidationError(
                    f"{_ENV_THREADS} must be an integer, got {env!r}"
                ) from None
        else:
            threads = min(usable_cpus(), max(1, allocations))
    if threads < 1:
        raise ValidationError("native threads must be >= 1")
    return threads


def kernel_status():
    """``{library: "ok [mode]" | reason}`` for the native library.

    Forces a load attempt when none was made yet, so the answer is
    definitive — this backs the ``native-kernel`` line in
    ``format_engine_stat`` / ``repro trace-sweep --engine-stat``. The
    "ok" carries the threading mode and the build failure that forced a
    fallback, e.g. ``ok [openmp]`` or ``ok [serial; openmp build
    failed: ...]``.
    """
    if _load() is None:
        return {_LIBRARY: _REASON}
    threading = threading_status()
    detail = f"; {threading['reason']}" if threading["reason"] else ""
    return {_LIBRARY: f"ok [{threading['mode']}{detail}]"}


def reset():
    """Forget the memoized library (tests toggle REPRO_NATIVE)."""
    global _FNS, _REASON
    _FNS = _UNTRIED
    _REASON = None
