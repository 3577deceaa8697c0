"""Build-once loader for the compiled DATE kernels.

Three C sources ship inside the package: ``pairtables.c`` (the walk
that builds the co-answering pair tables and the Eq. 16 slot map),
``dependence.c`` (the Eqs. 7-13 pair-row scorer and its per-pair sums)
and ``independence.c`` (the Eq. 16 greedy).  The first import on a
machine compiles all three into one shared library with the system C
compiler, cached per user (``$XDG_CACHE_HOME/repro``, else
``~/.cache/repro``) under a name that is a SHA-256 of the sources,
the flags and the platform tag; later imports load the cached library
with :mod:`ctypes`.  Builds go to a temporary file in the cache
directory and are renamed into place, so processes that build at the
same moment (spawn-pool children, parallel test runs) each install a
complete library and the last rename wins.  A cached file that does
not load (truncated, or built by a foreign toolchain) is rebuilt once
in its place.

The flags keep the kernels' floating point exactly numpy's: no
contraction into fused multiply-adds, no fast-math, no ``-march``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sysconfig
import tempfile
from pathlib import Path

__all__ = ["load_kernels"]

_SOURCES = tuple(
    Path(__file__).with_name(name) for name in ("pairtables.c", "dependence.c", "independence.c")
)
_FLAGS = ("-O3", "-ffp-contract=off", "-std=c99", "-fPIC", "-shared")
_COMPILERS = ("cc", "gcc", "clang")

_i64, _ptr, _f64 = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
#: ``name -> argtypes`` of every exported kernel (all return void).
_SIGNATURES = {
    "score_pair_rows": [
        _i64, _ptr,  # n, rows
        _ptr, _ptr, _ptr,  # ps_claim_a, ps_claim_b, ps_task
        _ptr, _ptr,  # claim_code, claim_acc
        _ptr, _ptr,  # truth_codes, collision
        _f64, _f64, _f64,  # lo, hi, r
        _ptr, _ptr, _ptr,  # out_ind, out_ab, out_ba
    ],
    "pair_sums": [
        _i64, _ptr, _ptr, _i64,  # n, pairs, pair_ptr, row0
        _ptr, _ptr, _ptr,  # row_ind, row_ab, row_ba
        _ptr, _ptr, _ptr,  # sum_ind, sum_ab, sum_ba
    ],
    "pair_tables": [
        _i64, _i64,  # n_workers, n_tasks
        _ptr, _ptr, _ptr,  # task_ptr, worker_ptr, worker_claims
        _ptr, _ptr, _ptr,  # claim_task, claim_worker, claim_group
        _ptr, _ptr, _ptr, _i64,  # group_ptr, group_size, block, n_pairs
        _ptr, _ptr, _ptr,  # fill, last, by_task
        _ptr, _ptr,  # row_at, pair_at
        _ptr, _ptr, _ptr,  # pair_a, pair_b, pair_ptr
        _ptr, _ptr, _ptr, _ptr, _ptr,  # ps_pair, ps_task, ps_claim_a/b, slots
    ],
    "independence_buckets": [
        _i64, _ptr, _ptr,  # n_buckets, ms, n_groups
        _ptr, _ptr,  # claims, slots (one pointer per bucket)
        _ptr, _ptr,  # p_ab, p_ba
        _f64, ctypes.c_int, ctypes.c_int,  # r, dependent_first, total_mode
        _ptr, _ptr, _ptr,  # work, order, indep
    ],
}


def _cache_dir() -> Path:
    """The per-user directory compiled kernels are cached in."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro"


def _library_path() -> Path:
    """Where the library built from the current sources is cached."""
    key = hashlib.sha256()
    parts = [path.read_bytes() for path in _SOURCES]
    parts += [" ".join(_FLAGS).encode(), sysconfig.get_platform().encode()]
    for part in parts:
        key.update(part)
        key.update(b"\0")
    return _cache_dir() / f"kernels-{key.hexdigest()[:32]}.so"


def _compile(target: Path) -> None:
    compiler = next(filter(None, map(shutil.which, _COMPILERS)), None)
    if compiler is None:
        raise ImportError(
            "repro builds its DATE kernels (Eqs. 7-13 and 16) with a C "
            f"compiler, but none of {', '.join(_COMPILERS)} is on PATH"
        )
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f".{target.name}.", dir=target.parent)
    os.close(fd)
    try:
        built = subprocess.run(
            [compiler, *_FLAGS, *map(str, _SOURCES), "-o", tmp],
            capture_output=True,
        )
        if built.returncode != 0:
            raise ImportError(
                f"{compiler} failed to build {', '.join(p.name for p in _SOURCES)}:\n"
                + built.stderr.decode(errors="replace")
            )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_kernels() -> ctypes.CDLL:
    """The compiled kernel library, built on first use.

    A cached library that ``dlopen`` refuses is replaced by a fresh
    build once; a fresh build that still does not load raises.
    """
    path = _library_path()
    if not path.exists():
        _compile(path)
    try:
        library = ctypes.CDLL(str(path))
    except OSError:
        _compile(path)
        library = ctypes.CDLL(str(path))
    for name, argtypes in _SIGNATURES.items():
        fn = getattr(library, name)
        fn.argtypes = argtypes
        fn.restype = None
    return library
