"""Build-once loader for the compiled Eq. 16 kernel (``independence.c``).

The C source ships inside the package.  The first import on a machine
compiles it with the system C compiler into a per-user cache
(``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``) under a name that
is a SHA-256 of the source, the flags and the platform tag; later
imports load the cached library with :mod:`ctypes`.  Builds go to a
temporary file in the cache directory and are renamed into place, so
processes that build at the same moment (spawn-pool children, parallel
test runs) each install a complete library and the last rename wins.

The flags keep the kernel's floating point exactly numpy's: no
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

__all__ = ["load_independence_bucket"]

_SOURCE = Path(__file__).with_name("independence.c")
_FLAGS = ("-O3", "-ffp-contract=off", "-std=c99", "-fPIC", "-shared")
_COMPILERS = ("cc", "gcc", "clang")


def _cache_dir() -> Path:
    """The per-user directory compiled kernels are cached in."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro"


def _library_path(source: bytes) -> Path:
    """Where the library built from ``source`` is cached."""
    key = hashlib.sha256()
    for part in (source, " ".join(_FLAGS).encode(), sysconfig.get_platform().encode()):
        key.update(part)
        key.update(b"\0")
    return _cache_dir() / f"independence-{key.hexdigest()[:32]}.so"


def _compile(source: bytes, target: Path) -> None:
    compiler = next(filter(None, map(shutil.which, _COMPILERS)), None)
    if compiler is None:
        raise ImportError(
            "repro builds its Eq. 16 kernel with a C compiler, but none of "
            f"{', '.join(_COMPILERS)} is on PATH"
        )
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f".{target.name}.", dir=target.parent)
    os.close(fd)
    try:
        built = subprocess.run(
            [compiler, *_FLAGS, "-x", "c", "-", "-o", tmp],
            input=source,
            capture_output=True,
        )
        if built.returncode != 0:
            raise ImportError(
                f"{compiler} failed to build {_SOURCE.name}:\n"
                + built.stderr.decode(errors="replace")
            )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_independence_bucket():
    """The C ``independence_bucket`` function, built on first use."""
    source = _SOURCE.read_bytes()
    path = _library_path(source)
    if not path.exists():
        _compile(source, path)
    fn = ctypes.CDLL(str(path)).independence_bucket
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    fn.argtypes = [
        i64, i64,  # n_groups, m
        ptr, ptr,  # claims, slots
        ptr, ptr,  # p_ab, p_ba
        ctypes.c_double, ctypes.c_int, ctypes.c_int,  # r, dependent_first, total_mode
        ptr, ptr, ptr,  # work, order, indep
    ]
    fn.restype = None
    return fn
