"""The compiled-kernel loader: one library, rebuilt once when it will not load."""

from __future__ import annotations

import ctypes

import numpy as np
import pytest

from repro.core import native


def _usable(library: ctypes.CDLL) -> bool:
    """Call one exported kernel: sum two one-row pairs."""
    pair_ptr = np.array([0, 1, 2], dtype=np.int32)
    rows = [np.array([1.5, -2.0]) for _ in range(3)]
    sums = [np.zeros(2) for _ in range(3)]
    library.pair_sums(
        2, None, pair_ptr.ctypes.data, 0,
        *(a.ctypes.data for a in rows), *(a.ctypes.data for a in sums),
    )
    return all(s.tolist() == [1.5, -2.0] for s in sums)


@pytest.mark.parametrize("damage", ["garbage", "empty", "header_only"])
def test_unloadable_cached_library_is_rebuilt_once(tmp_path, monkeypatch, damage):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    path = native._library_path()
    assert path.parent == tmp_path / "repro"
    if damage == "header_only":
        # The first 64 bytes of a real build (made elsewhere: truncating
        # a library this process has mapped would fault): an ELF header
        # whose segments are missing.
        native._compile(tmp_path / "whole.so")
        damaged = (tmp_path / "whole.so").read_bytes()[:64]
    else:
        damaged = b"" if damage == "empty" else b"not a shared library\n" * 8
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(damaged)

    calls = []
    compile_ = native._compile

    def counted_compile(target):
        calls.append(target)
        compile_(target)

    monkeypatch.setattr(native, "_compile", counted_compile)
    assert _usable(native.load_kernels())
    assert calls == [path]
    assert path.read_bytes() != damaged
    # The repaired library is loaded as is from then on; no temp is left.
    assert _usable(native.load_kernels())
    assert calls == [path]
    assert [p.name for p in path.parent.iterdir()] == [path.name]


def test_a_rebuild_that_still_fails_to_load_raises(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    path = native._library_path()
    path.parent.mkdir(parents=True)
    path.write_bytes(b"garbage")
    monkeypatch.setattr(native, "_compile", lambda target: target.write_bytes(b"garbage"))
    with pytest.raises(OSError):
        native.load_kernels()


def test_one_library_keyed_by_every_source(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    first = native._library_path()
    assert first.name.startswith("kernels-") and first.suffix == ".so"
    assert {p.name for p in native._SOURCES} == {
        "pairtables.c", "dependence.c", "independence.c", "argmax.c"
    }
    # Editing any source names a different library.
    original = native._SOURCES
    for k, source in enumerate(original):
        edited = tmp_path / source.name
        edited.write_bytes(source.read_bytes() + b"\n/* edited */\n")
        monkeypatch.setattr(native, "_SOURCES", original[:k] + (edited,) + original[k + 1 :])
        assert native._library_path() != first
