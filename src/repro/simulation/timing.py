"""Wall-clock timing helper for the running-time experiments (Figs. 5, 7)."""

from __future__ import annotations

import time
from collections.abc import Callable
from typing import Any, TypeVar

__all__ = ["timed"]

T = TypeVar("T")


def timed(fn: Callable[..., T], *args: Any, **kwargs: Any) -> tuple[T, float]:
    """Call ``fn`` and return ``(result, elapsed_seconds)``."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start
