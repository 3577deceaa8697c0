"""Deterministic fault injection for the durability test harness.

The crash-safety contract of the streaming tier (DESIGN.md §15) is
pinned by *differential* tests: kill the process at a defined fault
point, recover from the journal, and compare against an uninterrupted
run.  Those tests need crashes that are (a) placed at exact points in
the write path and (b) reproducible run to run — which is what this
module provides and **nothing else**: in production the process-wide
injector is inert (no rules, near-zero cost per ``fire``) unless
``REPRO_FAULTS`` is set, and nothing in the library ever sets it.

A fault *rule* is ``point:action[@nth]`` — fire ``action`` on the
``nth`` time execution passes ``point`` (1-based, default 1).  Rules
are comma-separated in specs::

    REPRO_FAULTS="journal.post_append:crash@3" repro serve ...

Actions:

- ``crash`` — raise :class:`InjectedCrash`.  The exception deliberately
  does **not** derive from :class:`~repro.errors.ReproError`, so the
  HTTP layer treats it like any unexpected death (500), not like a
  client error.
- ``ioerror`` — raise :class:`OSError`, exercising the disk-failure
  degradation paths (the journal maps it to a 503, never a crash).
- ``partial`` — only meaningful at write points that consult
  :meth:`FaultInjector.partial_cut`: the write stops after a seeded
  random prefix of the payload and the process "dies"
  (:class:`InjectedCrash`), leaving a torn record on disk.

Defined fault points (the write path consults these by name):

- ``journal.pre_append`` — before any bytes of a record are written;
- ``journal.mid_append`` — inside the record write (``partial``);
- ``journal.post_append`` — record fsync'd, the estimator's new state
  computed but not yet published;
- ``store.mid_refresh`` — refresh computed and its intent journaled,
  result not yet published.
"""

from __future__ import annotations

import os
import random
import threading
from dataclasses import dataclass

from ..errors import ConfigurationError

__all__ = [
    "FAULT_POINTS",
    "FaultInjector",
    "FaultRule",
    "InjectedCrash",
    "get_injector",
    "set_injector",
]

#: Every fault point the streaming write path consults, in path order.
FAULT_POINTS = (
    "journal.pre_append",
    "journal.mid_append",
    "journal.post_append",
    "store.mid_refresh",
)

_ACTIONS = ("crash", "ioerror", "partial")


class InjectedCrash(RuntimeError):
    """A simulated process death (test-only; see module docstring)."""

    def __init__(self, point: str):
        self.point = point
        super().__init__(f"injected crash at fault point {point!r}")


@dataclass(frozen=True)
class FaultRule:
    """Fire ``action`` on the ``nth`` pass through ``point``."""

    point: str
    action: str
    nth: int = 1

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ConfigurationError(
                f"fault action must be one of {_ACTIONS}, got {self.action!r}"
            )
        if self.nth < 1:
            raise ConfigurationError(
                f"fault rule nth must be >= 1, got {self.nth}"
            )


def _parse_rule(text: str) -> FaultRule:
    head, _, nth = text.partition("@")
    point, sep, action = head.partition(":")
    if not sep or not point or not action:
        raise ConfigurationError(
            f"fault rule must look like 'point:action[@nth]', got {text!r}"
        )
    try:
        n = int(nth) if nth else 1
    except ValueError as exc:
        raise ConfigurationError(
            f"fault rule nth must be an integer, got {nth!r}"
        ) from exc
    return FaultRule(point=point.strip(), action=action.strip(), nth=n)


class FaultInjector:
    """Seeded, counted fault rules behind the defined fault points.

    Thread-safe: hit counters are guarded so concurrent request threads
    agree on which pass is the nth.  An injector with no rules is inert
    — ``fire`` is one empty-dict check.
    """

    def __init__(self, rules: tuple[FaultRule, ...] = (), *, seed: int = 0):
        self._rules: dict[str, list[FaultRule]] = {}
        for rule in rules:
            self._rules.setdefault(rule.point, []).append(rule)
        self._hits: dict[str, int] = {}
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        #: ``(point, action)`` of every rule that fired, in order — the
        #: harness asserts the crash it asked for actually happened.
        self.fired: list[tuple[str, str]] = []

    @classmethod
    def from_spec(cls, spec: str, *, seed: int = 0) -> "FaultInjector":
        """Parse a comma-separated ``point:action[@nth]`` rule list."""
        rules = tuple(
            _parse_rule(part.strip())
            for part in spec.split(",")
            if part.strip()
        )
        return cls(rules, seed=seed)

    @property
    def active(self) -> bool:
        return bool(self._rules)

    def _match(self, point: str, actions: tuple[str, ...]) -> FaultRule | None:
        rules = self._rules.get(point)
        if not rules:
            return None
        with self._lock:
            hit = self._hits.get(point, 0) + 1
            self._hits[point] = hit
            for rule in rules:
                if rule.nth == hit and rule.action in actions:
                    self.fired.append((point, rule.action))
                    return rule
        return None

    def fire(self, point: str) -> None:
        """Raise the configured fault at ``point``, if any is due."""
        rule = self._match(point, ("crash", "ioerror"))
        if rule is None:
            return
        if rule.action == "ioerror":
            raise OSError(f"injected IO error at fault point {point!r}")
        raise InjectedCrash(point)

    def partial_cut(self, point: str, size: int) -> int | None:
        """Bytes of an ``size``-byte write to complete before dying.

        ``None`` means "no partial-write fault due here" — the caller
        writes normally.  A returned cut is a seeded draw from
        ``[1, size)`` so the torn record is never empty (an empty tear
        is indistinguishable from no write) and never complete.
        """
        rule = self._match(point, ("partial",))
        if rule is None:
            return None
        if size <= 1:
            return None
        return self._rng.randrange(1, size)


_INJECTOR: FaultInjector | None = None
_INJECTOR_LOCK = threading.Lock()


def get_injector() -> FaultInjector:
    """The process-wide injector (``REPRO_FAULTS`` seeds it, else inert).

    ``REPRO_FAULTS_SEED`` (default 0) seeds the partial-write RNG.
    """
    global _INJECTOR
    injector = _INJECTOR
    if injector is None:
        with _INJECTOR_LOCK:
            injector = _INJECTOR
            if injector is None:
                spec = os.environ.get("REPRO_FAULTS", "")
                seed = int(os.environ.get("REPRO_FAULTS_SEED", "0") or 0)
                injector = FaultInjector.from_spec(spec, seed=seed)
                _INJECTOR = injector
    return injector


def set_injector(injector: FaultInjector | None) -> FaultInjector | None:
    """Swap the process-wide injector (tests); returns the previous one.

    ``None`` resets to "re-read the environment on next use".
    """
    global _INJECTOR
    with _INJECTOR_LOCK:
        previous = _INJECTOR
        _INJECTOR = injector
    return previous
