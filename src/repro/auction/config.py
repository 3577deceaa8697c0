"""Configuration for the reverse-auction stage (Alg. 2 knobs).

:class:`AuctionConfig` mirrors :class:`~repro.core.config.DateConfig`
for the auction stage: the paper's one mechanism parameter
(``monopoly_payment_factor``, DESIGN.md §4), validated eagerly so a bad
sweep fails before any auction time is spent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any

from ..errors import ConfigurationError

__all__ = ["AuctionConfig"]


@dataclass(frozen=True)
class AuctionConfig:
    """Knobs of the reverse auction.

    Parameters
    ----------
    monopoly_payment_factor:
        Payment multiplier for *monopolist* winners — workers without
        whom the requirements cannot be covered, whose critical value
        is unbounded (DESIGN.md §4).  Must be finite and >= 1 so a
        winner is never paid below its bid, nor an infinite payment.
    """

    monopoly_payment_factor: float = 1.0

    def __post_init__(self) -> None:
        # Written so NaN fails too: every comparison with it is False.
        if not 1.0 <= self.monopoly_payment_factor < math.inf:
            raise ConfigurationError(
                "monopoly_payment_factor must be finite and >= 1 (a winner "
                "must never be paid below its bid), got "
                f"{self.monopoly_payment_factor!r}"
            )

    def evolve(self, **changes: Any) -> "AuctionConfig":
        """Return a copy with ``changes`` applied (re-validated)."""
        return replace(self, **changes)
