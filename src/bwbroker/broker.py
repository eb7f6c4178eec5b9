"""Demand history and the reservation arithmetic of the bandwidth broker.

The broker watches the IPTV demand the cell has seen recently and
reserves the windowed mean, capped by a configured ceiling, for the next
step.  When the reservation exceeds what is currently left over after
non-IPTV traffic, the difference is borrowed back from the non-IPTV
share.
"""

from __future__ import annotations

from collections import deque

from .model import ScenarioConfig


class DemandHistory:
    """Ring buffer of the most recent IPTV demand samples.

    Samples record offered demand (full per-channel rate times on-air
    channels), not what was granted; recording grants would make the
    reservation feed on its own throttling.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("history capacity must be at least 1")
        self._window: deque[float] = deque(maxlen=capacity)

    @classmethod
    def for_config(cls, config: ScenarioConfig) -> "DemandHistory":
        return cls(config.history_samples)

    @property
    def capacity(self) -> int:
        return self._window.maxlen  # type: ignore[return-value]

    @property
    def samples(self) -> tuple[float, ...]:
        """Window contents, oldest first."""
        return tuple(self._window)

    def __len__(self) -> int:
        return len(self._window)

    def record_sample(self, demand_mbps: float) -> None:
        """Append one demand sample, evicting the oldest on overflow."""
        if demand_mbps < 0:
            raise ValueError("demand must be non-negative")
        self._window.append(demand_mbps)


def compute_reservation(history: DemandHistory, cap_mbps: float) -> float:
    """Windowed mean of recent demand, capped by the reservation ceiling.

    While the window is still filling up the mean is over the samples
    seen so far; an empty window reserves nothing, so a cold start
    degrades to plain leftover allocation.
    """
    window = history._window
    if not window:
        return 0.0
    return min(sum(window) / len(window), cap_mbps)


def compute_borrowing(reserved_mbps: float, available_mbps: float) -> float:
    """Bandwidth the reservation takes back from the non-IPTV share.

    Zero whenever the leftover already covers the reservation.
    """
    shortfall = reserved_mbps - available_mbps
    return shortfall if shortfall > 0.0 else 0.0
