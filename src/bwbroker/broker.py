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
    """Ring buffer of the most recent on-air channel counts.

    A sample is one step's offered IPTV demand: the full per-channel rate
    times the channels on air, not what was granted; recording grants
    would make the reservation feed on its own throttling.  Only the
    integer count is kept, with a running total of the window, so the
    windowed mean is exact and takes one division.
    """

    def __init__(self, capacity: int, channel_demand_mbps: float):
        if capacity < 1:
            raise ValueError("history capacity must be at least 1")
        self._window: deque[int] = deque(maxlen=capacity)
        self._total = 0
        self._channel_demand_mbps = channel_demand_mbps

    @classmethod
    def for_config(cls, config: ScenarioConfig) -> "DemandHistory":
        return cls(config.history_samples, config.iptv_channel_max_bw_mbps)

    def record_sample(self, channels: int) -> None:
        """Append one step's on-air channel count, evicting the oldest on overflow."""
        if channels < 0:
            raise ValueError("channel count must be non-negative")
        window = self._window
        if len(window) == window.maxlen:
            self._total -= window[0]
        window.append(channels)
        self._total += channels


def compute_reservation(history: DemandHistory, cap_mbps: float) -> float:
    """Windowed mean of recent demand, capped by the reservation ceiling.

    While the window is still filling up the mean is over the samples
    seen so far; an empty window reserves nothing, so a cold start
    degrades to plain leftover allocation.
    """
    n = len(history._window)
    if not n:
        return 0.0
    mean = history._channel_demand_mbps * history._total / n
    return cap_mbps if cap_mbps < mean else mean


def compute_borrowing(reserved_mbps: float, available_mbps: float) -> float:
    """Bandwidth the reservation takes back from the non-IPTV share.

    Zero whenever the leftover already covers the reservation.
    """
    shortfall = reserved_mbps - available_mbps
    return shortfall if shortfall > 0.0 else 0.0
