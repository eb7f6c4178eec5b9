"""The reservation arithmetic of the bandwidth broker.

The broker watches the IPTV demand the cell has seen recently and
reserves the windowed mean, capped by a configured ceiling, for the next
step.  The demand is kept as prefix sums of a play's offered channel
counts: one step's offered IPTV demand is the full per-channel rate times
the channels on air, not what was granted; recording grants would make the
reservation feed on its own throttling.  Borrowing has no rule of its own:
the SLA's budget (allocation.per_channel) is the larger of the reservation
and the leftover after non-IPTV traffic, so any excess of the reservation
comes out of the non-IPTV share, and metrics reports it as B_B.
"""

from __future__ import annotations

from itertools import accumulate


def demand_sums(counts) -> list[int]:
    """S with S[0] = 0 and S[t + 1] = S[t] + counts[t], for the channel counts of a play's
    steps, taken as given."""
    return list(accumulate(counts, initial=0))


def compute_reservation(sums: list[int], step: int, window: int, full_mbps: float,
                        cap_mbps: float) -> float:
    """The reservation at step: the mean demand of the last min(step, window) steps, capped.

    sums are the play's demand_sums through at least step.  The counts are
    integers, so the windowed mean is exact and takes one division.  While
    the window is still filling up the mean is over the steps seen so far;
    step 0 reserves nothing, so a cold start degrades to plain leftover
    allocation.
    """
    k = step if step < window else window
    if k < 1:
        return 0.0
    mean = full_mbps * (sums[step] - sums[step - k]) / k
    return cap_mbps if cap_mbps < mean else mean
