"""Choke-point analysis of run profiles (paper Section 2.1).

The paper's choke-point methodology identifies four low-level
technical challenges; this module quantifies each one from a run's
:class:`~repro.core.cost.RunProfile`, so that workloads can be checked
for actually stressing them ("the technical experts again assess in
how far these scenarios cover the identified choke points"):

* **excessive network utilization** — share of simulated time spent
  moving bytes between workers, and total traffic;
* **large graph memory footprint** — peak worker memory against the
  budget;
* **poor access locality** — random (cache-missing) accesses versus
  sequential operations;
* **skewed execution intensity** — per-round busiest/mean worker busy
  time, plus the convergence tail: the fraction of rounds with almost
  no active vertices, where barrier latency dominates useful work.

Which choke point a run stresses is answered by one split of its
simulated seconds, :meth:`~repro.hardware.models.HardwareProfile.attribute`
summed over rounds plus startup: the dominant letter is the largest
part, and the time shares and skew ratios here read the same parts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cost import RunProfile
from repro.hardware.models import TimeBreakdown

__all__ = ["ChokePointReport", "analyze_profile"]


@dataclass(frozen=True)
class ChokePointReport:
    """Quantified choke-point indicators for one run."""

    #: The run's simulated seconds by part (C/L/S/M/N/D/B/F): its
    #: ``dominant()`` is the run's choke point, and its ``share()`` of
    #: network and barrier time are the network and tail indicators.
    breakdown: TimeBreakdown
    # Excessive network utilization
    total_remote_bytes: float
    #: Share of network time that is per-message overhead (NIC latency
    #: plus queueing delay) rather than byte transfer. This is the
    #: hardware-sensitive half of the network choke point: swapping the
    #: profile (1 GbE -> RDMA) collapses it while leaving the charge
    #: counters untouched.
    network_overhead_share: float
    # Large graph memory footprint
    peak_memory_bytes: float
    memory_budget_share: float
    # Poor access locality
    random_accesses: float
    sequential_ops: float
    random_access_share: float
    # Skewed execution intensity: busiest over mean worker busy time.
    mean_skew: float
    max_skew: float
    #: Skew of the round doing the most work — robust to the noisy
    #: near-empty tail rounds, it isolates the hub-concentration
    #: effect ("skewed execution intensity").
    busiest_round_skew: float
    tail_rounds: int
    tail_round_share: float


def analyze_profile(
    profile: RunProfile, tail_threshold: float = 0.01
) -> ChokePointReport:
    """Compute the choke-point indicators of one run profile.

    Parameters
    ----------
    profile:
        The run's cost profile.
    tail_threshold:
        A round belongs to the convergence tail when its active-vertex
        count is below this fraction of the run's maximum (the paper's
        "many of such final iterations with little work").
    """
    rounds = profile.rounds
    parts = list(map(profile.cluster.hardware.attribute, rounds))
    breakdown = sum(parts, TimeBreakdown(startup=profile.startup_seconds))
    network_overhead = sum(
        r.network_latency_seconds + r.network_queueing_seconds
        for r in rounds
    )

    sequential_ops = sum(sum(r.ops_per_worker) for r in rounds)
    random_accesses = profile.total_random_accesses
    accesses = sequential_ops + random_accesses

    # A round's work is its mean worker's busy time (compute plus
    # locality), so rounds of pure random accesses count as work too.
    skews = [p.worker_skew for p in parts if p.compute + p.locality > 0]
    busiest = max(parts, key=lambda p: p.compute + p.locality, default=None)
    busiest_skew = busiest.worker_skew if busiest is not None else 1.0
    max_active = max((r.active_vertices for r in rounds), default=0)
    tail_rounds = sum(
        1
        for r in rounds
        if max_active > 0 and r.active_vertices < tail_threshold * max_active
    )

    budget = profile.cluster.hardware.memory_bytes_per_worker

    return ChokePointReport(
        breakdown=breakdown,
        total_remote_bytes=profile.total_remote_bytes,
        network_overhead_share=(
            network_overhead / breakdown.network if breakdown.network else 0.0
        ),
        peak_memory_bytes=profile.peak_memory,
        memory_budget_share=profile.peak_memory / budget if budget else 0.0,
        random_accesses=random_accesses,
        sequential_ops=sequential_ops,
        random_access_share=random_accesses / accesses if accesses else 0.0,
        mean_skew=sum(skews) / len(skews) if skews else 1.0,
        max_skew=max(skews, default=1.0),
        busiest_round_skew=busiest_skew,
        tail_rounds=tail_rounds,
        tail_round_share=tail_rounds / len(rounds) if rounds else 0.0,
    )
