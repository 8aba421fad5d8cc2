"""What-if hardware sweeps: re-cost one recorded workload under many
profiles.

The cost layer's *charge invariance* makes this exact: the per-round
charge tensors (ops per worker, messages, bytes) depend only on the
algorithm, the graph, and ``num_workers`` — never on the hardware
constants — so a suite executed **once** under a base profile can be
re-costed under any other profile by replaying its charges through
:meth:`~repro.hardware.models.HardwareProfile.round_times`, the same
single costing function ``CostMeter.end_round`` uses. Re-costing the
base profile therefore reproduces the fresh run bit-for-bit (a test
pins that), and sweeping N profiles costs one execution, not N.

Each cell's letter is the largest part of its re-costed
:class:`~repro.hardware.models.TimeBreakdown`, the same split every
report reads.

Two caveats, both enforced here:

* Only fault-free runs re-cost exactly — straggler penalties from
  injected faults are folded into recorded compute seconds and carry
  hardware-dependent retry timing. :func:`run_whatif` runs its own
  fault-free suite, so the caveat never bites the CLI path.
* Single-machine platforms pin their own device models (a GPU's
  kernel-launch barrier is platform physics, not cluster physics), so
  the default sweep covers the distributed platforms only.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.core.cost import ClusterSpec, RunProfile
from repro.hardware.models import PART_LEGEND, HardwareProfile, TimeBreakdown
from repro.hardware.registry import (
    DEFAULT_PROFILE,
    default_workers,
    get_profile,
)

__all__ = [
    "WhatIfCell",
    "WhatIfReport",
    "recost",
    "run_whatif",
]


def recost(
    profile: RunProfile,
    hardware: HardwareProfile,
    name: str | None = None,
) -> RunProfile:
    """Re-derive a run's seconds under different hardware.

    Returns a new :class:`~repro.core.cost.RunProfile` with identical
    charges but every derived time (per-round seconds and startup)
    recomputed from ``hardware``. The barrier is recomputed from the
    profile too, so sweeps see cheaper synchronization on faster
    fabrics — which is why GPU-style per-round barrier overrides are
    out of scope (see module docstring). Startup is the recorded
    launch count (MapReduce launches once per chained job) times the
    new profile's constant, exactly as the meter charges it.
    """
    num_workers = profile.cluster.num_workers
    spec = ClusterSpec.from_profile(hardware, num_workers=num_workers, name=name)
    rounds = []
    for record in profile.rounds:
        times = hardware.round_times(record, num_workers)
        updated = dataclasses.replace(
            record,
            ops_per_worker=list(record.ops_per_worker),
            random_accesses_per_worker=list(record.random_accesses_per_worker),
            disk_bytes_per_worker=list(record.disk_bytes_per_worker),
            disk_random_bytes_per_worker=list(
                record.disk_random_bytes_per_worker
            ),
            compute_seconds=times.compute_seconds,
            network_seconds=times.network_seconds,
            network_transfer_seconds=times.network_transfer_seconds,
            network_latency_seconds=times.network_latency_seconds,
            network_queueing_seconds=times.network_queueing_seconds,
            disk_seconds=times.disk_seconds,
            barrier_seconds=times.barrier_seconds,
        )
        rounds.append(updated)
    return RunProfile(
        cluster=spec,
        rounds=rounds,
        peak_memory_per_worker=list(profile.peak_memory_per_worker),
        startup_seconds=profile.launches * hardware.startup_seconds,
        launches=profile.launches,
    )


@dataclass(frozen=True)
class WhatIfCell:
    """One (platform, graph, algorithm) cell costed under one profile."""

    platform: str
    graph: str
    algorithm: str
    profile: str
    simulated_seconds: float
    #: The re-costed run's seconds by part.
    breakdown: TimeBreakdown
    #: Whether the run's peak live set fits the profile's per-worker
    #: RAM; ``False`` cells would OOM on the swept machine.
    fits_memory: bool


@dataclass(frozen=True)
class WhatIfReport:
    """A full profile sweep over one executed suite."""

    base_profile: str
    num_workers: int
    profiles: list[str]
    cells: list[WhatIfCell] = field(default_factory=list)

    def cell(self, platform: str, graph: str, algorithm: str, profile: str):
        """Look up one cell (raises ``KeyError`` if absent)."""
        for c in self.cells:
            if (c.platform, c.graph, c.algorithm, c.profile) == (
                platform,
                graph,
                algorithm,
                profile,
            ):
                return c
        raise KeyError((platform, graph, algorithm, profile))

    def render(self) -> str:
        """Text table: rows are cells, one column per swept profile."""
        rows = sorted(
            {(c.platform, c.graph, c.algorithm) for c in self.cells}
        )
        header = ["platform", "graph", "algorithm"] + list(self.profiles)
        table = [header]
        for platform, graph, algorithm in rows:
            line = [platform, graph, algorithm]
            for profile in self.profiles:
                c = self.cell(platform, graph, algorithm, profile)
                letter = c.breakdown.dominant_letter()
                text = f"{c.simulated_seconds:.3f}s {letter}"
                if not c.fits_memory:
                    text += " OOM"
                line.append(text)
            table.append(line)
        widths = [
            max(len(row[i]) for row in table) for i in range(len(header))
        ]
        lines = [
            "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
            for row in table
        ]
        lines.insert(1, "-" * len(lines[0]))
        lines.append(
            f"largest part of simulated time: {PART_LEGEND}; "
            "OOM = peak memory exceeds the profile's RAM"
        )
        return "\n".join(lines)


def _make_cell(
    platform: str,
    graph: str,
    algorithm: str,
    profile_name: str,
    recosted: RunProfile,
    hardware: HardwareProfile,
) -> WhatIfCell:
    return WhatIfCell(
        platform=platform,
        graph=graph,
        algorithm=algorithm,
        profile=profile_name,
        simulated_seconds=recosted.simulated_seconds,
        breakdown=recosted.breakdown(),
        fits_memory=recosted.peak_memory
        <= hardware.memory_bytes_per_worker,
    )


def run_whatif(
    graphs,
    algorithms=None,
    platforms: list[str] | None = None,
    profiles: list[str] | None = None,
    workers: int | None = None,
    params=None,
) -> WhatIfReport:
    """Execute one suite and sweep it across hardware profiles.

    The suite runs once under ``profiles[0]`` (the base); every other
    profile is an exact re-cost of the recorded charges. ``platforms``
    defaults to the distributed drivers — single-machine platforms pin
    their own device models and are skipped with the default selection
    (requesting one explicitly raises ``ValueError``).
    """
    from repro.api import run_benchmark
    from repro.platforms.registry import available_platforms, is_single_machine

    profile_names = list(profiles) if profiles else [DEFAULT_PROFILE]
    resolved = [get_profile(name) for name in profile_names]
    base_name = profile_names[0]
    if platforms is None:
        platforms = [
            name
            for name in available_platforms()
            if not is_single_machine(name)
        ]
    else:
        rejected = [n for n in platforms if is_single_machine(n)]
        if rejected:
            raise ValueError(
                "what-if sweeps cover cluster platforms only; "
                f"single-machine platforms pin their own hardware: {rejected}"
            )
    num_workers = workers if workers is not None else default_workers(base_name)
    base_spec = ClusterSpec.from_profile(base_name, num_workers=num_workers)
    suite = run_benchmark(
        graphs,
        platforms=platforms,
        algorithms=algorithms,
        cluster=base_spec,
        params=params,
        validate=False,
    )
    cells = []
    for result in suite.results:
        if not result.succeeded:
            continue
        run_profile = result.run.profile
        for profile_name, hardware in zip(profile_names, resolved):
            recosted = recost(run_profile, hardware)
            cells.append(
                _make_cell(
                    result.platform,
                    result.graph_name,
                    result.algorithm.value,
                    profile_name,
                    recosted,
                    hardware,
                )
            )
    return WhatIfReport(
        base_profile=base_name,
        num_workers=num_workers,
        profiles=profile_names,
        cells=cells,
    )
