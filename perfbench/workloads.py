"""The benchmark's workloads: a shipped preset plus the overrides that set
its size. Why each one is in the benchmark is written in BENCHMARK.json."""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    """A preset run through `reporting.run_preset`.

    engine names the part of the program the workload exercises:
    "dsmc" workloads are timed and gated on the particle simulator,
    "operator" workloads on the deterministic quadratures.
    """

    name: str
    preset: str
    engine: str
    overrides: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        # Shipped size; the fit window of the Haff-law checks is cut at
        # t = 20 so that three runs fit in one measurement.
        Workload("haff-law", "haff-law", "dsmc", {"numerics.t_final": 20.0}),
        # Runs past the t = 3 transient the derived checks read, with a
        # snapshot on each side of the last 0.25 so profile_stationarity
        # is evaluated.
        Workload("self-similar", "self-similar", "dsmc", {
            "numerics.particles": 50000,
            "numerics.t_final": 3.25,
            "output.snapshot_times": [3.0, 3.25],
        }),
        Workload("operator-check", "operator-check", "operator", {"numerics.grid_points": 49}),
    )
}
