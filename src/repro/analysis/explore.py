"""Analytic design-space exploration with Pareto re-simulation.

The closed-form predictor makes configuration sweeps that would take
hours of cycle-level simulation answerable in seconds: compile each
workload **once per trace-shaping configuration** (geometry + scheduler
policy — the compile cache already keys on exactly those), build one
:class:`~repro.analysis.predictor.TracePredictor` per compiled trace,
then evaluate every timing point against a light
:class:`~repro.analysis.predictor.AnalyticDevice`.  Only the
(time, energy) Pareto frontier — typically a few percent of the grid —
is re-simulated with the vector engine to bound the model error where
it actually matters.

The default grid trades off three device axes the paper's sensitivity
studies motivate:

* **scheduler policy** (BASE / DISTRIBUTE / UNBLOCK) — changes the
  compiled trace, so each policy is a separate compile (served from the
  trace cache on re-runs);
* **access-port speed grades** — read/write latency multipliers with
  inversely scaled access energy (a faster port drives harder), the
  classic latency/energy trade-off that makes the frontier non-trivial;
* **host decode overhead** (``vpc_decode_ns``) — pure latency.

All timing points share the compiled trace and predictor, so a
1,000+-point grid costs a handful of compiles plus milliseconds per
point.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.predictor import AnalyticDevice, TracePredictor
from repro.workloads.spec import DEFAULT_SEED

#: Default latency multipliers for the access-port speed grades.
DEFAULT_READ_SCALES: Tuple[float, ...] = (0.5, 1.0, 2.0, 4.0)
DEFAULT_WRITE_SCALES: Tuple[float, ...] = (0.5, 1.0, 2.0, 4.0)
#: Default host decode overheads (ns per VPC).
DEFAULT_DECODE_NS: Tuple[float, ...] = (5.0, 10.0, 20.0, 40.0, 80.0)
#: Default workload grid: one matmul representative plus the matvec
#: family at full scale (small traces, fast frontier re-simulation).
DEFAULT_WORKLOADS: Tuple[Tuple[str, Optional[float]], ...] = (
    ("gemm", 0.02),
    ("atax", 1.0),
    ("bicg", 1.0),
    ("mvt", 1.0),
    ("power_iter", None),
)


@dataclass(frozen=True)
class DesignPoint:
    """One configuration of the explored design space."""

    workload: str
    scale: Optional[float]
    policy: str
    read_scale: float
    write_scale: float
    decode_ns: float

    def config(self, base) -> "object":
        """Materialise this point as a :class:`StreamPIMConfig`.

        Latency multipliers scale the Table III access latencies; the
        matching access energies scale **inversely** (a faster port
        spends more energy per access), which is what gives the
        time/energy plane a genuine trade-off frontier.
        """
        from repro.core.scheduler import SchedulerPolicy

        timing = replace(
            base.timing,
            read_ns=base.timing.read_ns * self.read_scale,
            read_pj=base.timing.read_pj / self.read_scale,
            write_ns=base.timing.write_ns * self.write_scale,
            write_pj=base.timing.write_pj / self.write_scale,
        )
        return replace(
            base.with_policy(SchedulerPolicy(self.policy)),
            timing=timing,
            vpc_decode_ns=self.decode_ns,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "scale": self.scale,
            "policy": self.policy,
            "read_scale": self.read_scale,
            "write_scale": self.write_scale,
            "decode_ns": self.decode_ns,
        }


@dataclass
class ExplorePoint:
    """Predicted (and optionally verified) outcome of one design point."""

    point: DesignPoint
    predicted_time_ns: float
    predicted_energy_pj: float
    on_frontier: bool = False
    simulated_time_ns: Optional[float] = None
    simulated_energy_pj: Optional[float] = None

    @property
    def time_rel_error(self) -> Optional[float]:
        if not self.simulated_time_ns:
            return None
        return (
            self.predicted_time_ns - self.simulated_time_ns
        ) / self.simulated_time_ns

    @property
    def energy_rel_error(self) -> Optional[float]:
        if not self.simulated_energy_pj:
            return None
        return (
            self.predicted_energy_pj - self.simulated_energy_pj
        ) / self.simulated_energy_pj

    def to_dict(self) -> Dict[str, object]:
        out = self.point.to_dict()
        out.update(
            {
                "predicted_time_ns": self.predicted_time_ns,
                "predicted_energy_pj": self.predicted_energy_pj,
                "on_frontier": self.on_frontier,
                "simulated_time_ns": self.simulated_time_ns,
                "simulated_energy_pj": self.simulated_energy_pj,
                "time_rel_error": self.time_rel_error,
                "energy_rel_error": self.energy_rel_error,
            }
        )
        return out


def pareto_frontier(
    objectives: Sequence[Tuple[float, float]],
) -> List[int]:
    """Indices of the non-dominated (minimise both) points.

    A point is dominated when another point is no worse on both
    objectives and strictly better on at least one.  Runs the classic
    sort-and-scan: sorted by (time, energy), a point is on the frontier
    iff its energy is strictly below every earlier point's.
    """
    order = sorted(
        range(len(objectives)), key=lambda i: objectives[i]
    )
    frontier: List[int] = []
    best_energy = float("inf")
    for i in order:
        t, e = objectives[i]
        if e < best_energy:
            frontier.append(i)
            best_energy = e
    return sorted(frontier)


@dataclass
class ExploreReport:
    """Everything one :func:`run_explore` call produced."""

    points: List[ExplorePoint] = field(default_factory=list)
    compiles: int = 0
    compile_seconds: float = 0.0
    predict_seconds: float = 0.0
    sim_seconds: float = 0.0
    verified: int = 0

    @property
    def total_points(self) -> int:
        return len(self.points)

    @property
    def frontier_points(self) -> int:
        return sum(1 for p in self.points if p.on_frontier)

    @property
    def pruning_ratio(self) -> float:
        """Fraction of the grid the frontier pruned away from sim."""
        if not self.points:
            return 0.0
        return 1.0 - self.frontier_points / self.total_points

    @property
    def max_abs_time_error(self) -> float:
        errors = [
            abs(p.time_rel_error)
            for p in self.points
            if p.time_rel_error is not None
        ]
        return max(errors, default=0.0)

    @property
    def max_abs_energy_error(self) -> float:
        errors = [
            abs(p.energy_rel_error)
            for p in self.points
            if p.energy_rel_error is not None
        ]
        return max(errors, default=0.0)

    @property
    def estimated_speedup(self) -> float:
        """Analytic-sweep wall-time advantage over simulating the grid.

        Estimates full-grid simulation cost as (mean observed seconds
        per re-simulated point) x (grid size) and compares it against
        what the analytic pass actually cost (compiles + predictions).
        Compiles are charged to the analytic side even though a
        simulation sweep would pay them too, so this is conservative.
        """
        if not self.verified:
            return 0.0
        est_full_sim = (
            self.sim_seconds / self.verified
        ) * self.total_points
        analytic = self.compile_seconds + self.predict_seconds
        if analytic <= 0:
            return float("inf")
        return est_full_sim / analytic

    def frontier(self) -> List[ExplorePoint]:
        return [p for p in self.points if p.on_frontier]

    def to_dict(self) -> Dict[str, object]:
        return {
            "total_points": self.total_points,
            "frontier_points": self.frontier_points,
            "pruning_ratio": self.pruning_ratio,
            "verified": self.verified,
            "max_abs_time_error": self.max_abs_time_error,
            "max_abs_energy_error": self.max_abs_energy_error,
            "compiles": self.compiles,
            "compile_seconds": self.compile_seconds,
            "predict_seconds": self.predict_seconds,
            "sim_seconds": self.sim_seconds,
            "estimated_speedup": self.estimated_speedup,
            "points": [p.to_dict() for p in self.points],
        }


def build_grid(
    workloads: Sequence[Tuple[str, Optional[float]]] = DEFAULT_WORKLOADS,
    policies: Optional[Sequence[str]] = None,
    read_scales: Sequence[float] = DEFAULT_READ_SCALES,
    write_scales: Sequence[float] = DEFAULT_WRITE_SCALES,
    decode_ns: Sequence[float] = DEFAULT_DECODE_NS,
) -> List[DesignPoint]:
    """Enumerate the cartesian design grid (default: 1,200 points)."""
    from repro.core.scheduler import SchedulerPolicy

    if policies is None:
        policies = [p.value for p in SchedulerPolicy]
    grid: List[DesignPoint] = []
    for name, scale in workloads:
        for policy in policies:
            for rs in read_scales:
                for ws in write_scales:
                    for dec in decode_ns:
                        grid.append(
                            DesignPoint(
                                workload=name,
                                scale=scale,
                                policy=policy,
                                read_scale=float(rs),
                                write_scale=float(ws),
                                decode_ns=float(dec),
                            )
                        )
    return grid


def run_explore(
    grid: Optional[Sequence[DesignPoint]] = None,
    seed: int = DEFAULT_SEED,
    cache=None,
    cache_dir=None,
    use_cache: bool = True,
    verify_limit: Optional[int] = None,
    obs=None,
    progress=None,
) -> ExploreReport:
    """Explore ``grid`` analytically; re-simulate only its frontier.

    Args:
        grid: design points (default :func:`build_grid`, 1,200 points).
        verify_limit: cap on re-simulated frontier points (None = all);
            the capped subset is spread evenly across each workload's
            frontier so the error report still covers its whole span.
        obs: optional enabled collector; per-point predictions and
            per-verification errors are recorded under ``predictor.*``.
        progress: optional callable invoked with (stage, detail) pairs
            as work proceeds (the CLI prints them).

    Returns:
        An :class:`ExploreReport`; Pareto frontiers are computed per
        workload (comparing time/energy across workloads would be
        meaningless).
    """
    from repro.core.compile import compile_workload
    from repro.core.device import StreamPIMConfig, StreamPIMDevice
    from repro.core.scheduler import SchedulerPolicy
    from repro.workloads import find_workload

    if grid is None:
        grid = build_grid()
    report = ExploreReport()
    if not grid:
        return report
    base = StreamPIMConfig()
    say = progress or (lambda stage, detail: None)

    # One compile + predictor per distinct trace-shaping configuration.
    compiled: Dict[Tuple[str, Optional[float], str], tuple] = {}
    for point in grid:
        key = (point.workload, point.scale, point.policy)
        if key in compiled:
            continue
        spec = (
            find_workload(point.workload, scale=point.scale)
            if point.scale is not None
            else find_workload(point.workload)
        )
        config = base.with_policy(SchedulerPolicy(point.policy))
        t0 = time.perf_counter()
        result = compile_workload(
            spec,
            device=StreamPIMDevice(config),
            seed=seed,
            cache=cache,
            cache_dir=cache_dir,
            use_cache=use_cache,
        )
        predictor = TracePredictor(
            result.trace,
            result.device.address_map.words_per_subarray,
        )
        report.compile_seconds += time.perf_counter() - t0
        report.compiles += 1
        compiled[key] = (spec, result.trace, predictor)
        say(
            "compile",
            f"{spec.name} policy={point.policy} "
            f"({predictor.commands} cmds"
            f"{', cached' if result.cache_hit else ''})",
        )

    # Analytic pass: every grid point through its shared predictor.
    by_workload: Dict[Tuple[str, Optional[float]], List[int]] = {}
    for point in grid:
        spec, trace, predictor = compiled[
            (point.workload, point.scale, point.policy)
        ]
        t0 = time.perf_counter()
        device = AnalyticDevice(point.config(base))
        predicted = predictor.predict(device, workload=spec.name)
        dt = time.perf_counter() - t0
        report.predict_seconds += dt
        if obs is not None and getattr(obs, "enabled", False):
            from repro.obs.predictor_metrics import record_prediction

            record_prediction(obs, predicted, predict_seconds=dt)
        by_workload.setdefault(
            (point.workload, point.scale), []
        ).append(len(report.points))
        report.points.append(
            ExplorePoint(
                point=point,
                predicted_time_ns=predicted.time_ns,
                predicted_energy_pj=predicted.energy.total_pj,
            )
        )
    say(
        "predict",
        f"{report.total_points} points in "
        f"{report.predict_seconds:.2f}s",
    )

    # Per-workload Pareto frontier on (time, energy).
    to_verify: List[ExplorePoint] = []
    for indices in by_workload.values():
        objectives = [
            (
                report.points[i].predicted_time_ns,
                report.points[i].predicted_energy_pj,
            )
            for i in indices
        ]
        frontier = pareto_frontier(objectives)
        chosen = [report.points[indices[i]] for i in frontier]
        for p in chosen:
            p.on_frontier = True
        if verify_limit is not None and len(chosen) > verify_limit:
            step = len(chosen) / verify_limit
            chosen = [
                chosen[min(int(j * step), len(chosen) - 1)]
                for j in range(verify_limit)
            ]
        to_verify.extend(chosen)

    # Re-simulate the frontier only.
    for entry in to_verify:
        point = entry.point
        spec, trace, _ = compiled[
            (point.workload, point.scale, point.policy)
        ]
        t0 = time.perf_counter()
        device = StreamPIMDevice(point.config(base))
        stats = device.execute_trace(
            trace, workload=spec.name, functional=False, verify=False
        )
        report.sim_seconds += time.perf_counter() - t0
        report.verified += 1
        entry.simulated_time_ns = float(stats.time_ns)
        entry.simulated_energy_pj = float(stats.energy.total_pj)
        if obs is not None and getattr(obs, "enabled", False):
            from repro.obs.predictor_metrics import (
                record_prediction_error,
            )

            if entry.time_rel_error is not None:
                record_prediction_error(obs, entry.time_rel_error)
        say(
            "verify",
            f"{spec.name} policy={point.policy} "
            f"r{point.read_scale:g} w{point.write_scale:g} "
            f"d{point.decode_ns:g}: err "
            f"{(entry.time_rel_error or 0.0) * 100:+.2f}%",
        )
    return report


__all__ = [
    "DEFAULT_DECODE_NS",
    "DEFAULT_READ_SCALES",
    "DEFAULT_WORKLOADS",
    "DEFAULT_WRITE_SCALES",
    "DesignPoint",
    "ExplorePoint",
    "ExploreReport",
    "build_grid",
    "pareto_frontier",
    "run_explore",
]
