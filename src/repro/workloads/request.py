"""Typed ``run``/``compile`` requests and the one workload lookup.

The CLI and the serving layer both parse their inputs into a
:class:`RunSpec` or :class:`CompileSpec`, whose field defaults are the
only copy of each default.  :func:`resolve` is the one lookup; the CLI
exits with its :class:`UnknownWorkloadError` message and serve returns
it as ``UNKNOWN_WORKLOAD``.  :func:`run_spec` and :func:`compile_spec`
are the one implementation of each method.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Tuple, Union

from repro.workloads.dnn import DNN_WORKLOADS, dnn_workload
from repro.workloads.extra import EXTRA_WORKLOADS, extra_workload
from repro.workloads.polybench import POLYBENCH, polybench_workload
from repro.workloads.spec import DEFAULT_SEED, WorkloadSpec


class UnknownWorkloadError(KeyError, ValueError):
    """A request names a workload, scale, platform or builder that
    cannot run: a ``KeyError`` to :func:`find_workload` callers, a
    ``ValueError`` to ``run_campaign`` callers.  ``str()`` is the plain
    message, without the quotes ``KeyError`` adds."""

    def __str__(self) -> str:
        return str(self.args[0]) if self.args else ""


@dataclass(frozen=True)
class RunSpec:
    """One analytic platform run (``repro-streampim run``, serve ``run``)."""

    workload: str
    scale: float = 1.0
    platform: str = "StPIM"


@dataclass(frozen=True)
class CompileSpec:
    """One trace compilation (``repro-streampim trace``, serve
    ``compile``, each ``faults`` run)."""

    workload: str
    scale: float = 0.01
    seed: int = DEFAULT_SEED
    deep: bool = False
    no_cache: bool = False


WorkSpec = Union[RunSpec, CompileSpec]


def find_workload(name: str, scale: float = 1.0) -> WorkloadSpec:
    """Resolve a workload name from any suite into a spec.

    Raises:
        UnknownWorkloadError: unknown name, or a scale other than 1 on
            a DNN workload (their dimensions are fixed graphs).
    """
    if name in POLYBENCH:
        return polybench_workload(name, scale=scale)
    if name in DNN_WORKLOADS:
        if scale != 1.0:
            raise UnknownWorkloadError(
                f"DNN workload {name!r} does not support scaling"
            )
        return dnn_workload(name)
    if name in EXTRA_WORKLOADS:
        return extra_workload(name, scale=scale)
    raise UnknownWorkloadError(
        f"unknown workload {name!r}; choose from "
        f"{sorted([*POLYBENCH, *DNN_WORKLOADS, *EXTRA_WORKLOADS])}"
    )


@functools.lru_cache(maxsize=None)
def _platform_names() -> Tuple[str, ...]:
    from repro.baselines import PlatformRegistry

    return tuple(sorted(PlatformRegistry.constructors()))


def resolve(spec: WorkSpec) -> WorkloadSpec:
    """The workload ``spec`` names, checked for what its method needs:
    a known platform for a run, a task builder for a compile.

    Raises:
        UnknownWorkloadError: on any lookup or check failure.
    """
    workload = find_workload(spec.workload, scale=spec.scale)
    if isinstance(spec, RunSpec):
        if spec.platform not in _platform_names():
            raise UnknownWorkloadError(
                f"unknown platform {spec.platform!r}; choose from "
                f"{list(_platform_names())}"
            )
    elif workload.build is None:
        raise UnknownWorkloadError(
            f"workload {spec.workload!r} has no task builder"
        )
    return workload


def run_spec(spec: RunSpec, workload: WorkloadSpec) -> Dict[str, object]:
    """Run ``workload`` (``resolve(spec)``) on ``spec.platform``.

    Returns the serve ``run`` result, which ``repro-streampim run``
    prints.
    """
    from repro.baselines import PlatformRegistry

    platform = PlatformRegistry.constructors()[spec.platform]()
    stats = platform.run(workload)
    return {
        "workload": workload.name,
        "platform": stats.platform,
        "scale": spec.scale,
        "time_ns": stats.time_ns,
        "energy_pj": stats.energy.total_pj,
        "time_fractions": stats.time_breakdown.fractions(),
        "energy_fractions": stats.energy.fractions(),
        "counters": dict(stats.counters),
    }


def compile_spec(
    spec: CompileSpec, workload: WorkloadSpec, cache_dir=None, inflight=None
):
    """Compile ``workload`` (``resolve(spec)``) through the trace cache
    in ``cache_dir``, marking misses in ``inflight``; returns the
    :class:`~repro.core.compile.CompiledWorkload`.

    Raises:
        TraceVerificationError: ``spec.deep`` is set and the whole-trace
            dataflow analysis reports an error.
    """
    from repro.core.compile import compile_workload

    compiled = compile_workload(
        workload,
        seed=spec.seed,
        cache_dir=cache_dir,
        use_cache=not spec.no_cache,
        deep_verify=spec.deep,
        inflight=inflight,
    )
    if spec.deep and not compiled.deep_report.ok():
        from repro.verify.trace_verifier import TraceVerificationError

        raise TraceVerificationError(compiled.deep_report)
    return compiled
