"""Cached workload compilation: spec -> (task, trace) via the trace cache.

Lowering a :class:`~repro.workloads.spec.WorkloadSpec` to a VPC trace is
deterministic in the workload identity (name, operation dimensions,
operand seed), the device geometry, the placement policy, and the
lowering algorithm itself.  :func:`compile_workload` derives a cache key
from exactly those inputs and serves the compiled
:class:`~repro.isa.columnar.ColumnarTrace` (plus the placement plan and
scalar-slot map that :meth:`~repro.core.task.PimTask.materialize` and
``fetch_results`` need) from the content-addressed
:class:`~repro.isa.trace_cache.TraceCache`, so repeated benchmark
figures, sweep points and fault-campaign runs compile once.

:data:`LOWERING_VERSION` stamps the key: bump it whenever a change to
trace generation alters the emitted bytes, and every existing cache
entry becomes unreachable (no in-place invalidation to get wrong).

:func:`stream_workload` is the fused counterpart: instead of finishing
compilation before execution starts, it drives
:meth:`~repro.core.task.PimTask.to_trace_chunks` straight into the
device's streamed executor and writes the concatenated trace through to
the same cache afterwards, so a streamed cold run leaves the cache in
exactly the state a phased :func:`compile_workload` would have.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Optional, Union

from repro.core.device import StreamPIMDevice
from repro.core.placement import PlacementPlan
from repro.core.stream import (
    DEFAULT_CHUNK_VPCS,
    iter_trace_chunks,
    run_stream,
    task_chunk_producer,
)
from repro.core.task import PimTask
from repro.isa.columnar import ColumnarTrace, _validate_op_starts
from repro.isa.trace_cache import TraceCache, make_cache_key
from repro.workloads.spec import DEFAULT_SEED

#: Version stamp of the trace-lowering algorithm.  Part of every cache
#: key: bump on any change that alters emitted trace bytes (opcode
#: streams, scratch allocation, placement interplay).
LOWERING_VERSION = 1


@dataclass
class CompiledWorkload:
    """Result of :func:`compile_workload`.

    Attributes:
        task: the built task, with trace state (placement plan, scalar
            slots) attached whether the trace was compiled or loaded —
            ``materialize``/``fetch_results``/``placement_plan`` work
            either way.
        trace: the compiled columnar trace.
        cache_key: content key of the (workload, device, lowering)
            combination; empty when caching was disabled.
        cache_hit: True when the trace was loaded instead of compiled.
        deep_report: findings of the whole-trace dataflow pass when
            ``deep_verify`` was requested (None otherwise).  Compiling
            never raises on findings; callers decide how to gate.
    """

    task: PimTask
    trace: ColumnarTrace
    cache_key: str
    cache_hit: bool
    deep_report: Optional[object] = None

    @property
    def device(self) -> StreamPIMDevice:
        return self.task.device


def workload_fingerprint(spec) -> list:
    """JSON-stable fingerprint of a spec's operation stream."""
    return [
        [op.kind.value, list(op.dims), bool(op.accumulate)]
        for op in spec.ops
    ]


def spec_cache_key(spec, config=None, seed: int = DEFAULT_SEED) -> str:
    """Cache key of ``spec`` compiled under ``config`` — no task needed.

    The same key :func:`task_cache_key` derives, but computed from a
    device *config* alone (defaulting to the standard
    :class:`~repro.core.device.StreamPIMConfig`), so the serving layer
    can coalesce identical compile requests onto one in-flight
    computation without paying a task build per request.
    """
    if config is None:
        from repro.core.device import StreamPIMConfig

        config = StreamPIMConfig()
    return make_cache_key(
        workload=spec.name,
        ops=workload_fingerprint(spec),
        seed=int(seed),
        geometry=asdict(config.geometry),
        scheduler_policy=config.scheduler_policy.value,
        lowering_version=LOWERING_VERSION,
    )


def task_cache_key(
    spec,
    device: StreamPIMDevice,
    seed: int = DEFAULT_SEED,
) -> str:
    """Cache key of ``spec`` compiled for ``device``.

    Covers everything the trace bytes depend on: the workload identity
    (name plus the dimension fingerprint — dataset scale is already
    baked into the dimensions), the operand seed, the device geometry,
    the scheduler policy (which fixes placement policy and the disjoint
    result-set rule), and :data:`LOWERING_VERSION`.
    """
    return spec_cache_key(spec, device.config, seed=seed)


def _restore_trace_state(task: PimTask, aux: Dict[str, object]) -> bool:
    """Re-attach cached placement state to ``task``; False if ``aux`` is
    unusable (treat as a miss and recompile)."""
    try:
        plan = PlacementPlan.from_dict(aux["plan"])
        scalar_slots = {
            int(address): name
            for address, name in aux["scalar_slots"].items()
        }
    except (AttributeError, KeyError, TypeError, ValueError):
        return False
    task._trace_plan = plan
    task._trace_handles = plan.matrices
    task._trace_scalar_slots = scalar_slots
    return True


def _restore_op_starts(trace: ColumnarTrace, aux: Dict[str, object]) -> None:
    """Attach cached operation boundaries to a loaded trace.

    Entries written before boundaries were recorded simply lack the key;
    the trace stays boundary-free and the analytic predictor falls back
    to its single-segment model.
    """
    starts = aux.get("op_starts")
    if starts is None:
        return
    try:
        trace.op_starts = _validate_op_starts(starts, len(trace))
    except (TypeError, ValueError):
        trace.op_starts = None


def _cache_lookup(spec, task, seed, cache, cache_dir, use_cache):
    """``(cache, key, entry)`` for ``task``'s trace.

    ``cache`` is None and ``key`` empty when caching is disabled.
    ``entry`` is the cached entry with the task's placement state and
    the trace's operation boundaries restored, or None on a miss (an
    entry whose aux is unusable counts as a miss).
    """
    if not use_cache:
        return None, "", None
    if cache is None:
        cache = TraceCache(cache_dir)
    key = task_cache_key(spec, task.device, seed=seed)
    entry = cache.get(key)
    if entry is None or not _restore_trace_state(task, entry.aux):
        return cache, key, None
    _restore_op_starts(entry.trace, entry.aux)
    return cache, key, entry


def _cache_store(cache, key, spec, seed, task, trace) -> None:
    """Write a freshly lowered ``trace`` with the state a hit restores."""
    cache.put(
        key,
        trace,
        aux={
            "plan": task.placement_plan.to_dict(),
            "scalar_slots": {
                str(address): name
                for address, name in task._trace_scalar_slots.items()
            },
            "op_starts": trace.op_starts.tolist(),
        },
        provenance={
            "workload": spec.name,
            "seed": int(seed),
            "lowering_version": LOWERING_VERSION,
            "commands": len(trace),
        },
    )


def _deep_verify(compiled: CompiledWorkload, subject: str) -> None:
    """Attach the whole-trace dataflow report to ``compiled``.

    Especially cheap on cache hits — the trace was loaded, not
    recompiled, so the dataflow pass is the only work — which makes deep
    checking of cached traces the natural guard against a stale or
    corrupted cache entry reaching execution.
    """
    from repro.verify.dataflow import DataflowAnalyzer

    task = compiled.task
    analyzer = DataflowAnalyzer(
        geometry=task.device.config.geometry,
        plan=task.placement_plan,
        scalar_slots=task.trace_scalar_slots,
    )
    compiled.deep_report = analyzer.analyze(
        compiled.trace, subject=subject
    )


def compile_workload(
    spec,
    device: Optional[StreamPIMDevice] = None,
    seed: int = DEFAULT_SEED,
    cache: Optional[TraceCache] = None,
    cache_dir: Union[str, Path, None] = None,
    use_cache: bool = True,
    deep_verify: bool = False,
    inflight: Optional[object] = None,
) -> CompiledWorkload:
    """Build ``spec``'s task and obtain its trace, cached when possible.

    Args:
        spec: a :class:`~repro.workloads.spec.WorkloadSpec` with a task
            builder.
        device: target device (defaults to a fresh
            :class:`StreamPIMDevice`).
        seed: operand RNG seed passed to ``spec.build_task``.
        cache: an existing :class:`TraceCache` to use.
        cache_dir: directory for a cache created here (ignored when
            ``cache`` is passed).
        use_cache: False compiles unconditionally and touches no cache
            state (the ``--no-trace-cache`` CLI path).
        deep_verify: run the whole-trace dataflow analysis
            (:mod:`repro.verify.dataflow`) over the compiled or loaded
            trace and attach the report as ``deep_report``.  Findings do
            not raise here; callers gate on ``deep_report.ok()``.
        inflight: optional
            :class:`~repro.isa.trace_cache.InflightTracker`; cache
            misses are marked while compiling so a crash mid-compile is
            observable (and cleaned up) by the serving supervisor.
    """
    task = spec.build_task(device, seed=seed)
    cache, key, entry = _cache_lookup(
        spec, task, seed, cache, cache_dir, use_cache
    )
    if entry is not None:
        trace = entry.trace
    elif cache is None:
        trace = task.to_trace()
    else:
        if inflight is not None:
            inflight.mark(key)
        try:
            trace = task.to_trace()
            _cache_store(cache, key, spec, seed, task, trace)
        finally:
            if inflight is not None:
                inflight.clear(key)
    compiled = CompiledWorkload(
        task=task, trace=trace, cache_key=key, cache_hit=entry is not None
    )
    if deep_verify:
        _deep_verify(compiled, f"workload {spec.name}")
    return compiled


@dataclass
class StreamedWorkload:
    """Result of :func:`stream_workload`: a fused compile+execute run.

    Attributes:
        task: the built task with trace state attached (as in
            :class:`CompiledWorkload`); the word store already holds the
            run's results — ``fetch_results`` works immediately.
        trace: the full columnar trace (concatenation of the streamed
            chunks; bit-identical to ``task.to_trace()``).
        stats: the run's :class:`~repro.sim.timing.RunStats`,
            bit-identical to the phased vector engine's.
        telemetry: the pipeline's :class:`~repro.core.stream.StreamTelemetry`.
        cache_key: content key (empty when caching was disabled).
        cache_hit: True when chunks were sliced from a cached trace
            instead of lowered live.
        deep_report: whole-trace dataflow report when ``deep_verify``
            was requested (runs after the stream completes — the
            dataflow pass needs the full def-use picture).
    """

    task: PimTask
    trace: ColumnarTrace
    stats: object
    telemetry: object
    cache_key: str
    cache_hit: bool
    deep_report: Optional[object] = None

    @property
    def device(self) -> StreamPIMDevice:
        return self.task.device


def stream_workload(
    spec,
    device: Optional[StreamPIMDevice] = None,
    seed: int = DEFAULT_SEED,
    cache: Optional[TraceCache] = None,
    cache_dir: Union[str, Path, None] = None,
    use_cache: bool = True,
    chunk_vpcs: int = DEFAULT_CHUNK_VPCS,
    functional: bool = True,
    verify: bool = True,
    deep_verify: bool = False,
) -> StreamedWorkload:
    """Compile ``spec`` in chunks and execute them as they are lowered.

    The streamed analogue of ``compile_workload`` followed by
    ``materialize`` and ``execute_trace``, with the
    phase barrier removed: every ``chunk_vpcs`` lowered records (cut at
    operation boundaries) are verified and executed before the next
    operation is lowered.  Cache interplay:

    * hit — the cached trace is cut at its operation boundaries into
      the chunks a cold run drains and streamed through the same
      executor (the chunked fast-apply path still applies);
    * miss — chunks are lowered live and the concatenated trace is
      written through to the cache with the same aux/provenance a
      phased compile would store.

    Results (``stats``, word-store contents, spans) are bit-identical
    to the phased path for any chunk size.
    """
    task = spec.build_task(device, seed=seed)
    cache, key, entry = _cache_lookup(
        spec, task, seed, cache, cache_dir, use_cache
    )
    if entry is not None:
        task.materialize()
        chunks = iter_trace_chunks(entry.trace, chunk_vpcs=chunk_vpcs)
    else:
        chunks = task_chunk_producer(task, chunk_vpcs=chunk_vpcs)
    result, telemetry = run_stream(
        task.device,
        chunks,
        workload=spec.name,
        functional=functional,
        verify=verify,
        cache_hit=entry is not None,
    )
    trace = result.trace
    if entry is not None:
        trace.op_starts = entry.trace.op_starts
    else:
        trace.op_starts = task._trace_op_starts
        if cache is not None:
            _cache_store(cache, key, spec, seed, task, trace)
    streamed = StreamedWorkload(
        task=task,
        trace=trace,
        stats=result.stats,
        telemetry=telemetry,
        cache_key=key,
        cache_hit=entry is not None,
    )
    if deep_verify:
        _deep_verify(streamed, f"workload {spec.name}")
    return streamed
