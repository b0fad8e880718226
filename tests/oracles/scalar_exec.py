"""Per-VPC reference loop for ``StreamPIMDevice.execute_trace``.

Each VPC is issued in order, waits on :class:`~repro.sim.engine.Resource`
objects for the subarrays (and shared bus) it touches, and moves real
data through the word store one command at a time.  The columnar engine
of :mod:`repro.sim.vector_exec` must match it bit for bit: ``RunStats``,
word stores, observation spans and fault behaviour.
"""

from __future__ import annotations

import functools
import math

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.isa.columnar import ColumnarTrace
from repro.isa.vpc import VPCOpcode
from repro.rm.nanowire import ShiftError
from repro.sim.engine import Resource
from repro.sim.errors import SimulationFault
from repro.sim.stats import EnergyBreakdown, RunStats, TimeBreakdown
from repro.verify.trace_verifier import TraceVerificationError
from tests.oracles.scalar_verify import verify as scalar_verify
from tests.oracles.span_sweep import sweep_spans


@dataclass
class _Span:
    start: float
    finish: float
    kind: str  # "rw" or "pim"


def execute_trace(
    device,
    trace,
    workload: str = "trace",
    functional: bool = True,
    verify: bool = True,
    faults=None,
) -> RunStats:
    """``device.execute_trace(trace, ...)``, one VPC at a time."""
    if verify:
        report = scalar_verify(
            device._trace_verifier(), trace, subject=workload
        )
        if not report.ok():
            raise TraceVerificationError(report)
    subarrays: Dict[Tuple[int, int], Resource] = {}
    internal_bus = Resource("internal-bus")
    spans: List[_Span] = []
    energy = EnergyBreakdown()
    finish_time = 0.0
    pim_vpcs = 0
    move_vpcs = 0

    def resource(key: Tuple[int, int]) -> Resource:
        if key not in subarrays:
            subarrays[key] = Resource(f"subarray-{key}")
        return subarrays[key]

    abort_at = None if faults is None else faults.abort_index
    index = -1
    try:
        for index, vpc in enumerate(trace):
            if index == abort_at:
                raise faults.abort_error()
            # Derived, not accumulated: += would drift the decode
            # clock by an ulp every few million commands.
            decode_ready = (index + 1) * device.config.vpc_decode_ns
            if vpc.is_compute:
                pim_vpcs += 1
                finish = _run_compute(
                    device, vpc, decode_ready, resource, spans, energy
                )
            else:
                move_vpcs += 1
                finish = _run_tran(
                    device,
                    vpc,
                    decode_ready,
                    resource,
                    internal_bus,
                    spans,
                    energy,
                )
            finish_time = max(finish_time, finish)
            if functional:
                _apply_functional(device, vpc)
                drift = None if faults is None else faults.drift.get(index)
                if drift:
                    # The session's per-slice hook, as the engine calls it.
                    length = 1 if vpc.opcode is VPCOpcode.MUL else vpc.size
                    store = device.store
                    store.write(
                        vpc.des,
                        faults.corrupt_values(
                            store.read(vpc.des, length), drift
                        ),
                    )
    except ShiftError as exc:
        raise SimulationFault(
            f"shift escaped the nanowire model during replay: {exc}",
            index=index,
        ) from exc

    time = spans_to_breakdown(spans)
    if faults is not None:
        time.add("recovery", faults.recovery_ns)
        energy.add("recovery", faults.recovery_pj)
        finish_time = finish_time + faults.recovery_ns
    stats = RunStats(
        platform="StPIM",
        workload=workload,
        time_ns=finish_time,
        time_breakdown=time,
        energy=energy,
    )
    stats.bump("pim_vpcs", pim_vpcs)
    stats.bump("move_vpcs", move_vpcs)
    if device.obs.enabled:
        from repro.obs.trace_spans import record_trace_run

        cols = (
            trace
            if isinstance(trace, ColumnarTrace)
            else ColumnarTrace.from_trace(trace)
        )
        record_trace_run(
            device.obs,
            device,
            cols,
            np.array([s.start for s in spans], dtype=np.float64),
            np.array([s.finish for s in spans], dtype=np.float64),
            np.array([s.kind == "rw" for s in spans], dtype=bool),
            stats,
        )
    return stats


def use_scalar_engine(device):
    """Route ``device.execute_trace`` (as called by, e.g.,
    ``run_with_faults``) through this loop; returns the device."""
    device.execute_trace = functools.partial(execute_trace, device)
    return device


def _run_compute(device, vpc, ready, resource, spans, energy) -> float:
    """Dispatch one MUL/SMUL/ADD: collect operands, run the engine."""
    address_map = device.address_map
    home = address_map.subarray_of(vpc.src1)
    start = resource(home).earliest_start(ready)
    # Operand collection: any operand outside the home subarray is
    # fetched with read/write commands first (section IV-B).
    for operand in vpc.operands[1:]:
        location = address_map.subarray_of(operand)
        if location != home:
            copy_ns = device._copy_cost_ns(vpc.size)
            src = resource(location)
            begin = max(
                src.earliest_start(start),
                resource(home).earliest_start(start),
            )
            src.acquire(begin, copy_ns)
            _, start = resource(home).acquire(begin, copy_ns)
            spans.append(_Span(begin, start, "rw"))
            _copy_energy(device, vpc.size, energy)
    profile = device.engine_model.profile(vpc)
    begin, finish = resource(home).acquire(start, profile.time_ns)
    spans.append(_Span(begin, finish, "pim"))
    energy.merge(profile.energy)
    # Result delivery to a remote destination uses read/write.
    dest = address_map.subarray_of(vpc.des)
    if dest != home:
        result_words = 1 if vpc.opcode is VPCOpcode.MUL else vpc.size
        copy_ns = device._copy_cost_ns(result_words)
        begin, finish = resource(dest).acquire(finish, copy_ns)
        spans.append(_Span(begin, finish, "rw"))
        _copy_energy(device, result_words, energy)
    return finish


def _run_tran(
    device, vpc, ready, resource, internal_bus, spans, energy
) -> float:
    """Dispatch one TRAN (in-subarray shift or cross-subarray copy)."""
    src = device.address_map.subarray_of(vpc.src1)
    dest = device.address_map.subarray_of(vpc.des)
    if src == dest:
        profile = device.engine_model.profile(vpc)
        begin, finish = resource(src).acquire(ready, profile.time_ns)
        spans.append(_Span(begin, finish, "pim"))
        energy.merge(profile.energy)
        return finish
    copy_ns = device._copy_cost_ns(vpc.size)
    begin = max(
        internal_bus.earliest_start(ready),
        resource(src).earliest_start(ready),
        resource(dest).earliest_start(ready),
    )
    internal_bus.acquire(begin, copy_ns)
    resource(src).acquire(begin, copy_ns)
    _, finish = resource(dest).acquire(begin, copy_ns)
    spans.append(_Span(begin, finish, "rw"))
    _copy_energy(device, vpc.size, energy)
    return finish


def _copy_energy(device, words: int, energy: EnergyBreakdown) -> None:
    """Charge one cross-subarray copy's access energy."""
    model = device.config.prep_model
    reads = math.ceil(words / model.access_width_words)
    writes = math.ceil(words / model.write_access_width_words)
    energy.add("read", reads * device.timing.read_pj)
    energy.add("write", writes * device.timing.write_pj)


def _apply_functional(device, vpc) -> None:
    """Move/compute real data through the word store."""
    store = device.store
    if vpc.opcode is VPCOpcode.TRAN:
        store.write(vpc.des, store.read(vpc.src1, vpc.size))
        return
    if vpc.opcode is VPCOpcode.SMUL:
        src1 = store.read(vpc.src1, 1)
    else:
        src1 = store.read(vpc.src1, vpc.size)
    src2 = store.read(vpc.src2, vpc.size)
    result = device.processor.apply(vpc.opcode, src1, src2)
    store.write(vpc.des, result)


def spans_to_breakdown(spans: List[_Span]) -> TimeBreakdown:
    """Sweep busy spans into exclusive/overlapped time categories.

    Time covered only by "rw" spans splits into read/write; time covered
    only by "pim" spans becomes shift+process in the pipelined proportion
    (the engine-level split is finer, but at trace level the subarray is
    a black box); time covered by both classes at once is overlapped.
    """
    if not spans:
        return TimeBreakdown()
    return sweep_spans(
        np.array([s.start for s in spans]),
        np.array([s.finish for s in spans]),
        np.array([s.kind == "rw" for s in spans], dtype=bool),
    )
