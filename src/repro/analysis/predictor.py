"""Closed-form performance prediction over columnar traces.

Cycle-level simulation is exact but linear in trace length with a
Python-loop constant; a geometry/placement/timing design sweep pays that
cost at every grid point.  This module predicts the vector engine's
``RunStats`` — total time, energy breakdown, and a comparable time
breakdown — from a handful of NumPy reductions over arrays the
:class:`~repro.isa.columnar.ColumnarTrace` already holds, so one
compiled trace can be evaluated across thousands of device
configurations in microseconds-to-milliseconds per point.

Model
-----
Execution is predicted per source operation (the compiler marks
operation boundaries on the trace; see ``ColumnarTrace.op_starts``).
Within one operation the finish time is the max of four closed forms:

* **decode floor** — the host link dispatches one command per
  ``vpc_decode_ns``, so ``commands_so_far * vpc_decode_ns`` lower-bounds
  every finish.
* **per-subarray load** (``term_a``) — each subarray must serially fit
  the durations charged to it (operand copies in, compute profiles,
  result copies out), starting no earlier than its busy horizon:
  ``max_s(busy[s] + load[s])``.
* **input floor + critical load** (``term_b``) — no subarray starts
  before its sources are released: ``max_src(busy) + max_s(load[s])``.
* **bus pipeline** (``term_c``) — cross-subarray TRANs serialise on the
  shared bus, and the bus in turn waits for producer subarrays.  The
  steady state of that marked graph is a cycle-mean: TRAN ``k`` departs
  at best one *period* after TRAN ``k-1``, where the period is
  ``max(c_k, (work_since_last_feeder + c_k) / tokens_in_flight)`` —
  the bus transfer time itself, or the producer-side work amortised
  over the TRANs pipelined between producer and consumer.  Summing
  periods (``C``) and adding each subarray's appendage work after its
  last feeding TRAN gives the finish estimate of every command.

Energy is not approximated at all: the vector engine's energy is a
static per-command sum (operand copy, profile, result copy — see
``VectorExecState.feed``), so the predictor reproduces it exactly (up
to float association) from per-unique-shape tables.

Prediction runs in three stages, which is what makes sweeps cheap:

* **build** (:class:`TracePredictor` construction), once per compiled
  trace: topology — dependency subarrays, bus event order, feeder
  chains — and every index the cost stage gathers durations through,
  all independent of timing constants;
* **cost**, once per distinct set of cost tables (profile time, shift
  and compute energy per ``(opcode, size)`` shape; copy time, read and
  write energy per word count, read from the vector engine's
  process-wide cost memo), remembered on the predictor: exact
  energy, category sums, and per operation a priced summary — its
  per-subarray loads and three bus-pipeline maxima, nothing per
  command;
* **point** (:meth:`TracePredictor.predict`), once per configuration:
  the max-plus walk over operations that adds busy horizons and the
  decode floor to those summaries, O(operations x subarrays).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from repro.isa.columnar import ColumnarTrace, MUL_BYTE, TRAN_BYTE
from repro.sim.stats import EnergyBreakdown, TimeBreakdown
from repro.sim.vector_exec import (
    priced_costs,
    pricing_inputs,
    shape_keys,
    split_shape_keys,
)
from repro.workloads.spec import DEFAULT_SEED

class AnalyticDevice:
    """Cost-model view of a device configuration.

    Everything :meth:`TracePredictor.predict` reads from a device —
    address map, subarray-engine profile model, cross-subarray copy
    cost, timing constants, ``vpc_decode_ns`` — without the word store
    or event-mode machinery, so a design-space explorer can evaluate
    thousands of configurations without paying
    :class:`~repro.core.device.StreamPIMDevice` construction per point.
    The copy-cost method is borrowed from the device class itself, so
    the two can never drift apart.
    """

    def __init__(self, config=None) -> None:
        from repro.core.device import StreamPIMConfig
        from repro.core.processor import RMProcessor
        from repro.core.rmbus import RMBus
        from repro.core.subarray_engine import SubarrayEngine
        from repro.rm.address import AddressMap

        self.config = config if config is not None else StreamPIMConfig()
        self.timing = self.config.timing
        self.address_map = AddressMap(self.config.geometry)
        self.processor = RMProcessor(self.config.processor, self.timing)
        self.bus = RMBus(self.config.bus, self.timing)
        self.engine_model = SubarrayEngine(
            processor=self.processor, bus=self.bus, timing=self.timing
        )

    def _copy_cost_ns(self, words: int) -> float:
        from repro.core.device import StreamPIMDevice

        return StreamPIMDevice._copy_cost_ns(self, words)


@dataclass
class PredictedStats:
    """Analytic counterpart of :class:`~repro.sim.stats.RunStats`.

    Attributes:
        workload: workload tag the prediction describes.
        time_ns: predicted end-to-end makespan.
        energy: predicted energy breakdown (exact, not approximated).
        time_breakdown: predicted exclusive-category time breakdown,
            shaped like the simulator's (read/write/process/overlapped)
            via the proportional-overlap construction described in
            :meth:`TracePredictor.predict`.
        category_ns: per-category *busy* sums (``copy`` operand/result
            copies, ``exec`` compute profiles, ``tran`` in-subarray
            TRANs, ``bus`` cross-subarray TRANs) — the closed-form
            inputs, before overlap.
        pim_vpcs / move_vpcs: command counters (match the simulator's).
        commands: total trace commands.
        ops: source operations modelled.
        cross_trans: cross-subarray TRAN count (bus traffic).
    """

    workload: str
    time_ns: float
    energy: EnergyBreakdown
    time_breakdown: TimeBreakdown
    category_ns: Dict[str, float]
    pim_vpcs: int
    move_vpcs: int
    commands: int
    ops: int
    cross_trans: int

    @property
    def total_pj(self) -> float:
        return self.energy.total_pj

    def to_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "time_ns": self.time_ns,
            "energy_pj": {
                "read": self.energy.read_pj,
                "write": self.energy.write_pj,
                "shift": self.energy.shift_pj,
                "compute": self.energy.compute_pj,
                "total": self.energy.total_pj,
            },
            "category_ns": dict(self.category_ns),
            "pim_vpcs": self.pim_vpcs,
            "move_vpcs": self.move_vpcs,
            "commands": self.commands,
            "ops": self.ops,
            "cross_trans": self.cross_trans,
        }


@dataclass
class _OpStructure:
    """Timing-independent topology of one source operation, and the
    indices its durations are gathered through.

    Every ``*_val`` and ``*_prof`` array indexes the cost stage's value
    vector ``[profile times, 0.0, copy times]`` (see
    :meth:`TracePredictor._price`); the ``0.0`` slot stands for "no
    duration", so a sum of two gathers is exact where one term is
    absent.
    """

    count_end: int  # cumulative commands through this op
    src_subs: np.ndarray  # unique source subarrays (busy floor)
    load_subs: np.ndarray  # unique subarrays receiving load
    # Load entries: every command's home occupancy, then its operand
    # copy, result copy and cross-TRAN arrival, as present.
    load_pos: np.ndarray  # load entry -> position in load_subs
    load_val: np.ndarray  # load entry -> copy time (or 0.0)
    home_prof: np.ndarray  # home entry -> profile time (or 0.0)
    # Bus event table (empty arrays when the op has no cross TRANs).
    # Every field below is a pure topology artefact (event order, value
    # indices, feeder pointers, reset positions); the cost stage only
    # gathers through them, so pricing stays a fixed number of array
    # passes.
    K: int = 0
    # event -> value at the event (operand copy at a home, result copy
    # at a join, 0.0 at an arrival); profiled homes add their profile
    ev_val: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    ev_home: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    ev_prof: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    tr_val: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    respos: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    first_pos: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    seg_len: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    res_home: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    # Reset and feeder pointers, where "none" points one past the event
    # table (at a 0.0 running duration) or the TRAN chain (at -inf), and
    # the events no TRAN feeds.
    res_home_reset: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    last_reset: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    feeder: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    unfed: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    src_prev_idx: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    dst_prev_idx: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    L_src: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    L_dst: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    ok_src: np.ndarray = field(default_factory=lambda: np.empty(0, bool))
    ok_dst: np.ndarray = field(default_factory=lambda: np.empty(0, bool))


@dataclass
class _OpCost:
    """One operation priced against one set of cost tables.

    What the point stage reads of an operation beside its topology; no
    field has one element per command.
    """

    load_vals: np.ndarray  # serial load on each op.load_subs entry
    max_load: float
    # Bus pipeline (ops with cross TRANs only): max(chain[feeder] +
    # appendage) over fed events, max(appendage) over unfed events
    # (-inf when either set is empty), and the chain's last entry.
    fed_max: float = -math.inf
    unfed_max: float = -math.inf
    chain_end: float = 0.0


@dataclass
class _PricedTrace:
    """The cost stage's output for one set of cost tables."""

    energy: EnergyBreakdown
    category_ns: Dict[str, float]
    ops: List[_OpCost]


class _Columns(NamedTuple):
    """Per-command columns the build slices per operation: dependency
    subarrays and masks (see ``trace_dependencies``) and value-vector
    indices (see ``TracePredictor._price``)."""

    home: np.ndarray
    remote: np.ndarray
    dest: np.ndarray
    cross: np.ndarray
    has_op: np.ndarray
    has_res: np.ndarray
    prof: np.ndarray  # profile time (0.0 slot for cross TRANs)
    copy: np.ndarray  # copy time of `size` words
    res: np.ndarray  # result-copy time
    dur_copy: np.ndarray  # copy time in home occupancy (or 0.0)
    load_copy: np.ndarray  # copy time in home load (or 0.0)
    zero: int  # the 0.0 slot


def _segmented_last_reset(
    is_reset: np.ndarray, seg_first: np.ndarray
) -> np.ndarray:
    """Per event, index of the latest reset event at or before it within
    its segment, or the event count when there is none; ``seg_first``
    holds each event's segment start."""
    m = len(is_reset)
    last = np.maximum.accumulate(np.where(is_reset, np.arange(m), -1))
    return np.where(last >= seg_first, last, m)


class TracePredictor:
    """Closed-form predictor for one compiled trace.

    Construction extracts every timing-independent structure —
    dependency subarrays, per-operation load targets, the bus event
    order and its feeder chains, unique ``(opcode, size)`` shapes —
    once.  :meth:`predict` then evaluates one device configuration: it
    prices the trace against the device's cost tables (once per
    distinct set of tables; later points reuse it) and walks the
    operations, which is what makes analytic design sweeps two orders
    of magnitude faster than simulated ones.

    Args:
        trace: the compiled columnar trace.
        words_per_subarray: the geometry's subarray capacity (fixes the
            address -> subarray map; must match the device handed to
            :meth:`predict`).
        op_starts: operation boundaries; defaults to the trace's own
            (``trace.op_starts``), falling back to a single segment.
    """

    def __init__(
        self,
        trace: ColumnarTrace,
        words_per_subarray: int,
        op_starts: Optional[np.ndarray] = None,
    ) -> None:
        from repro.core.scheduler import trace_dependencies

        if words_per_subarray < 1:
            raise ValueError(
                f"words_per_subarray must be positive, got "
                f"{words_per_subarray}"
            )
        self.words_per_subarray = int(words_per_subarray)
        self.commands = len(trace)
        # Cost-stage results keyed by the device inputs the tables are
        # priced from (see vector_exec.pricing_inputs), so a hit prices
        # nothing.
        self._priced: Dict[tuple, _PricedTrace] = {}
        opcode = trace.opcode
        size = trace.size.astype(np.int64)
        compute = trace.is_compute
        self.pim_vpcs = int(compute.sum())
        self.move_vpcs = self.commands - self.pim_vpcs

        if op_starts is None:
            op_starts = trace.op_starts
        slices = (
            [] if self.commands == 0 else [(0, self.commands)]
        )
        if op_starts is not None and len(op_starts):
            starts = np.asarray(op_starts, dtype=np.int64).tolist()
            slices = list(zip(starts, starts[1:] + [self.commands]))
        self.ops = len(slices)

        if self.commands == 0:
            self.n_subs = 1
            self.cross_trans = 0
            self._ops: List[_OpStructure] = []
            self._shape_keys: List[int] = []
            self._word_uniq = np.empty(0, np.int64)
            self._cnt = {}
            return

        deps = trace_dependencies(trace, self.words_per_subarray)
        home = deps.home
        remote = deps.remote
        dest = deps.dest
        cross = deps.uses_bus
        insub = (opcode == TRAN_BYTE) & ~cross
        has_op = remote >= 0
        has_res = compute & (dest >= 0)
        profiled = compute | ~cross
        self.cross_trans = int(cross.sum())
        self.n_subs = int(
            max(home.max(), remote.max(), dest.max()) + 1
        )

        # One unique over every command's packed (opcode, size) key;
        # the shape and word-count tables derive from its few entries.
        ukeys, key_inv = np.unique(
            shape_keys(opcode, size), return_inverse=True
        )
        # Shapes of the profiled commands, priced per device.  A
        # cross-subarray TRAN is timed as a bus copy, so it has no
        # shape: its row points one past the table, at the value
        # vector's 0.0 slot.
        per_shape = np.bincount(key_inv[profiled], minlength=len(ukeys))
        is_shape = per_shape > 0
        n_p = int(is_shape.sum())
        self._shape_keys = ukeys[is_shape].tolist()
        shape_of = np.where(is_shape, np.cumsum(is_shape) - 1, n_p)
        prof_inv = np.where(profiled, shape_of[key_inv], n_p)

        # Unique copy word counts (operand/cross copies move `size`
        # words; result copies move 1 word for MUL, `size` otherwise).
        key_op, key_size = split_shape_keys(ukeys)
        key_res = np.where(key_op == MUL_BYTE, 1, key_size)
        self._word_uniq, word_inv = np.unique(
            np.concatenate((key_size, key_res)), return_inverse=True
        )
        inv_size = word_inv[: len(ukeys)][key_inv]
        inv_res = word_inv[len(ukeys) :][key_inv]

        # Static occurrence counts for the exact energy / category sums.
        n_w = len(self._word_uniq)
        self._cnt = {
            "prof_profiled": per_shape[is_shape].astype(np.float64),
            "prof_compute": np.bincount(
                prof_inv[compute], minlength=n_p
            ).astype(np.float64),
            "prof_insub": np.bincount(
                prof_inv[insub], minlength=n_p
            ).astype(np.float64),
            "w_operand": np.bincount(
                inv_size[has_op], minlength=n_w
            ).astype(np.float64),
            "w_cross": np.bincount(
                inv_size[cross], minlength=n_w
            ).astype(np.float64),
            "w_result": np.bincount(
                inv_res[has_res], minlength=n_w
            ).astype(np.float64),
        }

        # Per command, indices into the value vector [profile times
        # (n_p), 0.0, copy times (n_w)]: the copy and result-copy times,
        # and the copy time added to the profile at home — the operand
        # copy for its home occupancy, and for its home load also the
        # bus copy a cross TRAN charges there.  An operand copy implies
        # a compute command, which is neither a TRAN nor on the bus.
        copy_val = inv_size + (n_p + 1)
        res_val = inv_res + (n_p + 1)
        cols = _Columns(
            home=home,
            remote=remote,
            dest=dest,
            cross=cross,
            has_op=has_op,
            has_res=has_res,
            prof=prof_inv,
            copy=copy_val,
            res=res_val,
            dur_copy=np.where(has_op, copy_val, n_p),
            load_copy=np.where(has_op | cross, copy_val, n_p),
            zero=n_p,
        )
        self._ops = [self._build_op(s, e, cols) for s, e in slices]

    # ------------------------------------------------------------------
    def _build_op(self, s: int, e: int, cols: _Columns) -> _OpStructure:
        h = cols.home[s:e]
        r = cols.remote[s:e]
        d = cols.dest[s:e]
        cr = cols.cross[s:e]
        c_copy = cols.copy[s:e]
        c_res = cols.res[s:e]
        grp_rem = np.flatnonzero(cols.has_op[s:e])
        grp_res = np.flatnonzero(cols.has_res[s:e])
        grp_cross = np.flatnonzero(cr)
        concat_subs = np.concatenate(
            (h, r[grp_rem], d[grp_res], d[grp_cross])
        )
        # Subarray sets and positions from a dense mark/rank table over
        # the trace's subarrays.
        mark = np.zeros(self.n_subs, dtype=bool)
        mark[concat_subs] = True
        load_subs = np.flatnonzero(mark)
        rank = np.cumsum(mark) - 1
        mark[:] = False
        mark[h] = True
        mark[r[grp_rem]] = True
        op = _OpStructure(
            count_end=int(e),
            src_subs=np.flatnonzero(mark),
            load_subs=load_subs,
            load_pos=rank[concat_subs],
            load_val=np.concatenate(
                (
                    cols.load_copy[s:e],
                    c_copy[grp_rem],
                    c_res[grp_res],
                    c_copy[grp_cross],
                )
            ),
            home_prof=cols.prof[s:e],
        )
        K = len(grp_cross)
        if K == 0:
            return op

        # Event table: every command's home occupancy, then at its
        # destination the result-copy join of a compute command or the
        # arrival of a cross TRAN (a command has at most one, and never
        # on its home subarray).  Listed in command order, a stable sort
        # by subarray rank orders them by (subarray, command).  Ranks
        # fit a small unsigned type, which NumPy stable-sorts by radix.
        step = (cols.has_res[s:e] | cr) + 1
        seq_home = np.cumsum(step) - step  # sequence index of each home
        seq_res = seq_home[grp_res] + 1
        seq_arr = seq_home[grp_cross] + 1
        key = np.empty(self.n_subs, np.min_scalar_type(len(load_subs) - 1))
        key[load_subs] = np.arange(len(load_subs))
        seq_key = np.repeat(key[h], step)
        seq_key[seq_res] = key[d[grp_res]]
        seq_key[seq_arr] = key[d[grp_cross]]
        order = np.argsort(seq_key, kind="stable")
        m = len(order)
        evpos = np.empty(m, dtype=np.int64)
        evpos[order] = np.arange(m)
        ev_key = seq_key[order]
        seg_start = np.empty(m, dtype=bool)
        seg_start[0] = True
        np.not_equal(ev_key[1:], ev_key[:-1], out=seg_start[1:])
        first_pos = np.flatnonzero(seg_start)
        seg_len = np.diff(np.append(first_pos, m))
        seg_first = np.repeat(first_pos, seg_len)

        home_evpos = evpos[seq_home]
        res_evpos = evpos[seq_res]
        src_evpos = home_evpos[grp_cross]
        dst_evpos = evpos[seq_arr]
        karr = np.arange(K)
        is_cross_ev = np.zeros(m, dtype=bool)
        is_cross_ev[src_evpos] = True
        is_cross_ev[dst_evpos] = True
        is_res_ev = np.zeros(m, dtype=bool)
        is_res_ev[res_evpos] = True

        # Pass 1: feeders with only cross events as resets.  Resets and
        # feeders index one slot past the table for "none".
        lr1 = _segmented_last_reset(is_cross_ev, seg_first)
        fvals1 = np.full(m + 1, -1, dtype=np.int64)
        fvals1[src_evpos] = karr
        fvals1[dst_evpos] = karr
        f1 = fvals1[lr1]

        # Home-side event of each result join, in event order.
        respos = np.flatnonzero(is_res_ev)
        join_home = np.empty(m, dtype=np.int64)
        join_home[res_evpos] = home_evpos[grp_res]
        res_home = join_home[respos]

        # Pass 2: result joins also reset (they import the home side's
        # feeder and accumulated appendage).
        lr2 = _segmented_last_reset(is_cross_ev | is_res_ev, seg_first)
        fvals2 = fvals1.copy()
        fvals2[respos] = f1[res_home]
        f2 = fvals2[lr2]
        prevf = np.empty(m, dtype=np.int64)
        prevf[0] = -1
        prevf[1:] = f2[:-1]
        prevf[seg_start] = -1
        pf_src = prevf[src_evpos]
        pf_dst = prevf[dst_evpos]

        # Event durations: the value at every event (home occupancy's
        # operand copy, the result-copy cost at join events, zero at
        # arrivals) plus the profile at the home of a profiled command.
        ev_val = np.full(m, cols.zero, dtype=np.int64)
        ev_val[home_evpos] = cols.dur_copy[s:e]
        ev_val[res_evpos] = c_res[grp_res]
        profiled = ~cr

        op.K = K
        op.ev_val = ev_val
        op.ev_home = home_evpos[profiled]
        op.ev_prof = op.home_prof[profiled]
        op.tr_val = c_copy[grp_cross]
        op.respos = respos
        op.first_pos = first_pos
        op.seg_len = seg_len
        op.res_home = res_home
        op.res_home_reset = lr1[res_home]
        op.last_reset = lr2
        op.feeder = np.where(f2 >= 0, f2, K)
        op.unfed = np.flatnonzero(f2 < 0)
        op.src_prev_idx = np.maximum(src_evpos - 1, 0)
        op.dst_prev_idx = np.maximum(dst_evpos - 1, 0)
        op.L_src = np.maximum(karr - pf_src, 1)
        op.L_dst = np.maximum(karr - pf_dst, 1)
        op.ok_src = pf_src >= 0
        op.ok_dst = pf_dst >= 0
        return op

    # ------------------------------------------------------------------
    def predict(
        self, device, workload: str = "trace"
    ) -> PredictedStats:
        """Evaluate one device configuration against this trace.

        ``device`` is anything with the device cost surface —
        a :class:`~repro.core.device.StreamPIMDevice` or the lighter
        :class:`AnalyticDevice` — whose geometry matches the
        ``words_per_subarray`` this predictor was built with.

        The cost stage (:meth:`_price`) runs once per distinct set of
        cost tables and is remembered on the predictor, keyed by the
        engine class and the config fields the tables are priced from
        (:func:`~repro.sim.vector_exec.pricing_inputs`), so points that
        differ only in ``vpc_decode_ns`` pay for the point stage alone
        and price no table.
        """
        if device.address_map.words_per_subarray != self.words_per_subarray:
            raise ValueError(
                f"geometry mismatch: predictor built for "
                f"{self.words_per_subarray} words/subarray, device has "
                f"{device.address_map.words_per_subarray}"
            )
        if self.commands == 0:
            return PredictedStats(
                workload=workload,
                time_ns=0.0,
                energy=EnergyBreakdown(),
                time_breakdown=TimeBreakdown(),
                category_ns={
                    "copy": 0.0, "exec": 0.0, "tran": 0.0, "bus": 0.0
                },
                pim_vpcs=0,
                move_vpcs=0,
                commands=0,
                ops=0,
                cross_trans=0,
            )

        # ---- cost stage, once per distinct set of cost tables -----------
        inputs = pricing_inputs(device)
        priced = self._priced.get(inputs)
        if priced is None:
            priced = self._priced[inputs] = self._price(
                *self._cost_tables(device)
            )

        # ---- point stage: per-operation max-plus composition ------------
        decode_ns = device.config.vpc_decode_ns
        busy = np.zeros(self.n_subs)
        bus = 0.0
        total = 0.0
        for op, cost in zip(self._ops, priced.ops):
            floor = float(busy[op.src_subs].max())
            term_a = float((busy[op.load_subs] + cost.load_vals).max())
            term_b = floor + cost.max_load
            term_c = 0.0
            if op.K:
                base = max(bus, floor)
                term_c = max(base + cost.fed_max, floor + cost.unfed_max)
                bus = max(base + cost.chain_end, bus)
            finish = max(op.count_end * decode_ns, term_a, term_b, term_c)
            busy[op.load_subs] = finish
            total = max(total, finish)

        # ---- breakdown mirror (proportional overlap) --------------------
        category_ns = dict(priced.category_ns)
        rw_sum = category_ns["copy"] + category_ns["bus"]
        pim_sum = category_ns["exec"] + category_ns["tran"]
        overlapped = min(
            max(rw_sum + pim_sum - total, 0.0), min(rw_sum, pim_sum)
        )
        rw_excl = rw_sum - overlapped
        breakdown = TimeBreakdown(
            read_ns=0.3 * rw_excl,
            write_ns=0.7 * rw_excl,
            process_ns=pim_sum - overlapped,
            overlapped_ns=overlapped,
        )
        return PredictedStats(
            workload=workload,
            time_ns=total,
            energy=replace(priced.energy),
            time_breakdown=breakdown,
            category_ns=category_ns,
            pim_vpcs=self.pim_vpcs,
            move_vpcs=self.move_vpcs,
            commands=self.commands,
            ops=self.ops,
            cross_trans=self.cross_trans,
        )

    def _cost_tables(self, device) -> tuple:
        """The six per-shape cost tables: profile time, shift and compute
        energy per ``(opcode, size)`` shape, and copy time, read energy
        and write energy per word count.  They hold every device input
        the cost stage reads, and come from the vector engine's
        process-wide memo (:func:`~repro.sim.vector_exec.priced_costs`),
        so a table an equal configuration priced before is not priced
        again."""
        return priced_costs(
            device, "shape", self._shape_keys
        ) + priced_costs(device, "copy", self._word_uniq.tolist())

    def _price(
        self, prof_tbl, prof_shift_tbl, prof_comp_tbl,
        cost_tbl, cost_read_tbl, cost_write_tbl,
    ) -> _PricedTrace:
        """Cost stage: price every operation against one set of tables."""
        # ---- exact energy (the engine's three static slots) -------------
        cnt = self._cnt
        copies_read = (
            cnt["w_operand"] + cnt["w_cross"]
        ) @ cost_read_tbl + cnt["w_result"] @ cost_read_tbl
        copies_write = (
            cnt["w_operand"] + cnt["w_cross"]
        ) @ cost_write_tbl + cnt["w_result"] @ cost_write_tbl
        energy = EnergyBreakdown(
            read_pj=float(copies_read),
            write_pj=float(copies_write),
            shift_pj=float(cnt["prof_profiled"] @ prof_shift_tbl),
            compute_pj=float(cnt["prof_profiled"] @ prof_comp_tbl),
        )

        # ---- static per-category busy sums ------------------------------
        category_ns = {
            "copy": float(
                cnt["w_operand"] @ cost_tbl + cnt["w_result"] @ cost_tbl
            ),
            "exec": float(cnt["prof_compute"] @ prof_tbl),
            "tran": float(cnt["prof_insub"] @ prof_tbl),
            "bus": float(cnt["w_cross"] @ cost_tbl),
        }

        # ---- per-operation priced summaries -----------------------------
        # Every duration is a gather from one value vector; x + 0.0 == x,
        # so a sum whose other term is the 0.0 slot is the term itself.
        values = np.concatenate((prof_tbl, [0.0], cost_tbl))
        ops: List[_OpCost] = []
        for op in self._ops:
            weights = values[op.load_val]
            weights[: len(op.home_prof)] += values[op.home_prof]
            load_vals = np.bincount(
                op.load_pos,
                weights=weights,
                minlength=len(op.load_subs),
            )
            cost = _OpCost(load_vals, float(load_vals.max()))
            ops.append(cost)
            if not op.K:
                continue
            ev_dur = values[op.ev_val]
            ev_dur[op.ev_home] += values[op.ev_prof]
            res_dur = ev_dur[op.respos]
            # Within-segment inclusive cumulative duration; the slot past
            # the last event is 0.0 ("no reset").
            m = len(ev_dur)
            cd = np.empty(m + 1)
            np.cumsum(ev_dur, out=cd[:m])
            cd[:m] -= np.repeat(
                cd[op.first_pos] - ev_dur[op.first_pos], op.seg_len
            )
            cd[m] = 0.0
            # Appendage of each result join on its home side
            # (pass-1 feeders: cross resets only).
            reset_a_res = cd[op.res_home] - cd[op.res_home_reset] + res_dur
            # appendage = cd - (cd[last reset] - resetA[last reset]),
            # where resetA is zero at a cross reset.
            reset_base = cd.copy()
            reset_base[op.respos] -= reset_a_res
            appendage = cd[:m] - reset_base[op.last_reset]
            c = values[op.tr_val]
            period = c.copy()
            np.maximum(
                period,
                np.where(
                    op.ok_src,
                    (appendage[op.src_prev_idx] + c) / op.L_src,
                    0.0,
                ),
                out=period,
            )
            np.maximum(
                period,
                np.where(
                    op.ok_dst,
                    (appendage[op.dst_prev_idx] + c) / op.L_dst,
                    0.0,
                ),
                out=period,
            )
            # The slot past the last TRAN is -inf ("no feeder").
            chain = np.empty(op.K + 1)
            np.cumsum(period, out=chain[: op.K])
            chain[op.K] = -np.inf
            # A fed event finishes at base + chain[feeder] + appendage,
            # an unfed one at floor + appendage; the point stage adds
            # base and floor to these maxima.
            cost.fed_max = float((chain[op.feeder] + appendage).max())
            if len(op.unfed):
                cost.unfed_max = float(appendage[op.unfed].max())
            cost.chain_end = float(chain[op.K - 1])
        return _PricedTrace(energy, category_ns, ops)



def predict_trace(
    device,
    trace: ColumnarTrace,
    workload: str = "trace",
    op_starts: Optional[np.ndarray] = None,
) -> PredictedStats:
    """One-shot prediction of ``trace`` on ``device``.

    Convenience wrapper over :class:`TracePredictor` for callers that
    evaluate a single configuration; sweeps should build the predictor
    once and call :meth:`TracePredictor.predict` per point.
    """
    predictor = TracePredictor(
        trace,
        device.address_map.words_per_subarray,
        op_starts=op_starts,
    )
    return predictor.predict(device, workload=workload)


def predict_workload(
    spec,
    device=None,
    seed: int = DEFAULT_SEED,
    cache=None,
    cache_dir=None,
    use_cache: bool = True,
) -> PredictedStats:
    """Compile ``spec`` (through the trace cache) and predict its run.

    The compiled trace carries operation boundaries, so the prediction
    uses the full per-operation model.  Emits ``predictor.*`` metrics
    when the device has an observation collector attached.
    """
    import time as _time

    from repro.core.compile import compile_workload

    compiled = compile_workload(
        spec,
        device=device,
        seed=seed,
        cache=cache,
        cache_dir=cache_dir,
        use_cache=use_cache,
    )
    dev = compiled.device
    wall0 = _time.perf_counter()
    predicted = predict_trace(
        dev, compiled.trace, workload=spec.name
    )
    wall = _time.perf_counter() - wall0
    obs = getattr(dev, "obs", None)
    if obs is not None and getattr(obs, "enabled", False):
        from repro.obs.predictor_metrics import record_prediction

        record_prediction(
            obs, predicted, predict_seconds=wall,
            cache_hit=compiled.cache_hit,
        )
    return predicted
