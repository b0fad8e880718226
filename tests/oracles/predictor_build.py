"""Reference predictor build: per-operation ``unique``/``searchsorted``
subarray sets, a three-key ``lexsort`` event order and a float-encoded
segmented running max.

:class:`PredictorBuild` is the build stage of
:class:`repro.analysis.predictor.TracePredictor` as it was before the
build took subarray sets from a dense rank table, ordered bus events
with one stable sort and moved the cost stage's gathers into per-operation
index arrays.  It keeps the per-command columns that build dropped
(``_prof_inv``, ``_inv_size``, ``_inv_res``, ``_cross``, ``_insub``,
``_has_op``), so the per-point oracle (``point_predictor.py``) prices a
trace from this topology and never from the predictor under test, and
the differential tests hold every field the two builds share equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.analysis.predictor import _OpCost, _PricedTrace
from repro.core.scheduler import trace_dependencies
from repro.isa.columnar import ColumnarTrace, MUL_BYTE, TRAN_BYTE
from repro.sim.stats import EnergyBreakdown
from repro.sim.vector_exec import shape_keys


@dataclass
class _OpStructure:
    """Timing-independent topology of one source operation."""

    start: int
    end: int
    count_end: int  # cumulative commands through this op
    src_subs: np.ndarray  # unique source subarrays (busy floor)
    load_subs: np.ndarray  # unique subarrays receiving load
    load_pos: np.ndarray  # concat entry -> position in load_subs
    grp_rem: np.ndarray  # op-local cmd idx with operand copies
    grp_res: np.ndarray  # op-local cmd idx with result copies
    grp_cross: np.ndarray  # op-local cmd idx of cross TRANs
    # Bus event table (empty arrays when the op has no cross TRANs).
    K: int = 0
    tr_idx: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    ev_cmd: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    res_cmds: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    respos: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    dst_flat: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    first_pos: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    seg_len: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    res_home: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    res_home_lr1: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    res_home_has1: np.ndarray = field(default_factory=lambda: np.empty(0, bool))
    lr2: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    has2: np.ndarray = field(default_factory=lambda: np.empty(0, bool))
    lr2_res_pos: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    lr2_res_rank: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    f2_clip: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    fmask: np.ndarray = field(default_factory=lambda: np.empty(0, bool))
    src_evpos: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    dst_evpos: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    src_prev_idx: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    dst_prev_idx: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    L_src: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    L_dst: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    ok_src: np.ndarray = field(default_factory=lambda: np.empty(0, bool))
    ok_dst: np.ndarray = field(default_factory=lambda: np.empty(0, bool))


def _segmented_last_reset(
    is_reset: np.ndarray, seg_id: np.ndarray
) -> np.ndarray:
    """Per event, index of the latest reset event at or before it within
    its segment (-1 when none)."""
    m = len(is_reset)
    idx = np.arange(m, dtype=np.float64)
    rp = np.where(is_reset, idx, -1.0)
    big = float(m + 2)
    last = np.maximum.accumulate(rp + seg_id * big) - seg_id * big
    return np.rint(last).astype(np.int64)


class PredictorBuild:
    """Topology and per-command columns of one compiled trace.

    Args:
        trace: the compiled columnar trace.
        words_per_subarray: the geometry's subarray capacity.
        op_starts: operation boundaries; defaults to the trace's own,
            falling back to a single segment.
    """

    def __init__(
        self,
        trace: ColumnarTrace,
        words_per_subarray: int,
        op_starts: Optional[np.ndarray] = None,
    ) -> None:
        if words_per_subarray < 1:
            raise ValueError(
                f"words_per_subarray must be positive, got "
                f"{words_per_subarray}"
            )
        self.words_per_subarray = int(words_per_subarray)
        self.commands = len(trace)
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
            self._prof_inv = np.empty(0, np.int64)
            self._word_uniq = np.empty(0, np.int64)
            self._inv_size = np.empty(0, np.int64)
            self._inv_res = np.empty(0, np.int64)
            self._cnt = {}
            self._cross = np.empty(0, bool)
            self._insub = np.empty(0, bool)
            self._has_op = np.empty(0, bool)
            return

        deps = trace_dependencies(trace, self.words_per_subarray)
        home = deps.home.astype(np.int64)
        remote = deps.remote.astype(np.int64)
        dest = deps.dest.astype(np.int64)
        cross = deps.uses_bus.astype(bool)
        insub = (opcode == TRAN_BYTE) & ~cross
        has_op = remote >= 0
        has_res = compute & (dest >= 0)
        profiled = compute | ~cross
        self.cross_trans = int(cross.sum())
        self.n_subs = int(
            max(home.max(), remote.max(), dest.max()) + 1
        )
        self._cross = cross
        self._insub = insub
        self._has_op = has_op

        # Unique packed (opcode, size) shapes of the profiled commands.
        # A cross-subarray TRAN is timed as a bus copy, so it has no
        # shape: its row points one past the table, at a zero profile.
        uniq, inverse = np.unique(
            shape_keys(opcode[profiled], size[profiled]),
            return_inverse=True,
        )
        prof_inv = np.full(self.commands, len(uniq), np.int64)
        prof_inv[profiled] = inverse
        self._prof_inv = prof_inv
        self._shape_keys = uniq.tolist()

        # Unique copy word counts (operand/cross copies move `size`
        # words; result copies move 1 word for MUL, `size` otherwise).
        result_words = np.where(opcode == MUL_BYTE, 1, size)
        self._word_uniq = np.unique(
            np.concatenate((size, result_words))
        )
        self._inv_size = np.searchsorted(self._word_uniq, size)
        self._inv_res = np.searchsorted(self._word_uniq, result_words)

        # Static occurrence counts for the exact energy / category sums.
        n_p = len(uniq)
        n_w = len(self._word_uniq)
        self._cnt = {
            "prof_profiled": np.bincount(
                inverse, minlength=n_p
            ).astype(np.float64),
            "prof_compute": np.bincount(
                prof_inv[compute], minlength=n_p
            ).astype(np.float64),
            "prof_insub": np.bincount(
                prof_inv[insub], minlength=n_p
            ).astype(np.float64),
            "w_operand": np.bincount(
                self._inv_size[has_op], minlength=n_w
            ).astype(np.float64),
            "w_cross": np.bincount(
                self._inv_size[cross], minlength=n_w
            ).astype(np.float64),
            "w_result": np.bincount(
                self._inv_res[has_res], minlength=n_w
            ).astype(np.float64),
        }

        self._ops = [
            self._build_op(
                s, e, home, remote, dest, cross, has_op, has_res
            )
            for s, e in slices
        ]

    # ------------------------------------------------------------------
    def _build_op(
        self, s, e, home, remote, dest, cross, has_op, has_res
    ) -> _OpStructure:
        n = e - s
        h = home[s:e]
        r = remote[s:e]
        d = dest[s:e]
        cr = cross[s:e]
        ho = has_op[s:e]
        hr = has_res[s:e]
        grp_rem = np.flatnonzero(ho)
        grp_res = np.flatnonzero(hr)
        grp_cross = np.flatnonzero(cr)
        concat_subs = np.concatenate(
            (h, r[grp_rem], d[grp_res], d[grp_cross])
        )
        load_subs = np.unique(concat_subs)
        load_pos = np.searchsorted(load_subs, concat_subs)
        src_subs = np.unique(np.concatenate((h, r[grp_rem])))
        op = _OpStructure(
            start=int(s),
            end=int(e),
            count_end=int(e),
            src_subs=src_subs,
            load_subs=load_subs,
            load_pos=load_pos,
            grp_rem=grp_rem,
            grp_res=grp_res,
            grp_cross=grp_cross,
        )
        K = len(grp_cross)
        if K == 0:
            return op

        tr_idx = grp_cross
        k_of = np.full(n, -1, dtype=np.int64)
        k_of[tr_idx] = np.arange(K)

        # Event table: home occupancy of every command (rank 1; kind 2
        # when the command is a cross TRAN, else 0), result-copy joins
        # on the destination subarray (rank 2, kind 1), and cross-TRAN
        # arrivals on the destination (rank 1, kind 3).
        ev_sub = np.concatenate((h, d[grp_res], d[tr_idx]))
        ev_cmd = np.concatenate((np.arange(n), grp_res, tr_idx))
        ev_rank = np.concatenate(
            (
                np.full(n, 1, np.int64),
                np.full(len(grp_res), 2, np.int64),
                np.full(K, 1, np.int64),
            )
        )
        ev_kind = np.concatenate(
            (
                np.where(cr, 2, 0).astype(np.int64),
                np.full(len(grp_res), 1, np.int64),
                np.full(K, 3, np.int64),
            )
        )
        order = np.lexsort((ev_rank, ev_cmd, ev_sub))
        ev_sub = ev_sub[order]
        ev_cmd = ev_cmd[order]
        ev_kind = ev_kind[order]
        m = len(ev_sub)
        seg_start = np.zeros(m, dtype=bool)
        seg_start[0] = True
        seg_start[1:] = ev_sub[1:] != ev_sub[:-1]
        seg_id = (np.cumsum(seg_start) - 1).astype(np.float64)
        first_pos = np.flatnonzero(seg_start)
        seg_len = np.diff(np.append(first_pos, m))

        is_cross_ev = (ev_kind == 2) | (ev_kind == 3)
        is_res_ev = ev_kind == 1

        # Pass 1: feeders with only cross events as resets.
        lr1 = _segmented_last_reset(is_cross_ev, seg_id)
        has1 = lr1 >= 0
        lr1_safe = np.where(has1, lr1, 0)
        fvals1 = np.full(m, -1, dtype=np.int64)
        fvals1[is_cross_ev] = k_of[ev_cmd[is_cross_ev]]
        f1 = np.where(has1, fvals1[lr1_safe], -1)

        # Home-side event position of every command (kind 0 or 2).
        home_ev = (ev_kind == 0) | (ev_kind == 2)
        home_evpos = np.empty(n, dtype=np.int64)
        home_evpos[ev_cmd[home_ev]] = np.flatnonzero(home_ev)
        respos = np.flatnonzero(is_res_ev)
        res_home = home_evpos[ev_cmd[respos]]

        # Pass 2: result joins also reset (they import the home side's
        # feeder and accumulated appendage).
        lr2 = _segmented_last_reset(is_cross_ev | is_res_ev, seg_id)
        has2 = lr2 >= 0
        lr2_safe = np.where(has2, lr2, 0)
        fvals2 = fvals1.copy()
        fvals2[respos] = f1[res_home]
        f2 = np.where(has2, fvals2[lr2_safe], -1)
        prevf = np.empty(m, dtype=np.int64)
        prevf[0] = -1
        prevf[1:] = f2[:-1]
        prevf[seg_start] = -1

        # Resets whose appendage base is a result join (vs zero).
        lr2_res_pos = np.flatnonzero(has2 & is_res_ev[lr2_safe])
        lr2_res_rank = np.searchsorted(respos, lr2_safe[lr2_res_pos])

        cmask = ev_kind == 2
        dmask = ev_kind == 3
        src_evpos = np.empty(K, dtype=np.int64)
        src_evpos[k_of[ev_cmd[cmask]]] = np.flatnonzero(cmask)
        dst_evpos = np.empty(K, dtype=np.int64)
        dst_evpos[k_of[ev_cmd[dmask]]] = np.flatnonzero(dmask)
        karr = np.arange(K)
        pf_src = prevf[src_evpos]
        pf_dst = prevf[dst_evpos]

        op.K = K
        op.tr_idx = tr_idx
        op.ev_cmd = ev_cmd
        op.res_cmds = ev_cmd[respos]
        op.respos = respos
        op.dst_flat = np.flatnonzero(dmask)
        op.first_pos = first_pos
        op.seg_len = seg_len
        op.res_home = res_home
        op.res_home_lr1 = lr1_safe[res_home]
        op.res_home_has1 = has1[res_home]
        op.lr2 = lr2_safe
        op.has2 = has2
        op.lr2_res_pos = lr2_res_pos
        op.lr2_res_rank = lr2_res_rank
        op.f2_clip = np.clip(f2, 0, K - 1)
        op.fmask = f2 >= 0
        op.src_evpos = src_evpos
        op.dst_evpos = dst_evpos
        op.src_prev_idx = np.maximum(src_evpos - 1, 0)
        op.dst_prev_idx = np.maximum(dst_evpos - 1, 0)
        op.L_src = np.maximum(karr - pf_src, 1)
        op.L_dst = np.maximum(karr - pf_dst, 1)
        op.ok_src = pf_src >= 0
        op.ok_dst = pf_dst >= 0
        return op

    # ------------------------------------------------------------------
    def price(
        self, prof_tbl, prof_shift_tbl, prof_comp_tbl,
        cost_tbl, cost_read_tbl, cost_write_tbl,
    ) -> _PricedTrace:
        """Cost stage: price every operation against one set of tables,
        rebuilding the per-command duration columns from the tables."""
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

        # ---- per-command duration columns -------------------------------
        prof = np.append(prof_tbl, 0.0)[self._prof_inv]
        copy = cost_tbl[self._inv_size]
        res = cost_tbl[self._inv_res]
        cross = self._cross
        insub = self._insub
        has_op = self._has_op
        dur_home = np.where(
            cross,
            0.0,
            np.where(insub, prof, prof + np.where(has_op, copy, 0.0)),
        )
        home_load = np.where(cross, copy, dur_home)

        # ---- per-operation priced summaries -----------------------------
        ops: List[_OpCost] = []
        for op in self._ops:
            s, e = op.start, op.end
            c_copy = copy[s:e]
            c_res = res[s:e]
            concat_vals = np.concatenate(
                (
                    home_load[s:e],
                    c_copy[op.grp_rem],
                    c_res[op.grp_res],
                    c_copy[op.grp_cross],
                )
            )
            load_vals = np.bincount(
                op.load_pos,
                weights=concat_vals,
                minlength=len(op.load_subs),
            )
            cost = _OpCost(load_vals, float(load_vals.max()))
            ops.append(cost)
            if not op.K:
                continue
            # Event durations: home occupancy by default, the
            # result-copy cost at join events, zero at arrivals.
            ev_dur = dur_home[s:e][op.ev_cmd]
            res_dur = c_res[op.res_cmds]
            ev_dur[op.respos] = res_dur
            ev_dur[op.dst_flat] = 0.0
            # Within-segment inclusive cumulative duration.
            cd = np.cumsum(ev_dur)
            seg_base = np.repeat(
                cd[op.first_pos] - ev_dur[op.first_pos], op.seg_len
            )
            cd -= seg_base
            # Appendage of each result join on its home side
            # (pass-1 feeders: cross resets only).
            a1_res = cd[op.res_home] - np.where(
                op.res_home_has1, cd[op.res_home_lr1], 0.0
            )
            reset_a_res = a1_res + res_dur
            # appendage = cd - (cd[last reset] - resetA[last reset])
            shift = np.where(op.has2, cd[op.lr2], 0.0)
            if len(op.lr2_res_pos):
                shift[op.lr2_res_pos] -= reset_a_res[op.lr2_res_rank]
            appendage = cd - shift
            c = c_copy[op.tr_idx]
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
            chain = np.cumsum(period)
            # A fed event finishes at base + chain[feeder] + appendage,
            # an unfed one at floor + appendage; the point stage adds
            # base and floor to these maxima.
            cost.fed_max = float(
                np.where(
                    op.fmask, chain[op.f2_clip] + appendage, -np.inf
                ).max()
            )
            cost.unfed_max = float(
                np.where(op.fmask, -np.inf, appendage).max()
            )
            cost.chain_end = float(chain[-1])
        return _PricedTrace(energy, category_ns, ops)
