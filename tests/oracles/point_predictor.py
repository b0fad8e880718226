"""Per-point reference prediction: what the staged predictor replaces.

:func:`predict` is :meth:`repro.analysis.predictor.TracePredictor.predict`
as it was before the cost stage was split out: it rebuilds every
per-command duration column from the device's cost tables and walks
each operation's bus events at every design point, with no memo.  It
reads its columns and topology from the reference build
(:class:`~tests.oracles.predictor_build.PredictorBuild`), never from the
predictor under test, so a build fault shows in the differential.  The
differential tests hold the staged predictor equal to it (``time_ns`` to
rounding, since ``term_c`` is reassociated there; energy and
``category_ns`` bit for bit).
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.predictor import PredictedStats
from repro.isa.encoding import BYTE_TO_OPCODE
from repro.isa.vpc import VPC, VPCOpcode
from repro.sim.stats import EnergyBreakdown, TimeBreakdown
from tests.oracles.predictor_build import PredictorBuild


def predict(
    predictor: PredictorBuild, device, workload: str = "trace"
) -> PredictedStats:
    """Evaluate one device configuration against ``predictor``'s trace.

    ``predictor`` is the reference build of the trace.  ``device`` is
    anything with the device cost surface — a
    :class:`~repro.core.device.StreamPIMDevice` or the lighter
    :class:`AnalyticDevice` — whose geometry matches the
    ``words_per_subarray`` the build was made with.
    """
    if device.address_map.words_per_subarray != predictor.words_per_subarray:
        raise ValueError(
            f"geometry mismatch: predictor built for "
            f"{predictor.words_per_subarray} words/subarray, device has "
            f"{device.address_map.words_per_subarray}"
        )
    if predictor.commands == 0:
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

    # ---- per-unique-shape cost tables -------------------------------
    protos = []
    for packed in predictor._shape_keys:
        opcode = BYTE_TO_OPCODE[packed >> 48]
        words = packed & ((1 << 48) - 1)
        if opcode is VPCOpcode.TRAN:
            protos.append(VPC.tran(0, 0, words))
        else:
            protos.append(VPC(opcode, 0, 0, 0, words))
    n_p = len(protos)
    prof_tbl = np.empty(n_p)
    prof_shift_tbl = np.empty(n_p)
    prof_comp_tbl = np.empty(n_p)
    profile = device.engine_model.profile
    for j, proto in enumerate(protos):
        p = profile(proto)
        prof_tbl[j] = p.time_ns
        prof_shift_tbl[j] = p.energy.shift_pj
        prof_comp_tbl[j] = p.energy.compute_pj
    model = device.config.prep_model
    n_w = len(predictor._word_uniq)
    cost_tbl = np.empty(n_w)
    cost_read_tbl = np.empty(n_w)
    cost_write_tbl = np.empty(n_w)
    for j, count in enumerate(predictor._word_uniq.tolist()):
        cost_tbl[j] = device._copy_cost_ns(count)
        reads = math.ceil(count / model.access_width_words)
        writes = math.ceil(count / model.write_access_width_words)
        cost_read_tbl[j] = reads * device.timing.read_pj
        cost_write_tbl[j] = writes * device.timing.write_pj

    # ---- exact energy (the engine's three static slots) -------------
    cnt = predictor._cnt
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
    # Cross-subarray TRANs have no shape: their rows point one past the
    # table, at a zero profile.
    prof = np.append(prof_tbl, 0.0)[predictor._prof_inv]
    copy = cost_tbl[predictor._inv_size]
    res = cost_tbl[predictor._inv_res]
    cross = predictor._cross
    insub = predictor._insub
    has_op = predictor._has_op
    dur_home = np.where(
        cross,
        0.0,
        np.where(insub, prof, prof + np.where(has_op, copy, 0.0)),
    )
    home_load = np.where(cross, copy, dur_home)

    # ---- per-operation max-plus composition -------------------------
    decode_ns = device.config.vpc_decode_ns
    busy = np.zeros(predictor.n_subs)
    bus = 0.0
    total = 0.0
    for op in predictor._ops:
        s, e = op.start, op.end
        c_home = home_load[s:e]
        c_copy = copy[s:e]
        c_res = res[s:e]
        c_dur = dur_home[s:e]
        concat_vals = np.concatenate(
            (
                c_home,
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
        floor = float(busy[op.src_subs].max())
        term_a = float((busy[op.load_subs] + load_vals).max())
        term_b = floor + float(load_vals.max())
        dec_fin = op.count_end * decode_ns
        term_c = 0.0
        bus_new = bus
        if op.K:
            # Event durations: home occupancy by default, the
            # result-copy cost at join events, zero at arrivals.
            ev_dur = c_dur[op.ev_cmd]
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
            base = max(bus, floor)
            t_hat = (
                np.where(op.fmask, base + chain[op.f2_clip], floor)
                + appendage
            )
            term_c = float(t_hat.max())
            bus_new = base + float(chain[-1])
        finish = max(dec_fin, term_a, term_b, term_c)
        busy[op.load_subs] = finish
        if op.K:
            bus = max(bus_new, bus)
        total = max(total, finish)

    # ---- breakdown mirror (proportional overlap) --------------------
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
        energy=energy,
        time_breakdown=breakdown,
        category_ns=category_ns,
        pim_vpcs=predictor.pim_vpcs,
        move_vpcs=predictor.move_vpcs,
        commands=predictor.commands,
        ops=predictor.ops,
        cross_trans=predictor.cross_trans,
    )
