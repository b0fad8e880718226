"""Tests for the fault-injection / recovery subsystem (repro.resilience).

The load-bearing properties:

* with fault probability zero, a fault-injected run is bit-identical to
  a plain ``execute_trace`` on both the product executor and the
  per-VPC reference loop (``tests/oracles/scalar_exec.py``) — stats AND
  word stores;
* under one seed, the executor and the reference loop produce equal
  ``ReliabilityRunReport``s, equal stats, and equal stores;
* the default retry policy repairs every guard-detected fault, so the
  only corruption left is the undetected (SDC) fraction;
* campaign sampling is consistent with the analytic
  ``RedundancyAnalysis`` hop/fault model, and sequential == parallel.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.compile import compile_workload
from repro.core.redundancy import RedundancyAnalysis, RedundancyConfig
from repro.isa.columnar import ColumnarTrace
from repro.resilience import (
    FaultCampaignConfig,
    RecoveryPolicy,
    build_fault_plan,
    build_session,
    corrupt_words,
    run_campaign,
    run_with_faults,
)
from repro.rm.faults import FaultInjector, FaultyRacetrack, ShiftFaultConfig
from repro.rm.nanowire import ShiftError
from repro.sim.errors import SimulationFault, trace_byte_offset
from repro.workloads import polybench_workload
from tests.oracles import scalar_exec

SCALE = 0.01

ZERO = FaultCampaignConfig(faults=ShiftFaultConfig(p_per_step=0.0))
FAULTY = FaultCampaignConfig(faults=ShiftFaultConfig(p_per_step=2e-6))
NOISY = ShiftFaultConfig(p_per_step=5e-6, guard_detection=0.9)


def _task(name: str = "gemm"):
    return polybench_workload(name, scale=SCALE).build_task()


def _device(engine: str):
    """A fresh gemm device; ``"scalar"`` routes it through the oracle."""
    device = _task().device
    if engine == "scalar":
        scalar_exec.use_scalar_engine(device)
    return device


@pytest.fixture(scope="module")
def gemm_trace():
    return _task().to_trace()


class TestZeroProbabilityIdentity:
    @pytest.mark.parametrize("engine", ["scalar", "vector"])
    def test_bit_identical_to_plain_run(self, engine, gemm_trace):
        plain_device = _device(engine)
        plain = plain_device.execute_trace(gemm_trace)
        device = _device(engine)
        stats, report = run_with_faults(
            device, gemm_trace, config=ZERO, seed=7
        )
        assert stats == plain
        assert device.store.snapshot() == plain_device.store.snapshot()
        assert report.injected == 0
        assert report.undetected == 0
        assert report.recovery_ns == 0.0
        assert report.recovery_pj == 0.0


class TestEngineParity:
    @pytest.mark.parametrize(
        "config",
        [
            FAULTY,
            FaultCampaignConfig(
                faults=NOISY, policy=RecoveryPolicy.DEGRADE
            ),
        ],
        ids=["retry", "degrade"],
    )
    def test_seeded_runs_match_across_engines(self, config, gemm_trace):
        results = {}
        for engine in ("scalar", "vector"):
            device = _device(engine)
            stats, report = run_with_faults(
                device, gemm_trace, config=config, seed=42
            )
            results[engine] = (stats, report, device.store.snapshot())
        s_stats, s_report, s_store = results["scalar"]
        v_stats, v_report, v_store = results["vector"]
        assert s_report == v_report
        assert s_stats == v_stats
        assert s_store == v_store
        assert s_report.injected > 0  # the config actually injected

    def test_abort_parity_and_fault_location(self, gemm_trace):
        from repro.core.stream import iter_trace_chunks

        config = FaultCampaignConfig(
            faults=NOISY, policy=RecoveryPolicy.ABORT
        )
        stores = {}
        errors = {}
        for engine in ("scalar", "vector", "stream"):
            device = _device(engine)
            session = build_session(device, gemm_trace, config, 42)
            assert session.abort_index is not None
            with pytest.raises(SimulationFault) as excinfo:
                if engine == "stream":
                    device.execute_trace_stream(
                        iter_trace_chunks(gemm_trace, 64), faults=session
                    )
                else:
                    device.execute_trace(gemm_trace, faults=session)
            stores[engine] = device.store.snapshot()
            errors[engine] = excinfo.value
        assert stores["scalar"] == stores["vector"] == stores["stream"]
        scalar_err, vector_err = errors["scalar"], errors["vector"]
        assert str(scalar_err) == str(vector_err) == str(errors["stream"])
        assert scalar_err.index == vector_err.index
        assert scalar_err.offset == trace_byte_offset(scalar_err.index)
        assert scalar_err.line == scalar_err.index + 1


class TestRecoveryPolicies:
    def test_retry_repairs_every_detected_fault(self, gemm_trace):
        device = _task().device
        stats, report = run_with_faults(
            device, gemm_trace, config=FAULTY, seed=3
        )
        assert stats is not None
        assert report.injected > 0
        assert report.recovered == report.detected
        assert report.sdc_events <= report.undetected
        assert report.retries >= report.detected
        assert stats.time_breakdown.recovery_ns == report.recovery_ns
        assert stats.energy.recovery_pj == report.recovery_pj

    def test_recovery_charges_extend_plain_run(self, gemm_trace):
        plain = _task().device.execute_trace(gemm_trace)
        stats, report = run_with_faults(
            _task().device, gemm_trace, config=FAULTY, seed=3
        )
        assert report.recovery_ns > 0.0
        assert stats.time_ns == pytest.approx(
            plain.time_ns + report.recovery_ns
        )

    def test_abort_reports_stats_none(self, gemm_trace):
        config = FaultCampaignConfig(
            faults=NOISY, policy=RecoveryPolicy.ABORT
        )
        stats, report = run_with_faults(
            _task().device, gemm_trace, config=config, seed=42
        )
        assert stats is None
        assert report.aborted
        assert report.time_ns is None
        assert report.abort_index is not None

    def test_degrade_quarantines_faulty_subarrays(self, gemm_trace):
        config = FaultCampaignConfig(
            faults=NOISY, policy=RecoveryPolicy.DEGRADE
        )
        stats, report = run_with_faults(
            _task().device, gemm_trace, config=config, seed=42
        )
        assert stats is not None
        assert report.detected > 0
        assert len(report.quarantined) >= 1
        assert len(set(report.quarantined)) == len(report.quarantined)
        assert report.recovery_ns > 0.0


class TestDegradeRemapTarget:
    """``degrade`` remaps each quarantined subarray to the least-loaded
    healthy PIM subarray of the run's placement, charging each remap's
    load to its target."""

    CONFIG = FaultCampaignConfig(faults=NOISY, policy=RecoveryPolicy.DEGRADE)

    @staticmethod
    def _plan_loads(plan):
        """Words per subarray, summed straight from the slice tables."""
        loads = {}
        handles = list(plan.matrices.values())
        while handles:
            handle = handles.pop()
            if handle.mirror is not None:
                handles.append(handle.mirror)
            for bank, subarray, _, _, length in handle.slices.tolist():
                loads[bank, subarray] = loads.get((bank, subarray), 0) + length
        return loads

    @staticmethod
    def _pool(device):
        """Every PIM subarray key, in key order."""
        geometry = device.config.geometry
        per_bank = geometry.bank.subarrays
        return [
            divmod(index, per_bank)
            for index in range(geometry.pim_banks * per_bank)
        ]

    def test_targets_follow_plan_load(self):
        compiled = compile_workload(
            polybench_workload("gemm", scale=SCALE), use_cache=False
        )
        plan = compiled.task.placement_plan
        session = build_session(
            compiled.device, compiled.trace, self.CONFIG, 9, plan
        )
        pool = self._pool(compiled.device)
        loads = self._plan_loads(plan)
        quarantined = set()
        assert len(session.remapped) > 1
        for key, target in session.remapped:
            quarantined.add(key)
            healthy = [
                (loads.get(candidate, 0), candidate)
                for candidate in pool
                if candidate not in quarantined
            ]
            assert target == min(healthy)[1]
            loads[target] = loads.get(target, 0) + loads.get(key, 0)
        targets = [target for _, target in session.remapped]
        assert len(set(targets)) > len(targets) // 2

    def test_bare_trace_takes_lowest_healthy_key(self, gemm_trace):
        device = _task().device
        session = build_session(device, gemm_trace, self.CONFIG, 9)
        pool = self._pool(device)
        quarantined = set()
        assert session.remapped
        for key, target in session.remapped:
            quarantined.add(key)
            assert target == min(set(pool) - quarantined)


class TestShiftErrorWrapping:
    class _Boom:
        """Duck-typed fault session whose corruption hook blows up."""

        abort_index = None
        recovery_ns = 0.0
        recovery_pj = 0.0
        drift = {2: 1}

        def corrupt_values(self, values, drift):
            raise ShiftError("stub misalignment escaped")

        def abort_error(self):  # pragma: no cover - never aborted
            raise AssertionError("abort_error should not be called")

    @pytest.mark.parametrize("engine", ["scalar", "vector"])
    def test_escaping_shift_error_becomes_typed_fault(
        self, engine, gemm_trace
    ):
        device = _device(engine)
        with pytest.raises(SimulationFault) as excinfo:
            device.execute_trace(gemm_trace, faults=self._Boom())
        fault = excinfo.value
        assert fault.index == 2
        assert fault.offset == trace_byte_offset(2)
        assert "vpc #2" in str(fault)
        assert isinstance(fault.__cause__, ShiftError)


class TestAnalyticConsistency:
    def test_plan_hops_match_redundancy_analysis(self, gemm_trace):
        analysis = RedundancyAnalysis(
            RedundancyConfig(), faults=FAULTY.faults
        )
        sizes = np.fromiter(
            (vpc.size for vpc in gemm_trace),
            np.int64,
            count=len(gemm_trace),
        )
        src1 = np.zeros(len(gemm_trace), dtype=np.int64)
        device = _task().device
        plan = build_fault_plan(
            sizes, src1, FAULTY, device.config.bus, seed=0
        )
        assert plan.hops_total == sum(
            analysis.transfer_hops(int(size)) for size in sizes
        )
        expected = sum(
            analysis.expected_undetected_faults(int(size))
            for size in sizes
        )
        assert plan.expected_undetected == pytest.approx(expected)

    def test_campaign_injection_rate_within_mc_error(self):
        report = run_campaign(
            "gemm", config=FAULTY, scale=SCALE, runs=8, master_seed=1
        )
        hops = report.runs[0].hops
        p_hop = report.runs[0].p_hop
        mean = report.n_runs * hops * p_hop
        sigma = (report.n_runs * hops * p_hop * (1 - p_hop)) ** 0.5
        assert abs(report.total_injected - mean) < 6 * sigma
        assert (
            report.expected_undetected_per_run
            == pytest.approx(hops * p_hop * (1 - FAULTY.faults.guard_detection))
        )

    def test_campaign_mttf_consistent_with_analytic(self):
        config = FaultCampaignConfig(
            faults=ShiftFaultConfig(
                p_per_step=5e-6, guard_detection=0.95
            )
        )
        report = run_campaign(
            "gemm", config=config, scale=SCALE, runs=12, master_seed=7
        )
        assert report.mttf_ns is not None
        assert report.analytic_mttf_ns is not None
        # Per-run silent faults are Binomial(hops, p_silent); with n
        # runs the observed/expected MTTF ratio concentrates around 1.
        expected = report.expected_undetected_per_run * report.n_runs
        sigma = expected**0.5
        low = expected - 4 * sigma
        high = expected + 4 * sigma
        assert low < report.total_undetected < high


class TestCampaigns:
    def test_sequential_equals_parallel(self):
        kwargs = dict(config=FAULTY, scale=SCALE, runs=4, master_seed=5)
        sequential = run_campaign("gemm", jobs=1, **kwargs)
        parallel = run_campaign("gemm", jobs=2, **kwargs)
        assert sequential == parallel

    def test_spawned_seeds_match_seedsequence_spawn(self):
        master = np.random.SeedSequence(11)
        children = master.spawn(4)
        for index, child in enumerate(children):
            rebuilt = np.random.SeedSequence(11, spawn_key=(index,))
            a = np.random.default_rng(child).integers(0, 2**63, 8)
            b = np.random.default_rng(rebuilt).integers(0, 2**63, 8)
            assert np.array_equal(a, b)

    def test_report_round_trips_to_json(self, tmp_path):
        report = run_campaign(
            "gemm", config=FAULTY, scale=SCALE, runs=2, master_seed=9
        )
        target = tmp_path / "campaign.json"
        report.to_json(target)
        import json

        payload = json.loads(target.read_text())
        assert payload["n_runs"] == 2
        assert len(payload["runs"]) == 2
        assert payload["workload"] == "gemm"

    def test_rejects_unknown_workload_and_bad_runs(self):
        with pytest.raises(ValueError):
            run_campaign("no-such-kernel", runs=1)
        with pytest.raises(ValueError):
            run_campaign("gemm", runs=0)


class TestCorruption:
    def test_zero_drift_is_identity(self):
        values = np.array([0, 1, 5, 2**40], dtype=np.int64)
        assert np.array_equal(corrupt_words(values, 0), values)

    def test_nonzero_drift_changes_nonzero_words(self):
        values = np.array([3, 99, 2**20], dtype=np.int64)
        corrupted = corrupt_words(values, 1)
        assert not np.array_equal(corrupted, values)

    def test_corruption_is_a_bijection(self):
        values = np.arange(1, 257, dtype=np.int64)
        for drift in (1, -1, 5, -13):
            forward = corrupt_words(values, drift)
            assert len(set(forward.tolist())) == len(values)
            assert np.array_equal(corrupt_words(forward, -drift), values)

    def test_corrupted_words_stay_nonnegative_int64(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 2**31, 512, dtype=np.int64)
        for drift in (1, -2, 30, 31, -31, 64):
            corrupted = corrupt_words(values, drift)
            assert corrupted.dtype == np.int64
            assert (corrupted >= 0).all()
            assert (corrupted < 2**31).all()

    def test_high_bits_preserved(self):
        values = np.array([(1 << 40) | 7], dtype=np.int64)
        corrupted = corrupt_words(values, 3)
        assert int(corrupted[0]) >> 31 == (1 << 40) >> 31


class TestConfigValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            FaultCampaignConfig(max_retries=0)
        with pytest.raises(ValueError):
            FaultCampaignConfig(backoff=0.5)
        with pytest.raises(ValueError):
            FaultCampaignConfig(policy="retry")

    def test_policy_values(self):
        assert RecoveryPolicy("retry") is RecoveryPolicy.RETRY
        assert RecoveryPolicy("abort") is RecoveryPolicy.ABORT
        assert RecoveryPolicy("degrade") is RecoveryPolicy.DEGRADE


class TestGuardDetectionStatistics:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_injector_detection_rate_matches_config(self, seed):
        rate = 0.7
        injector = FaultInjector(
            ShiftFaultConfig(guard_detection=rate), seed
        )
        trials = 2000
        hits = sum(injector.guard_detects() for _ in range(trials))
        assert injector.detected == hits
        assert injector.undetected == trials - hits
        # 6 sigma of Bernoulli(0.7) over 2000 trials ~= 0.061.
        assert abs(hits / trials - rate) < 0.07

    @settings(max_examples=6, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_faulty_racetrack_detection_tallies(self, seed):
        rate = 0.85
        injector = FaultInjector(
            ShiftFaultConfig(p_per_step=0.2, guard_detection=rate),
            seed,
        )
        track = FaultyRacetrack(256, injector=injector)
        for _ in range(120):
            try:
                track.shift_with_guard(1)
                track.shift_with_guard(-1)
            except ShiftError:  # pragma: no cover - drift hit a stop
                break
        trials = injector.detected + injector.undetected
        assert trials > 0
        sigma = (trials * rate * (1 - rate)) ** 0.5
        assert abs(injector.detected - trials * rate) < 6 * sigma + 3
