"""Operational validation of the closed-form timing algebra.

The analytic mode's costs rest on two formulas: the pipeline latency
``fill + (n-1)*II`` and the bus transfer ``n_segments + (chunks-1)*2``.
These tests prove both against explicit cycle-by-cycle simulations,
including the structural invariants (in-order completion, one-segment
shifts, the data/empty alternation of Fig. 12).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.processor import RMProcessor, RMProcessorConfig
from repro.core.rmbus import RMBus, RMBusConfig
from repro.isa.vpc import VPCOpcode
from repro.sim.pipeline import PipelineModel, PipelineStage
from tests.oracles.bus_sim import SegmentedBusSimulator
from tests.oracles.cycle_sim import PipelineSimulator


class TestPipelineSimulator:
    @pytest.mark.parametrize(
        "opcode", [VPCOpcode.MUL, VPCOpcode.SMUL, VPCOpcode.ADD]
    )
    @pytest.mark.parametrize("n", [1, 2, 7, 64, 500])
    def test_processor_pipelines_match_closed_form(self, opcode, n):
        processor = RMProcessor()
        sim = PipelineSimulator(processor.pipeline_for(opcode))
        assert sim.matches_closed_form(n)

    def test_duplicator_variants_match(self):
        for duplicators in (1, 2, 4, 8):
            processor = RMProcessor(RMProcessorConfig(duplicators=duplicators))
            sim = PipelineSimulator(processor.pipeline_for(VPCOpcode.MUL))
            assert sim.matches_closed_form(100), duplicators

    @settings(max_examples=40, deadline=None)
    @given(
        depths=st.lists(st.integers(1, 6), min_size=1, max_size=5),
        intervals=st.lists(st.integers(1, 5), min_size=1, max_size=5),
        n=st.integers(min_value=1, max_value=60),
    )
    def test_property_arbitrary_pipelines_match(self, depths, intervals, n):
        stages = tuple(
            PipelineStage(f"s{i}", depth=d, interval=iv)
            for i, (d, iv) in enumerate(zip(depths, intervals))
        )
        model = PipelineModel(stages)
        assert PipelineSimulator(model).matches_closed_form(n)

    def test_items_complete_in_order(self):
        processor = RMProcessor()
        sim = PipelineSimulator(processor.pipeline_for(VPCOpcode.MUL))
        timelines = sim.simulate(20)
        completions = [t.completion_cycle for t in timelines]
        assert completions == sorted(completions)

    def test_stage_admissions_respect_intervals(self):
        model = PipelineModel((PipelineStage("s", depth=2, interval=3),))
        timelines = PipelineSimulator(model).simulate(5)
        admissions = [t.enter["s"] for t in timelines]
        gaps = [b - a for a, b in zip(admissions, admissions[1:])]
        assert all(gap >= 3 for gap in gaps)

    def test_empty_stream(self):
        model = PipelineModel((PipelineStage("s", depth=1),))
        assert PipelineSimulator(model).total_cycles(0) == 0

    def test_negative_rejected(self):
        model = PipelineModel((PipelineStage("s", depth=1),))
        with pytest.raises(ValueError):
            PipelineSimulator(model).simulate(-1)


class TestBusSimulator:
    @pytest.mark.parametrize(
        "segment,length,words",
        [
            (16, 64, 1),
            (16, 64, 16),
            (16, 64, 40),
            (16, 64, 200),
            (64, 256, 300),
            (256, 4096, 2000),
            (1024, 4096, 2000),
        ],
    )
    def test_matches_closed_form(self, segment, length, words):
        config = RMBusConfig(segment_domains=segment, length_domains=length)
        assert SegmentedBusSimulator(config).matches_closed_form(words)

    @settings(max_examples=30, deadline=None)
    @given(
        segment=st.sampled_from([8, 16, 32, 64]),
        words=st.integers(min_value=1, max_value=400),
    )
    def test_property_matches_closed_form(self, segment, words):
        config = RMBusConfig(segment_domains=segment, length_domains=8 * segment)
        assert SegmentedBusSimulator(config).matches_closed_form(words)

    def test_alternation_invariant(self):
        """Fig. 12: a data segment is always followed by an empty one."""
        config = RMBusConfig(segment_domains=16, length_domains=128)
        log = SegmentedBusSimulator(config).simulate_transfer(200)
        assert log.max_adjacent_data == 1

    def test_chunks_arrive_in_order_every_two_cycles(self):
        config = RMBusConfig(segment_domains=16, length_domains=64)
        log = SegmentedBusSimulator(config).simulate_transfer(64)  # 4 chunks
        gaps = [b - a for a, b in zip(log.arrivals, log.arrivals[1:])]
        assert all(gap == 2 for gap in gaps)

    def test_shift_operation_count_matches_energy_model(self):
        """Each simulated hop is one segment-pair shift operation."""
        config = RMBusConfig(segment_domains=16, length_domains=64)
        log = SegmentedBusSimulator(config).simulate_transfer(48)  # 3 chunks
        assert log.segment_shift_ops == RMBus(config).shift_operations(48)

    def test_rejects_nonpositive_words(self):
        with pytest.raises(ValueError):
            SegmentedBusSimulator().simulate_transfer(0)
