"""Unit tests of the benchmark's helpers.

    python3 -m pytest perfbench/tests -q
"""

import importlib

import pytest

from harness import (
    Outcomes,
    Request,
    batch_summary,
    fastest_per_item,
    merge_parts,
    relative_spread,
    schedule,
    tail,
)
from tracing import (
    LAYER_CALLS,
    Span,
    Tracer,
    seconds_by_name,
    self_times_ns,
    uncovered_share,
)


class TestFastestPass:
    def test_each_item_keeps_its_fastest_pass(self):
        passes = [{"a": 3.0, "b": 1.0}, {"a": 2.0, "b": 5.0}, {"a": 4.0, "b": 0.5}]
        assert fastest_per_item(passes) == {"a": 2.0, "b": 0.5}

    def test_an_item_that_failed_in_a_pass_keeps_its_other_passes(self):
        assert fastest_per_item([{"a": 3.0}, {"a": 2.0, "b": 7.0}]) == {"a": 2.0, "b": 7.0}

    def test_summary_is_the_median_item_and_work_over_fastest_time(self):
        passes = [
            {"a": 0.010, "b": 0.030, "c": 0.020},
            {"a": 0.012, "b": 0.028, "c": 0.050},
        ]
        latency, item_tail, per_second = batch_summary(passes, {"a": 1.0, "b": 2.0, "c": 3.0})
        assert latency == pytest.approx(20.0)
        assert item_tail.value == pytest.approx(28.0)
        assert per_second == pytest.approx(6.0 / 0.058)

    def test_a_run_where_nothing_succeeded_has_no_summary(self):
        with pytest.raises(ValueError):
            batch_summary([{}, {}], {})


class TestMergeParts:
    def test_batch_items_take_their_fastest_pass_in_any_process(self):
        parts = [
            {"fastest_s": {"a": 0.010, "b": 0.040}, "work": {"a": 1.0, "b": 1.0}, "peak_rss_mb": 50.0, "ref_min_ms": 17.0},
            {"fastest_s": {"a": 0.020, "b": 0.030}, "work": {"a": 1.0, "b": 1.0}, "peak_rss_mb": 90.0, "ref_min_ms": 20.0},
            {"fastest_s": {"a": 0.015, "b": 0.035}, "work": {"a": 1.0, "b": 1.0}, "peak_rss_mb": 60.0, "ref_min_ms": 18.0},
        ]
        merged = merge_parts(parts)
        assert merged["latency_ms"] == pytest.approx(20.0)  # median of 10 and 30 ms
        assert merged["latency_tail_ms"] == pytest.approx(30.0)
        assert merged["work_per_s"] == pytest.approx(2.0 / 0.040)
        assert merged["peak_rss_mb"] == 60.0
        assert merged["host_scale"] == 1.0  # the fastest reference reading is 17 ms

    def test_batch_timings_scale_with_the_fastest_reference_reading(self):
        part = {"fastest_s": {"a": 0.020}, "work": {"a": 1.0}, "peak_rss_mb": 50.0}
        fast = merge_parts([dict(part, ref_min_ms=17.0)])
        slow = merge_parts([dict(part, ref_min_ms=34.0)])
        assert slow["latency_ms"] == pytest.approx(fast["latency_ms"] / 2)
        assert slow["work_per_s"] == pytest.approx(fast["work_per_s"] * 2)

    def test_serve_takes_the_fastest_pass_and_all_completions(self):
        parts = [
            {"pass_p50_ms": [20.0, 18.0], "pass_tail_ms": [40.0, 35.0],
             "completed": 560, "window_s": 8.0, "peak_rss_mb": 150.0},
            {"pass_p50_ms": [19.0, 25.0], "pass_tail_ms": [33.0, 50.0],
             "completed": 560, "window_s": 8.0, "peak_rss_mb": 140.0},
        ]
        merged = merge_parts(parts)
        assert (merged["latency_ms"], merged["latency_tail_ms"]) == (18.0, 33.0)
        assert merged["work_per_s"] == pytest.approx(70.0)
        assert merged["peak_rss_mb"] == pytest.approx(145.0)


class TestTail:
    def test_highest_percentile_with_ten_samples_beyond(self):
        result = tail([float(v) for v in range(1, 101)])
        assert (result.percentile, result.value, result.samples, result.beyond) == (
            90.0,
            90.0,
            100,
            10,
        )

    def test_sample_order_does_not_matter(self):
        values = [float(v) for v in range(1, 501)]
        assert tail(values[::-1]) == tail(values)
        assert tail(values).value == 490.0

    def test_eleven_samples_leave_only_the_minimum(self):
        assert tail([float(v) for v in range(11)]).value == 0.0

    def test_ten_or_fewer_samples_report_the_maximum(self):
        result = tail([3.0, 1.0, 2.0])
        assert (result.percentile, result.value, result.beyond) == (100.0, 3.0, 0)

    def test_an_empty_sample_is_an_error(self):
        with pytest.raises(ValueError):
            tail([])


class TestDueTimeLatency:
    def test_latency_runs_from_the_due_time(self):
        request = Request(index=0, due=10.0, sent=10.5, arrived=10.6, ok=True)
        assert request.latency_ms == pytest.approx(600.0)
        assert request.late_ms == pytest.approx(500.0)

    def test_a_generator_stall_is_charged_to_later_requests(self):
        requests = schedule(0.0, 10.0, 3)
        for request in requests:  # a 250 ms stall, then all three go at once
            request.sent, request.arrived, request.ok = 0.25, 0.26, True
        assert [round(r.latency_ms) for r in requests] == [260, 160, 60]
        assert [round(r.late_ms) for r in requests] == [250, 150, 50]

    def test_failed_or_missing_replies_miss_every_limit(self):
        failed = Request(index=0, due=0.0, sent=0.0, arrived=0.01, ok=False)
        missing = Request(index=1, due=0.0, sent=0.0)
        assert failed.latency_ms == float("inf")
        assert missing.latency_ms == float("inf")
        assert tail([1.0] * 20 + [failed.latency_ms] * 11).value == float("inf")

    def test_schedule_is_a_fixed_rate(self):
        assert [r.due for r in schedule(1.0, 4.0, 3)] == [1.0, 1.25, 1.5]
        with pytest.raises(ValueError):
            schedule(0.0, 0.0, 1)

    def test_a_burst_is_due_at_once_and_keeps_the_rate(self):
        dues = [r.due for r in schedule(0.0, 4.0, 5, burst=2)]
        assert dues == [0.0, 0.0, 0.5, 0.5, 1.0]
        with pytest.raises(ValueError):
            schedule(0.0, 1.0, 1, burst=0)


class TestErrorRatio:
    def test_failed_output_checks_count_toward_the_ratio(self):
        outcomes = Outcomes()
        assert outcomes.check("same", (1, "a"), (1, "a"))
        assert not outcomes.check("differs", 1, 2)
        outcomes.record(False, "refused")
        assert (outcomes.attempted, outcomes.failed) == (3, 2)
        assert outcomes.error_ratio == pytest.approx(2 / 3)
        assert outcomes.reasons[0].startswith("differs")

    def test_nothing_attempted_counts_as_total_failure(self):
        assert Outcomes().error_ratio == 1.0

    def test_reasons_are_capped_but_failures_are_not(self):
        outcomes = Outcomes()
        for i in range(50):
            outcomes.record(False, str(i))
        assert outcomes.failed == 50
        assert len(outcomes.reasons) == 20


def test_relative_spread_is_quartile_distance_over_median():
    assert relative_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.0)


class TestSpans:
    def test_self_time_is_duration_minus_child_spans(self):
        spans = [
            Span(0, "item", 0, 100, None, "i"),
            Span(1, "a", 10, 40, 0, "i"),
            Span(2, "b", 50, 60, 0, "i"),
            Span(3, "c", 15, 25, 1, "i"),
        ]
        assert self_times_ns(spans) == {0: 60, 1: 20, 2: 10, 3: 10}
        assert seconds_by_name(spans)["a"] == pytest.approx(20e-9)
        assert seconds_by_name(spans, inclusive=True)["a"] == pytest.approx(30e-9)

    def test_uncovered_share_is_item_self_time_over_item_time(self):
        spans = [
            Span(0, "item", 0, 100, None, "i"),
            Span(1, "a", 10, 40, 0, "i"),  # 70 of 100 uncovered
            Span(2, "item", 200, 300, None, "j"),
            Span(3, "b", 200, 290, 2, "j"),  # 10 of 100 uncovered
            Span(4, "replay", 300, 900, None, "k"),  # not an item
        ]
        assert uncovered_share(spans) == pytest.approx(80 / 200)
        assert uncovered_share([]) == 0.0

    def test_wrapped_calls_and_generators_nest_under_the_item(self):
        tracer = Tracer()
        inner = tracer.wrap(lambda x: x + 1, "inner")

        def chunks(n):
            for i in range(n):
                yield inner(i)

        lower = tracer.wrap(chunks, "lower")
        tracer.item = "it"
        with tracer.span("item"):
            assert list(lower(2)) == [1, 2]
        by_id = {span.id: span for span in tracer.spans}
        # One span per next(); the last one ends the generator.
        assert sorted(s.name for s in tracer.spans) == [
            "inner", "inner", "item", "lower", "lower", "lower",
        ]
        parents = {
            s.name: by_id[s.parent].name for s in tracer.spans if s.parent is not None
        }
        assert parents == {"inner": "lower", "lower": "item"}
        assert {s.item for s in tracer.spans} == {"it"}

    def test_install_wraps_every_layer_call_and_uninstall_restores_it(self):
        def current():
            found = []
            for module, owner, attribute, _ in LAYER_CALLS:
                target = importlib.import_module(module)
                if owner:
                    target = getattr(target, owner)
                found.append(vars(target)[attribute])
            return found

        before = current()
        tracer = Tracer()
        tracer.install()
        try:
            assert all(now is not then for now, then in zip(current(), before))
        finally:
            tracer.uninstall()
        assert all(now is then for now, then in zip(current(), before))
