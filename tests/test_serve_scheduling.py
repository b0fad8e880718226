"""Deficit-round-robin fair queue tests.

The scheduler is a pure data structure, so everything here is
deterministic: round order, deficit accounting for group members
charged outside ``pop``, and the headline fairness property — a 10:1
offered-load mix between two tenants is *served* ~1:1 while both are
backlogged (Jain index ~1.0), where the old global FIFO served it 10:1
(Jain ~0.6).  Two core-level tests check that ``stats`` reports the
requests behind the queued groups beside the entry counts.
"""

import pytest

from repro.serve.core import CoreConfig, ServiceCore
from repro.serve.protocol import Request
from repro.serve.scheduling import DeficitRoundRobin


def fill(drr, tenant, count, prefix=None):
    prefix = prefix if prefix is not None else tenant
    for i in range(count):
        drr.push(tenant, f"{prefix}{i}")


def drain(drr):
    order = []
    while True:
        popped = drr.pop()
        if popped is None:
            return order
        order.append(popped)


def jain(counts):
    values = list(counts)
    total = sum(values)
    if not total:
        return 1.0
    return total * total / (len(values) * sum(v * v for v in values))


class TestRoundRobinOrder:
    def test_single_tenant_is_fifo(self):
        drr = DeficitRoundRobin()
        fill(drr, "a", 4)
        assert [item for _, item in drain(drr)] == [
            "a0",
            "a1",
            "a2",
            "a3",
        ]

    def test_backlogged_tenants_alternate(self):
        drr = DeficitRoundRobin()
        fill(drr, "a", 3)
        fill(drr, "b", 3)
        assert drain(drr) == [
            ("a", "a0"),
            ("b", "b0"),
            ("a", "a1"),
            ("b", "b1"),
            ("a", "a2"),
            ("b", "b2"),
        ]

    def test_deep_backlog_cannot_hog_the_front(self):
        # The front tenant's quantum is granted once per visit, not
        # once per pop — 20 queued requests still yield after one.
        drr = DeficitRoundRobin()
        fill(drr, "a", 20)
        fill(drr, "b", 2)
        order = drain(drr)
        assert order[:5] == [
            ("a", "a0"),
            ("b", "b0"),
            ("a", "a1"),
            ("b", "b1"),
            ("a", "a2"),
        ]
        # After b empties, a gets full throughput.
        assert all(tenant == "a" for tenant, _ in order[4:])

    def test_larger_quantum_serves_runs(self):
        drr = DeficitRoundRobin(quantum=2.0)
        fill(drr, "a", 4)
        fill(drr, "b", 4)
        assert [item for _, item in drain(drr)] == [
            "a0",
            "a1",
            "b0",
            "b1",
            "a2",
            "a3",
            "b2",
            "b3",
        ]

    def test_invalid_quantum_rejected(self):
        with pytest.raises(ValueError):
            DeficitRoundRobin(quantum=0.0)


class TestBookkeeping:
    def test_len_contains_depth(self):
        drr = DeficitRoundRobin()
        fill(drr, "a", 2)
        fill(drr, "b", 1)
        assert len(drr) == 3 and bool(drr)
        assert "a1" in drr and "c0" not in drr
        assert drr.depth("a") == 2 and drr.depth("missing") == 0
        assert list(drr.items()) == ["a0", "a1", "b0"]
        assert drr.tenants() == ["a", "b"]

    def test_duplicate_item_rejected(self):
        drr = DeficitRoundRobin()
        drr.push("a", "x")
        with pytest.raises(ValueError):
            drr.push("b", "x")

    def test_remove_anywhere(self):
        drr = DeficitRoundRobin()
        fill(drr, "a", 3)
        assert drr.remove("a1")
        assert not drr.remove("a1")
        assert [item for _, item in drain(drr)] == ["a0", "a2"]

    def test_snapshot_reports_per_tenant_depths(self):
        drr = DeficitRoundRobin()
        fill(drr, "b", 1)
        fill(drr, "a", 2)
        snapshot = drr.snapshot()
        assert snapshot["depth"] == 3
        assert snapshot["tenants"] == {"a": 2, "b": 1}

    def test_core_snapshot_counts_requests_beside_entries(self):
        # The core queues whole groups, so queue entries and requests
        # differ; each member counts under its own tenant, the tenant
        # its dispatch is charged to.
        core = ServiceCore(
            CoreConfig(
                tenant_rate=1000.0, tenant_burst=1000.0, max_batch=4
            )
        )

        def run(rid, tenant):
            return Request(
                id=rid, method="run", params={"workload": "atax"},
                tenant=tenant,
            )

        core.submit(run("r0", "a"), 0.0)  # keyless: its own entry
        for rid, tenant in (("r1", "a"), ("r2", "b"), ("r3", "b")):
            core.submit(run(rid, tenant), 0.0, group_key="k")
        core.register_worker("w0", 0.1)  # queues both entries, runs r0
        scheduler = core.snapshot(0.1)["scheduler"]
        assert scheduler["depth"] == 1
        assert scheduler["tenants"] == {"a": 1}
        assert scheduler["requests"] == 3
        assert scheduler["tenant_requests"] == {"a": 1, "b": 2}
        assert core.snapshot(0.1)["queue_depth"] == 3

    def test_core_snapshot_with_an_empty_queue(self):
        scheduler = ServiceCore().snapshot(0.0)["scheduler"]
        assert scheduler["depth"] == 0 and scheduler["requests"] == 0
        assert scheduler["tenant_requests"] == {}

    def test_clear(self):
        drr = DeficitRoundRobin()
        fill(drr, "a", 2)
        drr.clear()
        assert len(drr) == 0 and drr.pop() is None


class TestDeficitAccounting:
    def test_charge_bills_the_served_tenant(self):
        # A group dispatch carrying two of b's requests outside pop()
        # counts as serving b twice: on the next rounds b owes deficit
        # and a catches up.
        drr = DeficitRoundRobin()
        fill(drr, "a", 2)
        fill(drr, "b", 3)
        drr.charge("b")
        drr.charge("b")
        order = drain(drr)
        assert order[0] == ("a", "a0")
        assert order[1] == ("a", "a1")
        assert order[2] == ("b", "b0")

    def test_charge_without_a_queue_is_a_no_op(self):
        # A tenant with nothing queued has no deficit to carry.
        drr = DeficitRoundRobin()
        drr.charge("ghost")
        fill(drr, "ghost", 1)
        fill(drr, "a", 1)
        assert drain(drr) == [("ghost", "ghost0"), ("a", "a0")]


class TestFairness:
    def test_ten_to_one_offered_load_served_fairly(self):
        # Tentpole acceptance: two tenants, 10:1 offered load.  While
        # both are backlogged the served mix must be ~1:1, not 10:1.
        drr = DeficitRoundRobin()
        fill(drr, "heavy", 100)
        fill(drr, "light", 10)
        order = drain(drr)
        window = order[:20]  # both tenants backlogged throughout
        served = {
            "heavy": sum(1 for t, _ in window if t == "heavy"),
            "light": sum(1 for t, _ in window if t == "light"),
        }
        ratio = served["heavy"] / served["light"]
        assert 0.8 <= ratio <= 1.25, served
        assert jain(served.values()) >= 0.9
        # Nothing is lost: every queued item is eventually served.
        assert len(order) == 110

    def test_fifo_baseline_would_fail_the_same_gate(self):
        # Sanity check on the gate itself: the old global-FIFO order
        # (all of heavy first) scores far below the 0.9 Jain bar.
        window = ["heavy"] * 20
        served = [window.count("heavy"), window.count("light")]
        assert jain(served) < 0.9
