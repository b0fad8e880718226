"""Deficit-round-robin fair queuing across tenants.

The serving core used to hold one global FIFO behind the per-tenant
token buckets.  Buckets bound each tenant's *admission rate*, but once
admitted a burst from one tenant still sat in front of everyone else's
requests — a 10:1 offered-load mix was served 10:1, adding the heavy
tenant's queueing delay to the light tenant's latency.

:class:`DeficitRoundRobin` replaces the FIFO with one sub-queue per
tenant, visited in round-robin order.  Each visit grants the tenant
``quantum`` deficit; a request costs one unit, so with the default
quantum every backlogged tenant is served one request per round
regardless of how deep its backlog is.  While N tenants are backlogged
each receives ~1/N of the service — Jain-fair — and a tenant alone in
the system still gets full throughput.

Like everything the service core touches, this is a pure data
structure: no clock, no I/O, no randomness.  Items are opaque strings
(request ids) that must be unique across tenants.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Deque, Dict, Iterator, List, Optional, Tuple


class DeficitRoundRobin:
    """Per-tenant FIFOs served deficit-round-robin.

    Attributes:
        quantum: deficit granted per round-robin visit.  One request
            costs one unit, so ``quantum=1`` serves each backlogged
            tenant one request per round; larger quanta trade fairness
            granularity for fewer tenant switches.
    """

    def __init__(self, quantum: float = 1.0) -> None:
        if quantum <= 0:
            raise ValueError(f"quantum must be positive, got {quantum}")
        self.quantum = quantum
        # Round order == insertion order of *active* tenants; a tenant
        # is active iff its queue is non-empty.
        self._queues: "OrderedDict[str, Deque[str]]" = OrderedDict()
        self._deficits: Dict[str, float] = {}
        self._tenant_of: Dict[str, str] = {}
        self._total = 0
        #: Tenant that already received its quantum for the current
        #: front-of-round visit (grants are once per visit, not once
        #: per pop, so a deep backlog cannot re-grant itself).
        self._granted_front: Optional[str] = None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._total

    def __bool__(self) -> bool:
        return self._total > 0

    def __contains__(self, item: str) -> bool:
        return item in self._tenant_of

    def tenants(self) -> List[str]:
        """Active tenants in the current round order."""
        return list(self._queues)

    def depth(self, tenant: str) -> int:
        queue = self._queues.get(tenant)
        return len(queue) if queue is not None else 0

    def items(self) -> Iterator[str]:
        """Every queued item, tenant by tenant in round order."""
        for queue in self._queues.values():
            yield from queue

    # ------------------------------------------------------------------
    def push(self, tenant: str, item: str) -> None:
        """Enqueue ``item`` at the tail of ``tenant``'s sub-queue."""
        if item in self._tenant_of:
            raise ValueError(f"item {item!r} is already queued")
        queue = self._queues.get(tenant)
        if queue is None:
            queue = self._queues[tenant] = deque()
            self._deficits[tenant] = 0.0
        queue.append(item)
        self._tenant_of[item] = tenant
        self._total += 1

    # ------------------------------------------------------------------
    def pop(self) -> Optional[Tuple[str, str]]:
        """Serve the next ``(tenant, item)`` pair, DRR order.

        The front tenant of the round order is granted one quantum on
        arrival at the front and served while its deficit covers a
        request; once it cannot afford the next one it rotates to the
        back (keeping any residual deficit) and the next tenant's visit
        begins.
        """
        if self._total == 0:
            return None
        while True:
            tenant, queue = next(iter(self._queues.items()))
            if self._granted_front != tenant:
                self._deficits[tenant] += self.quantum
                self._granted_front = tenant
            if self._deficits[tenant] >= 1.0:
                item = queue.popleft()
                self._deficits[tenant] -= 1.0
                del self._tenant_of[item]
                self._total -= 1
                if not queue:
                    del self._queues[tenant]
                    del self._deficits[tenant]
                    self._granted_front = None
                return tenant, item
            # Deficit spent: rotate to the back of the round; the next
            # tenant receives its grant when the loop visits it.
            self._queues.move_to_end(tenant)
            self._granted_front = None

    def remove(self, item: str) -> bool:
        """Drop ``item`` wherever it is queued; False if absent."""
        tenant = self._tenant_of.pop(item, None)
        if tenant is None:
            return False
        queue = self._queues[tenant]
        queue.remove(item)
        self._total -= 1
        if not queue:
            del self._queues[tenant]
            del self._deficits[tenant]
            if self._granted_front == tenant:
                self._granted_front = None
        return True

    def charge(self, tenant: str) -> None:
        """Bill ``tenant`` one request served outside :meth:`pop`.

        A dispatched group pops one entry but may carry members of
        other tenants; each is charged to its own tenant's deficit
        (which may go negative — the tenant *was* served), so grouping
        does not distort round-robin fairness.  A tenant with nothing
        queued has no deficit to charge.
        """
        if tenant in self._deficits:
            self._deficits[tenant] -= 1.0

    def clear(self) -> None:
        self._queues.clear()
        self._deficits.clear()
        self._tenant_of.clear()
        self._total = 0
        self._granted_front = None

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Per-tenant queue depths for the ``stats`` endpoint."""
        return {
            "quantum": self.quantum,
            "depth": self._total,
            "tenants": {
                tenant: len(queue)
                for tenant, queue in sorted(self._queues.items())
            },
        }
