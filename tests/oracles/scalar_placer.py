"""Per-row reference placer: the placement the array placer replaces.

One :meth:`Placer._place_row` call per stored row and one
:meth:`Placer._next_target` scan per slice, recording each row as a
list of :class:`~repro.core.placement.RowSlice` objects.  The array
placer in :mod:`repro.core.placement` must produce the same slices,
cursors, round-robin pointers and ``MemoryError`` messages; the
differential tests and the placement gate compare the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.placement import PlacementPlan, PlacementPolicy, RowSlice
from repro.rm.address import AddressMap, DeviceGeometry


@dataclass
class MatrixHandle:
    """A placed matrix as one list of :class:`RowSlice` per stored
    row; :meth:`to_dict` is the plan JSON layout."""

    name: str
    rows: int
    cols: int
    rows_placement: List[List[RowSlice]] = field(default_factory=list)
    result_set: bool = False
    stored_transposed: bool = False
    mirror: Optional["MatrixHandle"] = None

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (the trace cache stores plans)."""
        out: Dict[str, object] = {
            "name": self.name,
            "rows": self.rows,
            "cols": self.cols,
            "rows_placement": [
                [
                    [piece.bank, piece.subarray, piece.address,
                     piece.offset, piece.length]
                    for piece in slices
                ]
                for slices in self.rows_placement
            ],
            "result_set": self.result_set,
            "stored_transposed": self.stored_transposed,
            "mirror": (
                None if self.mirror is None else self.mirror.to_dict()
            ),
        }
        return out


class Placer:
    """Allocates matrix rows onto PIM subarrays, one row at a time.

    Args:
        geometry: device geometry (supplies the PIM subarray pool and the
            per-subarray capacity).
        policy: base or distribute placement.
        disjoint_result_sets: reserve a slice of the subarray pool for
            result matrices (the ``unblock`` layout rule).  The pool is
            split so operands use the first portion and results the rest.
        result_set_fraction: fraction of the pool reserved for results
            when ``disjoint_result_sets`` is on.
    """

    def __init__(
        self,
        geometry: Optional[DeviceGeometry] = None,
        policy: PlacementPolicy = PlacementPolicy.DISTRIBUTE,
        disjoint_result_sets: bool = False,
        result_set_fraction: float = 0.25,
    ) -> None:
        self.geometry = geometry or DeviceGeometry()
        self.policy = policy
        self.disjoint_result_sets = disjoint_result_sets
        if not 0.0 < result_set_fraction < 1.0:
            raise ValueError(
                "result_set_fraction must be in (0, 1), got "
                f"{result_set_fraction}"
            )
        self.result_set_fraction = result_set_fraction
        self.address_map = AddressMap(self.geometry)
        pool = [
            (bank, sub)
            for bank in range(self.geometry.pim_banks)
            for sub in range(self.geometry.bank.subarrays)
        ]
        if not pool:
            raise ValueError("geometry has no PIM subarrays")
        if disjoint_result_sets and len(pool) >= 2:
            split = max(1, int(len(pool) * (1.0 - result_set_fraction)))
            split = min(split, len(pool) - 1)
            self._operand_pool = pool[:split]
            self._result_pool = pool[split:]
        else:
            self._operand_pool = pool
            self._result_pool = pool
        self._cursors: Dict[Tuple[int, int], int] = {}
        self._rr_next = {"operand": 0, "result": 0}
        self.plan = PlacementPlan(policy=self.policy)

    # ------------------------------------------------------------------
    @property
    def operand_pool(self) -> Sequence[Tuple[int, int]]:
        return tuple(self._operand_pool)

    @property
    def result_pool(self) -> Sequence[Tuple[int, int]]:
        return tuple(self._result_pool)

    @property
    def subarray_capacity_words(self) -> int:
        return self.geometry.subarray_capacity_words

    # ------------------------------------------------------------------
    def place_matrix(
        self,
        name: str,
        rows: int,
        cols: int,
        result: bool = False,
        transposed: bool = False,
        mirror: bool = False,
    ) -> MatrixHandle:
        """Place a matrix and record it in the plan.

        Args:
            name: unique matrix identifier.
            rows: logical row count (a vector is a 1-row matrix).
            cols: logical row length in elements.
            result: place in the result subarray set (unblock layout).
            transposed: store the transpose, making logical columns
                contiguous (the matmul column-operand layout).
            mirror: additionally allocate a transposed replica so both
                rows and columns stream contiguously (transposed
                matrix-vector access).

        Raises:
            ValueError: on duplicate names, bad shapes, or combining
                ``transposed`` with ``mirror``.
            MemoryError: if the PIM pool cannot hold the matrix.
        """
        if name in self.plan.matrices:
            raise ValueError(f"matrix {name!r} already placed")
        if rows <= 0 or cols <= 0:
            raise ValueError(f"shape must be positive, got {rows}x{cols}")
        if transposed and mirror:
            raise ValueError(
                "a transposed-primary matrix already exposes columns; "
                "mirror is redundant"
            )
        handle = MatrixHandle(
            name=name,
            rows=rows,
            cols=cols,
            result_set=result,
            stored_transposed=transposed,
        )
        pool = (
            self._result_pool
            if (result and self.disjoint_result_sets)
            else self._operand_pool
        )
        pool_kind = "result" if (result and self.disjoint_result_sets) else "operand"
        stored_rows = cols if transposed else rows
        stored_cols = rows if transposed else cols
        for _ in range(stored_rows):
            handle.rows_placement.append(
                self._place_row(stored_cols, pool, pool_kind)
            )
        if mirror:
            mirror_handle = MatrixHandle(
                name=f"{name}^T",
                rows=cols,
                cols=rows,
                result_set=result,
            )
            for _ in range(cols):
                mirror_handle.rows_placement.append(
                    self._place_row(rows, pool, pool_kind)
                )
            handle.mirror = mirror_handle
        self.plan.matrices[name] = handle
        return handle

    def _place_row(
        self,
        cols: int,
        pool: Sequence[Tuple[int, int]],
        pool_kind: str,
    ) -> List[RowSlice]:
        capacity = self.subarray_capacity_words
        n_slices = math.ceil(cols / capacity)
        slices: List[RowSlice] = []
        for piece in range(n_slices):
            offset = piece * capacity
            length = min(capacity, cols - offset)
            target = self._next_target(length, pool, pool_kind)
            bank, sub = target
            cursor = self._cursors.get(target, 0)
            address = (
                self.address_map.subarray_base(bank, sub) + cursor
            )
            self._cursors[target] = cursor + length
            slices.append(
                RowSlice(
                    bank=bank,
                    subarray=sub,
                    address=address,
                    offset=offset,
                    length=length,
                )
            )
        return slices

    def _next_target(
        self,
        length: int,
        pool: Sequence[Tuple[int, int]],
        pool_kind: str,
    ) -> Tuple[int, int]:
        capacity = self.subarray_capacity_words
        if self.policy is PlacementPolicy.DISTRIBUTE:
            start = self._rr_next[pool_kind]
            for step in range(len(pool)):
                candidate = pool[(start + step) % len(pool)]
                if self._cursors.get(candidate, 0) + length <= capacity:
                    self._rr_next[pool_kind] = (start + step + 1) % len(pool)
                    return candidate
            raise MemoryError(
                f"no PIM subarray has {length} free words left"
            )
        # BASE: first-fit sequential packing.
        for candidate in pool:
            if self._cursors.get(candidate, 0) + length <= capacity:
                return candidate
        raise MemoryError(f"no PIM subarray has {length} free words left")
