"""Matrix placement across PIM subarrays (section IV-C, Fig. 15).

A VPC executes inside a single subarray, so where vectors live decides
how much subarray-level parallelism a task can reach:

* **base** — rows at sequential addresses: a whole matrix typically lands
  in one (or very few) subarrays, serialising its VPCs on one processor.
* **distribute** — rows round-robined across all PIM subarrays, so the
  ``n`` dot products of a matrix-vector product can run on ``min(n, S)``
  processors at once.

The placer also implements the two supporting rules of section IV-C:

* *slicing* — a vector longer than a subarray's capacity is split into
  slices placed on consecutive subarrays (each slice's partial result is
  combined afterwards);
* *disjoint operand/result sets* (used by ``unblock``) — operands and
  results are placed in non-overlapping subarray sets so read/write data
  preparation never targets a subarray that is computing.

Placement works on run-length cursor state.  The :class:`Placer`
keeps each pool's allocation cursors as *segments*: ``(first, end,
cursor)`` triples of Python ints, one per stretch of pool subarrays
``[first, end)`` that share a cursor.  Round-robin placement keeps the
cursors of a pool nearly uniform, so a pool of hundreds of subarrays
is a handful of segments.  A matrix is placed as runs of equal-length
pieces (:meth:`Placer._place_run`): an unsliced matrix is one run of
``stored_rows`` pieces, a sliced row one run per slice.  Each run is
solved in closed form per segment and kept as a :class:`PlacedRun`
summary: in ring order, the stretches of pool subarrays it took pieces
from, the pieces each took and each one's cursor before the run.  A
:class:`MatrixHandle` holds its runs (:class:`PlacedRows`) and builds
its ``(n, 5)`` int64 slice table (:data:`SLICE_FIELDS` columns) and
``row_ptr`` index per stored row from them on the first read; the
distinct subarrays and slices per row, all the round model reads, come
from the segments without a table or any per-subarray array.
:meth:`MatrixHandle.row_slices` builds one row's :class:`RowSlice`
objects on demand.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.rm.address import AddressMap, DeviceGeometry

#: Columns of :attr:`MatrixHandle.slices`, in plan-JSON order.
SLICE_FIELDS = ("bank", "subarray", "address", "offset", "length")
BANK, SUBARRAY, ADDRESS, OFFSET, LENGTH = range(len(SLICE_FIELDS))


class PlacementPolicy(enum.Enum):
    """Row-placement strategies of section IV-C."""

    BASE = "base"
    DISTRIBUTE = "distribute"


@dataclass(frozen=True)
class RowSlice:
    """One placed slice of one matrix row.

    Attributes:
        bank: PIM bank holding the slice.
        subarray: subarray within the bank.
        address: linear word address of the slice's first element.
        offset: element offset of the slice within its row.
        length: elements in the slice.
    """

    bank: int
    subarray: int
    address: int
    offset: int
    length: int

    @property
    def subarray_key(self) -> Tuple[int, int]:
        return (self.bank, self.subarray)


#: Pool subarrays ``[first, end)`` that share one allocation cursor:
#: ``(first, end, cursor)``.
Segment = Tuple[int, int, int]
_FIRST, _END = itemgetter(0), itemgetter(1)


@dataclass(frozen=True)
class PlacedRun:
    """One run of equal-length pieces, as :meth:`Placer._place_run`
    placed it: the few numbers its pieces follow from.

    ``segments`` lists ``(first, end, taken, cursor)``: pool subarrays
    ``first .. end - 1`` each took ``taken`` pieces and had allocation
    cursor ``cursor`` before the run.  They come in the order the
    placer visited them (the ring from the round-robin pointer under
    DISTRIBUTE, pool order under BASE).  The per-subarray arrays are
    built on the first read of :attr:`arrays`.
    """

    length: int
    segments: Tuple[Tuple[int, int, int, int], ...]

    @cached_property
    def arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pool index, pieces taken and cursor before the run of every
        subarray that took pieces, in visiting order (int64)."""
        first, end, taken, cursor = (
            np.array(self.segments, dtype=np.int64).reshape(-1, 4).T
        )
        sizes = end - first
        index = np.arange(int(sizes.sum()), dtype=np.int64) - np.repeat(
            np.cumsum(sizes) - sizes - first, sizes
        )
        return index, np.repeat(taken, sizes), np.repeat(cursor, sizes)

    def pieces(
        self, round_robin: bool, words_per_subarray: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Pool index and word address of every piece, in placement
        order: by round, then ring position, when ``round_robin``
        (DISTRIBUTE); subarray by subarray otherwise (BASE)."""
        pool_index, taken, cursor = self.arrays
        position = np.repeat(np.arange(len(taken)), taken)
        # Pieces a subarray took before this one: its round (DISTRIBUTE)
        # or its rank in the subarray's fill (BASE).
        before = np.arange(len(position)) - np.repeat(
            np.cumsum(taken) - taken, taken
        )
        if round_robin and before.any():
            order = np.argsort(before, kind="stable")
            position, before = position[order], before[order]
        index = pool_index[position]
        address = (
            index * words_per_subarray
            + cursor[position]
            + before * self.length
        )
        return index, address


@dataclass(frozen=True)
class PlacedRows:
    """``rows`` stored rows of ``cols`` words as
    :meth:`Placer._place_rows` placed them: one :class:`PlacedRun` per
    run, from which the slice table follows.

    An unsliced matrix is one run, so its summary holds at most one
    entry per pool subarray however many rows it has; a sliced row is
    one run per slice.
    """

    rows: int
    cols: int
    capacity: int
    round_robin: bool
    words_per_subarray: int
    subarrays_per_bank: int
    runs: Tuple[PlacedRun, ...]

    def slices_per_row(self) -> int:
        """Slices of every stored row (:meth:`MatrixHandle.slices_per_row`)."""
        return -(-self.cols // self.capacity)

    def subarray_count(self) -> int:
        """Distinct pool subarrays the runs took pieces from: the size
        of the union of their segments."""
        spans = sorted(
            (first, end)
            for run in self.runs
            for first, end, _, _ in run.segments
        )
        count = reach = 0
        for first, end in spans:
            if end > reach:
                count += end - max(first, reach)
                reach = end
        return count

    def table(self) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(rows * slices_per_row, 5)`` slice table and its
        ``row_ptr``."""
        per_row = self.slices_per_row()
        offsets = np.arange(per_row, dtype=np.int64) * self.capacity
        lengths = np.minimum(self.capacity, self.cols - offsets)
        placed = [
            run.pieces(self.round_robin, self.words_per_subarray)
            for run in self.runs
        ]
        pool_index = np.concatenate([index for index, _ in placed])
        slices = np.empty((self.rows * per_row, len(SLICE_FIELDS)), np.int64)
        # Pool index g is bank * subarrays_per_bank + subarray.
        slices[:, BANK], slices[:, SUBARRAY] = np.divmod(
            pool_index, self.subarrays_per_bank
        )
        slices[:, ADDRESS] = np.concatenate([address for _, address in placed])
        slices[:, OFFSET] = np.tile(offsets, self.rows)
        slices[:, LENGTH] = np.tile(lengths, self.rows)
        return slices, np.arange(self.rows + 1, dtype=np.int64) * per_row


class MatrixHandle:
    """A placed matrix: logical shape plus the location of every stored
    row slice.

    ``rows``/``cols`` are the *logical* shape.  When
    ``stored_transposed`` is set, the physical layout holds the
    transpose (one stored row per logical column), which is the layout
    optimisation that lets matmul column operands stream contiguously;
    :meth:`row_slices` then indexes *stored* rows.  A ``mirror`` is an
    additional transposed replica for matrices that need both row and
    column access (transposed matrix-vector products).

    ``slices`` is an ``(n, 5)`` int64 table, one row per slice in
    stored-row order, with the :data:`SLICE_FIELDS` columns; stored row
    ``r`` owns ``slices[row_ptr[r]:row_ptr[r + 1]]``.  ``row_ptr``
    defaults to one slice per stored row.

    A handle the :class:`Placer` makes holds ``placed``, the per-run
    summaries (:class:`PlacedRows`), instead: the table and ``row_ptr``
    are built from them on the first read of either (lowering, word
    store reads and writes, the SPV005/006 checks, the plan JSON,
    :meth:`row_slices`).  :meth:`subarray_count` and
    :meth:`slices_per_row` answer from the summaries, so the round
    model never builds a table.  A handle made from a table
    (:meth:`from_dict`, tests) has ``placed`` None.
    """

    def __init__(
        self,
        name: str,
        rows: int,
        cols: int,
        slices: Optional[np.ndarray] = None,
        row_ptr: Optional[np.ndarray] = None,
        result_set: bool = False,
        stored_transposed: bool = False,
        mirror: Optional["MatrixHandle"] = None,
        placed: Optional[PlacedRows] = None,
    ) -> None:
        if (slices is None) == (placed is None):
            raise ValueError("a handle takes exactly one of slices and placed")
        self.name = name
        self.rows = rows
        self.cols = cols
        self.result_set = result_set
        self.stored_transposed = stored_transposed
        self.mirror = mirror
        self.placed = placed
        self._slices: Optional[np.ndarray] = None
        self._row_ptr: Optional[np.ndarray] = None
        if slices is not None:
            self._slices = np.asarray(slices, dtype=np.int64).reshape(
                -1, len(SLICE_FIELDS)
            )
            self._row_ptr = (
                np.arange(len(self._slices) + 1, dtype=np.int64)
                if row_ptr is None
                else np.asarray(row_ptr, dtype=np.int64)
            )

    @property
    def slices(self) -> np.ndarray:
        """The ``(n, 5)`` slice table, built on the first read."""
        if self._slices is None:
            self._slices, self._row_ptr = self.placed.table()
        return self._slices

    @property
    def row_ptr(self) -> np.ndarray:
        if self._row_ptr is None:
            self._slices, self._row_ptr = self.placed.table()
        return self._row_ptr

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def stored_rows(self) -> int:
        return self.cols if self.stored_transposed else self.rows

    def slices_per_row(self) -> int:
        """Most slices any stored row occupies (section IV-C slicing).

        A vector longer than a subarray's capacity is split across
        consecutive subarrays; each dot product over it becomes one
        partial dot per slice plus a partial-sum reduction.
        """
        if self.placed is not None:
            return self.placed.slices_per_row()
        return int(np.diff(self.row_ptr).max(initial=1))

    @property
    def sliced(self) -> bool:
        return self.slices_per_row() > 1

    def first_slices(self) -> np.ndarray:
        """``(stored rows, 5)`` table of every stored row's first
        slice."""
        return self.slices[self.row_ptr[:-1]]

    def subarray_count(self) -> int:
        """Distinct (bank, subarray) pairs this matrix occupies."""
        if self.placed is not None:
            return self.placed.subarray_count()
        # Same packing as ScratchAllocator.encode_key.
        keys = (self.slices[:, BANK] << 32) | self.slices[:, SUBARRAY]
        return len(np.unique(keys))

    def row_slices(self, row: int) -> List[RowSlice]:
        """Slices of *stored* row ``row`` (a logical column when the
        matrix is stored transposed)."""
        if not 0 <= row < self.stored_rows:
            raise IndexError(
                f"stored row {row} out of range [0, {self.stored_rows})"
            )
        start, stop = self.row_ptr[row], self.row_ptr[row + 1]
        return [RowSlice(*piece) for piece in self.slices[start:stop].tolist()]

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (the trace cache stores plans).

        ``rows_placement`` lists each stored row's slices as
        ``[bank, subarray, address, offset, length]``.
        """
        listed = self.slices.tolist()
        bounds = self.row_ptr.tolist()
        return {
            "name": self.name,
            "rows": self.rows,
            "cols": self.cols,
            "rows_placement": [
                listed[start:stop] for start, stop in zip(bounds, bounds[1:])
            ],
            "result_set": self.result_set,
            "stored_transposed": self.stored_transposed,
            "mirror": (
                None if self.mirror is None else self.mirror.to_dict()
            ),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "MatrixHandle":
        """Inverse of :meth:`to_dict`.

        Raises:
            ValueError: if a slice does not have the five
                :data:`SLICE_FIELDS`.
        """
        placement = data["rows_placement"]
        pieces = list(chain.from_iterable(placement))
        width = len(SLICE_FIELDS)
        if set(map(len, pieces)) - {width}:
            raise ValueError(
                f"matrix {data['name']!r}: slices must be "
                f"[{', '.join(SLICE_FIELDS)}] lists"
            )
        # One flat pass over the JSON ints; no nested-list inference.
        table = np.fromiter(
            chain.from_iterable(pieces),
            dtype=np.int64,
            count=len(pieces) * width,
        ).reshape(-1, width)
        row_ptr = np.zeros(len(placement) + 1, dtype=np.int64)
        np.cumsum(list(map(len, placement)), out=row_ptr[1:])
        mirror = data.get("mirror")
        return cls(
            name=str(data["name"]),
            rows=int(data["rows"]),
            cols=int(data["cols"]),
            slices=table,
            row_ptr=row_ptr,
            result_set=bool(data["result_set"]),
            stored_transposed=bool(data["stored_transposed"]),
            mirror=None if mirror is None else cls.from_dict(mirror),
        )


@dataclass
class PlacementPlan:
    """All matrices of one task, placed."""

    policy: PlacementPolicy
    matrices: Dict[str, MatrixHandle] = field(default_factory=dict)

    def handle(self, name: str) -> MatrixHandle:
        try:
            return self.matrices[name]
        except KeyError:
            raise KeyError(f"matrix {name!r} was never placed") from None

    def loads(self) -> Dict[Tuple[int, int], int]:
        """Words placed in each ``(bank, subarray)``, mirrors included."""
        loads: Dict[Tuple[int, int], int] = {}
        pending = list(self.matrices.values())
        while pending:
            handle = pending.pop()
            if handle.mirror is not None:
                pending.append(handle.mirror)
            slices = handle.slices
            keys, inverse = np.unique(
                (slices[:, BANK] << 32) | slices[:, SUBARRAY],
                return_inverse=True,
            )
            words = np.zeros(len(keys), dtype=np.int64)
            np.add.at(words, inverse, slices[:, LENGTH])
            for key, count in zip(keys.tolist(), words.tolist()):
                key = (key >> 32, key & 0xFFFFFFFF)
                loads[key] = loads.get(key, 0) + count
        return loads

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (stored next to cached traces)."""
        return {
            "policy": self.policy.value,
            "matrices": {
                name: handle.to_dict()
                for name, handle in self.matrices.items()
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PlacementPlan":
        return cls(
            policy=PlacementPolicy(data["policy"]),
            matrices={
                name: MatrixHandle.from_dict(handle)
                for name, handle in data["matrices"].items()
            },
        )


class Placer:
    """Allocates matrix rows onto PIM subarrays.

    The pool is every PIM subarray in (bank, subarray) order; pool
    index ``g`` is ``bank * subarrays_per_bank + subarray`` and its
    first word is ``g * words_per_subarray``.  The words allocated in
    each subarray are kept per pool kind as :data:`Segment` lists in
    pool order, merged so neighbours differ; the two kinds share one
    list when their ranges coincide.  :attr:`cursors` expands them.

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
        per_bank = self.geometry.bank.subarrays
        size = self.geometry.pim_banks * per_bank
        if size == 0:
            raise ValueError("geometry has no PIM subarrays")
        if disjoint_result_sets and size >= 2:
            split = max(1, int(size * (1.0 - result_set_fraction)))
            split = min(split, size - 1)
            self._pools = {"operand": (0, split), "result": (split, size)}
        else:
            self._pools = {"operand": (0, size), "result": (0, size)}
        self._segments: Dict[str, List[Segment]] = {
            kind: [(lo, hi, 0)] for kind, (lo, hi) in self._pools.items()
        }
        if self._pools["operand"] == self._pools["result"]:
            self._segments["result"] = self._segments["operand"]
        self._capacity = self.geometry.subarray_capacity_words
        self._rr_next = {"operand": 0, "result": 0}
        self.plan = PlacementPlan(policy=self.policy)

    # ------------------------------------------------------------------
    def _pool_keys(self, kind: str) -> Tuple[Tuple[int, int], ...]:
        lo, hi = self._pools[kind]
        per_bank = self.geometry.bank.subarrays
        return tuple(divmod(g, per_bank) for g in range(lo, hi))

    @property
    def operand_pool(self) -> Sequence[Tuple[int, int]]:
        return self._pool_keys("operand")

    @property
    def result_pool(self) -> Sequence[Tuple[int, int]]:
        return self._pool_keys("result")

    @property
    def subarray_capacity_words(self) -> int:
        return self._capacity

    @property
    def cursors(self) -> np.ndarray:
        """Words allocated in each pool subarray (a new int64 array,
        expanded from the segments)."""
        segments = self._segments["operand"]
        if self._segments["result"] is not segments:
            segments = segments + self._segments["result"]
        first, end, cursor = np.array(segments, dtype=np.int64).T
        return np.repeat(cursor, end - first)

    def _pool_kind(self, result: bool) -> str:
        if result and self.disjoint_result_sets:
            return "result"
        return "operand"

    def remap_target(
        self,
        quarantined: Sequence[Tuple[int, int]],
        result: bool = False,
    ) -> Tuple[int, int]:
        """A healthy subarray to re-home data evicted from a faulty one.

        The ``degrade`` recovery policy quarantines a subarray after an
        unrecoverable shift fault and replays its placement elsewhere;
        this picks the least-loaded (by allocation cursor) non-
        quarantined subarray from the matching pool.

        Raises:
            MemoryError: when every subarray in the pool is quarantined.
        """
        lo, hi = self._pools[self._pool_kind(result)]
        healthy = np.ones(hi - lo, dtype=bool)
        per_bank = self.geometry.bank.subarrays
        for bank, sub in quarantined:
            index = bank * per_bank + sub - lo
            if 0 <= sub < per_bank and 0 <= index < hi - lo:
                healthy[index] = False
        if not healthy.any():
            raise MemoryError(
                "every PIM subarray in the pool is quarantined; "
                "cannot remap"
            )
        candidates = np.flatnonzero(healthy)
        cursors = self.cursors[lo:hi]
        # argmin keeps the first of equal cursors: the lowest key.
        pick = lo + int(candidates[np.argmin(cursors[candidates])])
        return divmod(pick, per_bank)

    def charge(self, loads: Dict[Tuple[int, int], int]) -> None:
        """Count ``loads[(bank, subarray)]`` more allocated words in each
        pool subarray, with no capacity check; keys outside the pools
        are ignored.

        This is load placed outside :meth:`place_matrix`: a fault
        session seeds its placer with a task's placement plan
        (:meth:`PlacementPlan.loads`) and charges each remap to its
        target, so :meth:`remap_target` sees the task's load.
        """
        per_bank = self.geometry.bank.subarrays
        kinds = ["operand"]
        if self._segments["result"] is not self._segments["operand"]:
            kinds.append("result")
        for kind in kinds:
            lo, hi = self._pools[kind]
            segments = self._segments[kind]
            first, end, cursor = np.array(segments, dtype=np.int64).T
            cursors = np.repeat(cursor, end - first)
            for (bank, subarray), words in loads.items():
                index = bank * per_bank + subarray
                if 0 <= subarray < per_bank and lo <= index < hi:
                    cursors[index - lo] += words
            heads = np.flatnonzero(np.diff(cursors, prepend=cursors[0] - 1))
            ends = np.append(heads[1:], hi - lo)
            segments[:] = zip(
                (heads + lo).tolist(),
                (ends + lo).tolist(),
                cursors[heads].tolist(),
            )

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

        All or nothing: when the pool cannot hold the matrix (or its
        mirror), the cursors, round-robin pointers and plan stay as
        they were before the call.

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
        kind = self._pool_kind(result)
        segments = self._segments[kind]
        saved = (list(segments), dict(self._rr_next))
        try:
            handle = MatrixHandle(
                name,
                rows,
                cols,
                result_set=result,
                stored_transposed=transposed,
                placed=self._place_rows(
                    cols if transposed else rows,
                    rows if transposed else cols,
                    kind,
                ),
            )
            if mirror:
                handle.mirror = MatrixHandle(
                    f"{name}^T",
                    cols,
                    rows,
                    result_set=result,
                    placed=self._place_rows(cols, rows, kind),
                )
        except MemoryError:
            segments[:], self._rr_next = saved
            raise
        self.plan.matrices[name] = handle
        return handle

    def _place_rows(self, rows: int, cols: int, kind: str) -> PlacedRows:
        """Place ``rows`` stored rows of ``cols`` words, in row order."""
        capacity = self._capacity
        per_row = -(-cols // capacity)
        if per_row == 1:
            runs = [(cols, rows)]
        else:
            lengths = [
                min(capacity, cols - piece * capacity)
                for piece in range(per_row)
            ]
            runs = [(length, 1) for _ in range(rows) for length in lengths]
        return PlacedRows(
            rows,
            cols,
            capacity,
            self.policy is PlacementPolicy.DISTRIBUTE,
            self.address_map.words_per_subarray,
            self.geometry.bank.subarrays,
            tuple(self._place_run(n, count, kind) for n, count in runs),
        )

    def _place_run(self, length: int, count: int, kind: str) -> PlacedRun:
        """Place ``count`` pieces of ``length`` words, in order.

        Exactly what ``count`` one-piece placements would do, in closed
        form per cursor segment.  A subarray with cursor ``c`` still
        takes ``(capacity - c) // length`` pieces.  BASE fills the pool
        first-fit, so each subarray in pool order takes all it can
        before the next.  DISTRIBUTE visits the pool cyclically from
        the round-robin pointer, skipping full subarrays, so in every
        round around the ring each subarray with room takes one piece:
        the pieces are the (round, ring position) pairs in order.

        Returns:
            The run's summary; :meth:`PlacedRun.pieces` expands it.

        Raises:
            MemoryError: if the pool cannot hold all ``count`` pieces.
        """
        lo, hi = self._pools[kind]
        segments = self._segments[kind]
        if self.policy is PlacementPolicy.BASE:
            run, updated = self._fill(segments, length, count)
            self._splice(segments, updated)
            return PlacedRun(length, tuple(run))
        start = lo + self._rr_next[kind]
        k = bisect_right(segments, start, key=_FIRST) - 1
        first, end, cursor = segments[k]
        ring = [(start, end, cursor), *segments[k + 1 :], *segments[:k]]
        if first < start:
            ring.append((first, start, cursor))
        run, updated, stop = self._deal(ring, length, count, hi - lo)
        self._rr_next[kind] = (stop - lo) % (hi - lo)
        # ``updated`` follows the ring: from ``start`` up the pool, then
        # from ``lo`` if the walk wrapped past its end.
        wrap = 1
        while wrap < len(updated) and updated[wrap][0] > start:
            wrap += 1
        up, wrapped = updated[:wrap], updated[wrap:]
        if wrapped and wrapped[-1][1] == start:
            # The whole ring: one pool-ordered splice.
            self._splice(segments, wrapped + up)
        else:
            self._splice(segments, up)
            if wrapped:
                self._splice(segments, wrapped)
        return PlacedRun(length, tuple(run))

    def _fill(
        self, segments: List[Segment], length: int, count: int
    ) -> Tuple[list, List[Segment]]:
        """BASE: first-fit over ``segments`` in pool order.

        Returns the run's ``(first, end, taken, cursor)`` segments and
        the new cursors of the pool prefix it touched.
        """
        capacity = self._capacity
        run, updated = [], []
        need = count
        for first, end, cursor in segments:
            room = (capacity - cursor) // length
            if not room:
                updated.append((first, end, cursor))
                continue
            stop = min(end, first + need // room)
            if stop > first:
                run.append((first, stop, room, cursor))
                updated.append((first, stop, cursor + room * length))
                need -= (stop - first) * room
            if need and stop < end:
                # Fewer than ``room`` pieces left: one subarray's part.
                run.append((stop, stop + 1, need, cursor))
                updated.append((stop, stop + 1, cursor + need * length))
                stop, need = stop + 1, 0
            if not need:
                if stop < end:
                    updated.append((stop, end, cursor))
                return run, updated
        raise MemoryError(f"no PIM subarray has {length} free words left")

    def _deal(
        self, ring: List[Segment], length: int, count: int, size: int
    ) -> Tuple[list, List[Segment], int]:
        """DISTRIBUTE: deal the pieces round by round over ``ring``, the
        ``size`` subarrays of a pool.

        Returns the run's ``(first, end, taken, cursor)`` segments and
        the new cursors of the ring parts it walked, both in ring order,
        and the pool index after the subarray that took the last piece.
        """
        capacity = self._capacity
        run, updated = [], []
        need = count
        # One round: the first ``count`` subarrays with room in ring
        # order take a piece each; the walk stops at the last of them.
        for first, end, cursor in ring if count <= size else ():
            if (capacity - cursor) // length:
                stop = min(end, first + need)
                run.append((first, stop, 1, cursor))
                updated.append((first, stop, cursor + length))
                need -= stop - first
                if not need:
                    if stop < end:
                        updated.append((stop, end, cursor))
                    return run, updated, stop
            else:
                updated.append((first, end, cursor))
        # More rounds: every subarray takes min(room, last round) pieces
        # and the first ``need`` with more room one more.
        groups = [
            (end - first, (capacity - cursor) // length)
            for first, end, cursor in ring
        ]
        if sum(subarrays * room for subarrays, room in groups) < count:
            raise MemoryError(f"no PIM subarray has {length} free words left")
        last_round = self._last_round(groups, count)
        need = count - sum(
            subarrays * min(room, last_round) for subarrays, room in groups
        )
        run, updated = [], []
        for (first, end, cursor), (_, room) in zip(ring, groups):
            took = min(room, last_round)
            stop = first
            if need and room > last_round:
                stop = min(end, first + need)
                run.append((first, stop, took + 1, cursor))
                updated.append((first, stop, cursor + (took + 1) * length))
                need -= stop - first
                if not need:
                    pointer = stop
            if stop < end:
                if took:
                    run.append((stop, end, took, cursor))
                updated.append((stop, end, cursor + took * length))
        return run, updated, pointer

    @staticmethod
    def _splice(segments: List[Segment], parts: List[Segment]) -> None:
        """Write the pool-contiguous ``parts`` over ``segments`` in one
        pass, merging neighbours with equal cursors."""
        first, end = parts[0][0], parts[-1][1]
        i = bisect_right(segments, first, key=_FIRST) - 1
        j = bisect_left(segments, end, key=_END)
        head_first, _, head_cursor = segments[i]
        _, tail_end, tail_cursor = segments[j]
        head = [(head_first, first, head_cursor)] if head_first < first else []
        tail = [(end, tail_end, tail_cursor)] if end < tail_end else []
        lo, hi = max(i - 1, 0), min(j + 2, len(segments))
        merged: List[Segment] = []
        for part in chain(
            segments[lo:i], head, parts, tail, segments[j + 1 : hi]
        ):
            if merged and merged[-1][2] == part[2]:
                merged[-1] = (merged[-1][0], part[1], part[2])
            else:
                merged.append(part)
        segments[lo:hi] = merged

    @staticmethod
    def _last_round(groups: List[Tuple[int, int]], count: int) -> int:
        """Round of the ``count``-th piece when every subarray with
        room takes one piece per round (0-based), over
        ``(subarrays, room)`` groups.

        ``F(r) = sum(subarrays * min(room, r))`` pieces fill rounds
        ``0..r-1``; the answer is the least ``r`` with
        ``F(r + 1) >= count``.  ``F`` is linear between sorted ``room``
        values, so one walk over them and one division find it.  When
        every subarray has room for ``ceil(count / size)`` pieces, that
        is the first step and needs no sort.
        """
        size = sum(subarrays for subarrays, _ in groups)
        if min(room for _, room in groups) * size >= count:
            return -(-count // size) - 1
        below, active = 0, size
        for subarrays, room in sorted(groups, key=lambda group: group[1]):
            if below + room * active >= count:
                break
            below += subarrays * room
            active -= subarrays
        return -(-(count - below) // active) - 1
