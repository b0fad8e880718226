"""Platform-neutral workload descriptions.

A :class:`WorkloadSpec` is a sequence of matrix operations with concrete
dimensions.  Every evaluation platform consumes the same spec:

* StreamPIM platforms build a :class:`~repro.core.task.PimTask` from it
  (:meth:`WorkloadSpec.build_task`);
* analytic baselines (CPU, GPU, CORUSCANT, ELP2IM, FELIX) derive scalar
  operation counts and memory traffic from it
  (:meth:`WorkloadSpec.scalar_ops`);
* Table IV reproduction derives the closed-form VPC counts
  (:meth:`WorkloadSpec.vpc_counts`), which tests cross-check against
  explicit trace enumeration at reduced dimensions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.device import StreamPIMDevice
from repro.core.task import PimTask, TaskOp, create_pim_task

#: Operand RNG seed of :meth:`WorkloadSpec.build_task` when the caller
#: names none.  It is part of every trace-cache key, so every entry
#: point that defaults the seed refers to this one value.
DEFAULT_SEED = 7


class MatrixOpKind(enum.Enum):
    """Matrix-level operation kinds a workload is built from."""

    MATMUL = "matmul"  # (m, k, n): C[m,n] = A[m,k] @ B[k,n]
    MATVEC = "matvec"  # (m, k): y[m] = A[m,k] @ x[k]
    MATVEC_T = "matvec_t"  # (m, k): y[k] = A[m,k].T @ x[m]
    MAT_ADD = "mat_add"  # (m, k): C = A + B
    MAT_SCALE = "mat_scale"  # (m, k): B = alpha * A
    VEC_ADD = "vec_add"  # (k,): z = x + y
    VEC_SCALE = "vec_scale"  # (k,): y = alpha * x
    DOT = "dot"  # (k,): s = x . y


@dataclass(frozen=True)
class MatrixOp:
    """One matrix operation with concrete dimensions.

    Attributes:
        kind: operation kind.
        dims: dimensions; see :class:`MatrixOpKind` for the convention.
        accumulate: the result is added into an existing destination
            (``y += ...``), which costs extra element-wise additions.
    """

    kind: MatrixOpKind
    dims: Tuple[int, ...]
    accumulate: bool = False

    def __post_init__(self) -> None:
        expected = {
            MatrixOpKind.MATMUL: 3,
            MatrixOpKind.MATVEC: 2,
            MatrixOpKind.MATVEC_T: 2,
            MatrixOpKind.MAT_ADD: 2,
            MatrixOpKind.MAT_SCALE: 2,
            MatrixOpKind.VEC_ADD: 1,
            MatrixOpKind.VEC_SCALE: 1,
            MatrixOpKind.DOT: 1,
        }[self.kind]
        if len(self.dims) != expected:
            raise ValueError(
                f"{self.kind.value} takes {expected} dims, got {self.dims}"
            )
        if any(d <= 0 for d in self.dims):
            raise ValueError(f"dims must be positive, got {self.dims}")

    # ------------------------------------------------------------------
    # Scalar-op algebra
    # ------------------------------------------------------------------
    @property
    def scalar_muls(self) -> int:
        kind, dims = self.kind, self.dims
        if kind is MatrixOpKind.MATMUL:
            m, k, n = dims
            return m * k * n
        if kind in (MatrixOpKind.MATVEC, MatrixOpKind.MATVEC_T):
            m, k = dims
            return m * k
        if kind in (MatrixOpKind.MAT_SCALE,):
            m, k = dims
            return m * k
        if kind is MatrixOpKind.VEC_SCALE:
            return dims[0]
        if kind is MatrixOpKind.DOT:
            return dims[0]
        return 0

    @property
    def scalar_adds(self) -> int:
        kind, dims = self.kind, self.dims
        extra = 0
        if self.accumulate:
            extra = self.result_words
        if kind is MatrixOpKind.MATMUL:
            m, k, n = dims
            return m * (k - 1) * n + extra
        if kind in (MatrixOpKind.MATVEC, MatrixOpKind.MATVEC_T):
            m, k = dims
            return m * (k - 1) + extra
        if kind is MatrixOpKind.MAT_ADD:
            m, k = dims
            return m * k + extra
        if kind is MatrixOpKind.VEC_ADD:
            return dims[0] + extra
        if kind is MatrixOpKind.DOT:
            return dims[0] - 1 + extra
        return extra

    @property
    def operand_words(self) -> int:
        """Input elements the operation touches (for traffic models)."""
        kind, dims = self.kind, self.dims
        if kind is MatrixOpKind.MATMUL:
            m, k, n = dims
            return m * k + k * n
        if kind in (MatrixOpKind.MATVEC, MatrixOpKind.MATVEC_T):
            m, k = dims
            return m * k + (k if kind is MatrixOpKind.MATVEC else m)
        if kind is MatrixOpKind.MAT_ADD:
            m, k = dims
            return 2 * m * k
        if kind is MatrixOpKind.MAT_SCALE:
            m, k = dims
            return m * k
        if kind in (MatrixOpKind.VEC_ADD,):
            return 2 * dims[0]
        if kind in (MatrixOpKind.VEC_SCALE,):
            return dims[0]
        if kind is MatrixOpKind.DOT:
            return 2 * dims[0]
        raise AssertionError(kind)

    @property
    def result_words(self) -> int:
        kind, dims = self.kind, self.dims
        if kind is MatrixOpKind.MATMUL:
            m, _, n = dims
            return m * n
        if kind is MatrixOpKind.MATVEC:
            return dims[0]
        if kind is MatrixOpKind.MATVEC_T:
            return dims[1]
        if kind in (MatrixOpKind.MAT_ADD, MatrixOpKind.MAT_SCALE):
            m, k = dims
            return m * k
        if kind in (MatrixOpKind.VEC_ADD, MatrixOpKind.VEC_SCALE):
            return dims[0]
        if kind is MatrixOpKind.DOT:
            return 1
        raise AssertionError(kind)

    @property
    def flops(self) -> int:
        return self.scalar_muls + self.scalar_adds

    # ------------------------------------------------------------------
    # VPC counting (the Table IV convention; see repro.core.task)
    # ------------------------------------------------------------------
    @property
    def pim_vpcs(self) -> int:
        kind, dims = self.kind, self.dims
        if kind is MatrixOpKind.MATMUL:
            m, _, n = dims
            return m * n
        if kind in (MatrixOpKind.MATVEC, MatrixOpKind.MATVEC_T):
            rows = dims[0] if kind is MatrixOpKind.MATVEC else dims[1]
            return rows * (2 if self.accumulate else 1)
        if kind in (MatrixOpKind.MAT_ADD, MatrixOpKind.MAT_SCALE):
            return dims[0]
        if kind in (
            MatrixOpKind.VEC_ADD,
            MatrixOpKind.VEC_SCALE,
            MatrixOpKind.DOT,
        ):
            return 1
        raise AssertionError(kind)

    @property
    def move_vpcs(self) -> int:
        kind, dims = self.kind, self.dims
        if kind is MatrixOpKind.MATMUL:
            m, _, n = dims
            return m * n  # one operand delivery per dot; results stay put
        if kind in (MatrixOpKind.MATVEC, MatrixOpKind.MATVEC_T):
            rows = dims[0] if kind is MatrixOpKind.MATVEC else dims[1]
            # delivery + scalar collection per dot (+ the same again for
            # the accumulation adds)
            return rows * (4 if self.accumulate else 2)
        if kind in (MatrixOpKind.MAT_ADD, MatrixOpKind.MAT_SCALE):
            return dims[0]
        if kind is MatrixOpKind.VEC_ADD:
            return 1
        if kind is MatrixOpKind.VEC_SCALE:
            return 1
        if kind is MatrixOpKind.DOT:
            return 2
        raise AssertionError(kind)


@dataclass(frozen=True)
class ScalarOpCounts:
    """Aggregate scalar-operation/traffic view of one workload."""

    muls: int
    adds: int
    operand_words: int
    result_words: int

    @property
    def flops(self) -> int:
        return self.muls + self.adds

    @property
    def traffic_words(self) -> int:
        return self.operand_words + self.result_words


# Builder signature: (task) -> None, records matrices + operations.
TaskBuilder = Callable[[PimTask, np.random.Generator], None]


@dataclass
class WorkloadSpec:
    """One named workload: matrix ops plus optional PIM task builder.

    Attributes:
        name: workload label ("gemm", "mlp", ...).
        ops: the matrix operations, in execution order.
        build: optional callable that records the same computation on a
            :class:`PimTask` (for running on StreamPIM platforms).
        paper_pim_vpcs: Table IV #PIM-VPC (None if not listed).
        paper_move_vpcs: Table IV #move-VPC (None if not listed).
        nonlinear_flop_fraction: fraction of end-to-end scalar work that
            is non-offloadable (DNN nonlinear layers, section V-E).
        description: the "process task" formula of Table IV.
    """

    name: str
    ops: List[MatrixOp]
    build: Optional[TaskBuilder] = None
    paper_pim_vpcs: Optional[float] = None
    paper_move_vpcs: Optional[float] = None
    nonlinear_flop_fraction: float = 0.0
    description: str = ""

    def __post_init__(self) -> None:
        if not self.ops:
            raise ValueError(f"workload {self.name!r} has no operations")
        if not 0.0 <= self.nonlinear_flop_fraction < 1.0:
            raise ValueError(
                "nonlinear_flop_fraction must be in [0, 1), got "
                f"{self.nonlinear_flop_fraction}"
            )

    # ------------------------------------------------------------------
    def scalar_ops(self) -> ScalarOpCounts:
        """Aggregate scalar mul/add counts and traffic."""
        return ScalarOpCounts(
            muls=sum(op.scalar_muls for op in self.ops),
            adds=sum(op.scalar_adds for op in self.ops),
            operand_words=sum(op.operand_words for op in self.ops),
            result_words=sum(op.result_words for op in self.ops),
        )

    def vpc_counts(self) -> Tuple[int, int]:
        """Closed-form (#PIM-VPC, #move-VPC) of the lowered workload."""
        return (
            sum(op.pim_vpcs for op in self.ops),
            sum(op.move_vpcs for op in self.ops),
        )

    def build_task(
        self,
        device: Optional[StreamPIMDevice] = None,
        seed: int = DEFAULT_SEED,
    ) -> PimTask:
        """Materialise a PimTask for this workload.

        Raises:
            NotImplementedError: if the workload has no task builder.
        """
        if self.build is None:
            raise NotImplementedError(
                f"workload {self.name!r} has no PIM task builder"
            )
        task = create_pim_task(device)
        self.build(task, np.random.default_rng(seed))
        return task

    def scaled(self, factor: float, name: Optional[str] = None) -> "WorkloadSpec":
        """A copy with every dimension scaled by ``factor`` (for tests).

        The task builder is dropped (it is bound to the original dims).
        """
        if factor <= 0:
            raise ValueError(f"factor must be positive, got {factor}")
        ops = [
            MatrixOp(
                op.kind,
                tuple(max(1, int(round(d * factor))) for d in op.dims),
                op.accumulate,
            )
            for op in self.ops
        ]
        return WorkloadSpec(
            name=name or f"{self.name}@x{factor}",
            ops=ops,
            build=None,
            nonlinear_flop_fraction=self.nonlinear_flop_fraction,
            description=self.description,
        )
