"""Workload generators: PolyBench kernels (Table IV) and DNN graphs (V-E)."""

from repro.workloads.spec import (
    MatrixOpKind,
    MatrixOp,
    WorkloadSpec,
    ScalarOpCounts,
)
from repro.workloads.polybench import (
    POLYBENCH,
    DATASET_SCALES,
    dataset_scale,
    polybench_workload,
    polybench_names,
    SMALL_KERNELS,
)
from repro.workloads.dnn import DNN_WORKLOADS, dnn_workload, mlp_spec, bert_spec
from repro.workloads.extra import EXTRA_WORKLOADS, extra_workload
from repro.workloads.generator import random_matrix, random_vector
from repro.workloads.request import find_workload

__all__ = [
    "find_workload",
    "MatrixOpKind",
    "MatrixOp",
    "WorkloadSpec",
    "ScalarOpCounts",
    "POLYBENCH",
    "DATASET_SCALES",
    "dataset_scale",
    "polybench_workload",
    "polybench_names",
    "SMALL_KERNELS",
    "DNN_WORKLOADS",
    "dnn_workload",
    "EXTRA_WORKLOADS",
    "extra_workload",
    "mlp_spec",
    "bert_spec",
    "random_matrix",
    "random_vector",
]
