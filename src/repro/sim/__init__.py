"""Discrete-event simulation engine and statistics accounting.

Provides the event queue that drives VPC execution across banks and
subarrays, the pipeline cycle algebra used by the RM processor and RM
bus models, and the time/energy breakdown containers that regenerate the
paper's breakdown figures.
"""

from repro.sim.engine import Engine, Event, Resource
from repro.sim.pipeline import PipelineModel, PipelineStage
from repro.sim.stats import TimeBreakdown, EnergyBreakdown, RunStats
from repro.sim.vector_exec import VectorExecState, sweep_spans

__all__ = [
    "Engine",
    "Event",
    "Resource",
    "PipelineModel",
    "PipelineStage",
    "TimeBreakdown",
    "EnergyBreakdown",
    "RunStats",
    "VectorExecState",
    "sweep_spans",
]
