"""Parallel execution fabric: warm worker pool, shared-memory result
transport and cost-aware work-stealing scheduling.

The fabric replaces ad-hoc per-caller fan-out: callers describe their
work as :class:`PoolTask` items and hand them to a :class:`WorkerPool`;
placement, transport, crash recovery and telemetry are owned here.
Both the bench harness (:mod:`repro.harness.bench`) and the fuzz
campaign (:mod:`repro.fuzz.campaign`) run on it; the compile service
(:mod:`repro.service.session`) keeps one open-ended run fed through a
:class:`TaskFeed`.
"""

from repro.parallel.costmodel import CostModel, point_kind
from repro.parallel.feed import TaskFeed
from repro.parallel.pool import (
    TaskFailed,
    TransientTaskError,
    WorkerPool,
    fresh_arena,
    worker_arena,
)
from repro.parallel.scheduler import PoolTask, StealScheduler, TaskResult
from repro.parallel.shm import (
    SegmentAllocator,
    SegmentChecksumError,
    corrupt_segment,
    decode_result,
    encode_result,
    release_result,
    shm_available,
    sweep_worker_segments,
    wire_segment_names,
)

__all__ = [
    "CostModel",
    "PoolTask",
    "SegmentAllocator",
    "SegmentChecksumError",
    "StealScheduler",
    "TaskFailed",
    "TaskFeed",
    "TaskResult",
    "TransientTaskError",
    "WorkerPool",
    "corrupt_segment",
    "decode_result",
    "encode_result",
    "fresh_arena",
    "point_kind",
    "release_result",
    "shm_available",
    "sweep_worker_segments",
    "wire_segment_names",
    "worker_arena",
]
