"""Content-addressed incremental experiment DAG.

The pipeline behind every figure point -- build, interpret, transform,
simulate, aggregate -- is modelled as a stage graph whose nodes are
keyed by content hashes of their code version, upstream artefact
digests and parameters (:mod:`repro.incr.dag`), whose outputs live in
a persistent content-addressed artifact store
(:mod:`repro.incr.store`), and whose scheduler proves which stages are
still valid before emitting only the invalidated remainder as pool
tasks (:mod:`repro.incr.plan`).

See ``docs/INCREMENTAL.md`` for the full key-derivation and
invalidation rules, and :mod:`repro.incr.gc` for the store collector.
"""

from repro.incr.dag import (
    COMPUTE_STAGES,
    STAGES,
    build_key,
    code_fingerprint,
    figure_key,
    interpret_key,
    pipeline_version,
    simulate_key,
    stage_version,
    transform_key,
)
from repro.incr.plan import FigurePlan, build_figure_plan, finalize_figure
from repro.incr.stages import (
    StageOutcome,
    build_stage,
    interpret_stage,
    load_point_summary,
    store_point_summary,
    transform_stage,
)
from repro.incr.store import ArtifactStore

__all__ = [
    "ArtifactStore",
    "COMPUTE_STAGES",
    "FigurePlan",
    "STAGES",
    "StageOutcome",
    "build_figure_plan",
    "build_key",
    "build_stage",
    "code_fingerprint",
    "figure_key",
    "finalize_figure",
    "interpret_key",
    "interpret_stage",
    "load_point_summary",
    "pipeline_version",
    "simulate_key",
    "stage_version",
    "store_point_summary",
    "transform_key",
    "transform_stage",
]
