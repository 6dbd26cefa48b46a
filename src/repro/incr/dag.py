"""The experiment stage graph and its content-addressed keys.

The pipeline every figure point runs is a fixed five-stage chain::

    build --(case fingerprint)--> interpret --(baseline trace+profile)
          --> transform --(thread traces)--> simulate --(point summary)
          --> figure

Each stage's *key* is a content hash of everything that can change its
output, and nothing else:

* a **code-version fingerprint** -- sha256 over the source text of the
  packages the stage executes (plus explicit version constants such as
  :data:`repro.machine.batch.CODEGEN_VERSION` for ``simulate``), so
  editing ``machine/`` rolls only the simulate keys and editing the
  analyses rolls transform but not interpret;
* the **upstream output digests** -- *semantic* content digests of the
  artefacts the stage consumes (trace content, profile counts), not
  serialisation bytes, so a re-run upstream stage that reproduces
  identical output leaves the downstream key unchanged (early cutoff);
* the **parameters** -- workload recipe (name, scale, seed), case
  fingerprint, partition/alias/threads knobs, canonical machine spec.

Workload *content* enters the compute stages only through the case
fingerprint, which the ``build`` stage records in its receipt.  The
build key is the recipe plus the code that executes it (the workload
package, the IR and interpreter packages it constructs cases from, and
the fingerprint module that hashes them), so a warm planner learns
every case fingerprint from receipts without constructing a case.
Editing the workload package reruns every build; early cutoff then
invalidates exactly the workloads whose case fingerprint changed, and
editing one workload's body invalidates exactly that workload's
subtree.

All hashing goes through :mod:`repro.machine.fingerprint` -- the same
canonical hasher the experiment cache, the batched simulator and the
service protocol key on -- so one stage artefact is addressable from
bench, batch and serve paths alike.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
from typing import Optional

from repro.machine.fingerprint import content_digest

#: Stage kinds, in pipeline order.  ``build`` and ``figure`` are the
#: driver-side stages (case construction, aggregation); the middle
#: three are the compute stages workers execute.
STAGE_BUILD = "build"
STAGE_INTERPRET = "interpret"
STAGE_TRANSFORM = "transform"
STAGE_SIMULATE = "simulate"
STAGE_FIGURE = "figure"
STAGES = (STAGE_BUILD, STAGE_INTERPRET, STAGE_TRANSFORM, STAGE_SIMULATE,
          STAGE_FIGURE)
COMPUTE_STAGES = (STAGE_INTERPRET, STAGE_TRANSFORM, STAGE_SIMULATE)

#: The packages (or single modules) whose source text versions each
#: stage.  The build runs the workload package over the IR builder and
#: the interpreter's memory model, then hashes the case with the
#: fingerprint module.  ``repro.ir`` and ``repro.interp`` feed
#: interpret; the transform adds the analyses and the partitioner;
#: simulate is the timing model alone.
STAGE_PACKAGES = {
    STAGE_BUILD: ("repro.workloads", "repro.ir", "repro.interp",
                  "repro.machine.fingerprint"),
    STAGE_INTERPRET: ("repro.ir", "repro.interp"),
    STAGE_TRANSFORM: ("repro.ir", "repro.interp", "repro.analysis",
                      "repro.core"),
    STAGE_SIMULATE: ("repro.machine",),
    STAGE_FIGURE: (),
}

#: Bump when the figure aggregation (point summary shape, ordering)
#: changes meaning.
FIGURE_VERSION = 1

#: Test hook: extra salt mixed into one stage's version, so the
#: invalidation tests can model "this layer's code changed" without
#: rewriting source files.  Empty in production.
_VERSION_SALTS: dict[str, str] = {}

_code_fp_memo: dict[str, str] = {}


def code_fingerprint(package: str) -> str:
    """sha256 over a package's ``.py`` source files, path-relative (a
    plain module hashes its one file).

    Memoised per process -- source files do not change under a running
    driver, and a sweep computes thousands of stage keys.  Files are
    walked in sorted relative order so the digest is independent of
    directory enumeration order, and file *paths* are hashed alongside
    contents so moving code between modules registers as a change.
    """
    cached = _code_fp_memo.get(package)
    if cached is not None:
        return cached
    spec = importlib.util.find_spec(package)
    if spec is None or not (spec.submodule_search_locations or spec.origin):
        raise ValueError(f"cannot locate package {package!r}")
    if spec.submodule_search_locations:
        files = [(os.path.relpath(os.path.join(dirpath, name), root),
                  os.path.join(dirpath, name))
                 for root in sorted(spec.submodule_search_locations)
                 for dirpath, _, filenames in sorted(os.walk(root))
                 for name in sorted(filenames) if name.endswith(".py")]
    else:
        files = [(os.path.basename(spec.origin), spec.origin)]
    h = hashlib.sha256()
    for rel, path in files:
        h.update(rel.encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    digest = h.hexdigest()
    _code_fp_memo[package] = digest
    return digest


def stage_version(kind: str) -> str:
    """The code-version component of one stage kind's keys.

    Combines the package source fingerprints with any explicit version
    constants the stage's artefact formats carry (read at call time so
    a monkeypatched :data:`~repro.machine.batch.CODEGEN_VERSION` bump
    behaves exactly like an edit to ``machine/``).
    """
    parts: list = [kind, [code_fingerprint(p) for p in STAGE_PACKAGES[kind]],
                   _VERSION_SALTS.get(kind, "")]
    if kind == STAGE_SIMULATE:
        from repro.machine import batch

        parts.append(batch.CODEGEN_VERSION)
    if kind == STAGE_FIGURE:
        parts.append(FIGURE_VERSION)
        # A figure aggregates simulate output, so a simulate-layer
        # change reaches it through the simulate *keys* it digests --
        # no code fingerprint of its own needed beyond the version.
    return content_digest(parts)


def pipeline_version() -> str:
    """One digest covering every compute stage's version -- the code
    component of the service's response-cache keys."""
    return content_digest([stage_version(kind) for kind in COMPUTE_STAGES])


# ----------------------------------------------------------------------
# Stage keys
# ----------------------------------------------------------------------

def _stage_key(kind: str, payload: dict) -> str:
    return content_digest({"stage": kind, "version": stage_version(kind),
                           **payload})


def build_key(workload: str, scale: int, seed: int) -> str:
    """Construction of one workload case from its recipe.  The receipt
    records the case fingerprint every downstream key consumes."""
    return _stage_key(STAGE_BUILD, {"workload": workload, "scale": scale,
                                    "seed": seed})


def interpret_key(case_fp: str, check: bool = True) -> str:
    """Baseline interpretation of one case (trace + profile + final
    functional state)."""
    return _stage_key(STAGE_INTERPRET, {"case": case_fp, "check": check})


def transform_key(
    case_fp: str,
    baseline_content: str,
    partition_key=None,
    alias_key: Optional[str] = None,
    threads: int = 2,
    check: bool = True,
) -> str:
    """DSWP transform + pipeline execution (thread traces).

    ``baseline_content`` is the *semantic* digest of the interpret
    stage's output (recorded in its receipt), so an interpret re-run
    with identical output leaves this key -- and every cached
    transform -- valid.
    """
    return _stage_key(STAGE_TRANSFORM, {
        "case": case_fp,
        "baseline": baseline_content,
        "partition": partition_key,
        "alias": alias_key,
        "threads": threads,
        "check": check,
    })


def simulate_key(traces_content: str, machine_spec: dict) -> str:
    """Timing simulation of one trace set on one machine config.

    Keyed on the traces' semantic content digest -- not on which stage
    produced them -- so the base and dswp flavours, bench and service,
    all address the same simulation."""
    return _stage_key(STAGE_SIMULATE, {"traces": traces_content,
                                       "machine": machine_spec})


def figure_key(figure: str, scale: int, simulate_keys: list) -> str:
    """Figure aggregation over the ordered simulate stages.

    Digests the simulate *keys* (not their output digests): any
    rescheduled simulate stage -- including a pure code-version bump --
    re-runs the aggregation, which is what makes a warm no-op run's
    ``scheduled == 0`` a meaningful proof."""
    return _stage_key(STAGE_FIGURE, {"figure": figure, "scale": scale,
                                     "simulates": list(simulate_keys)})
