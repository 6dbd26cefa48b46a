"""Persistent content-addressed artifact store for the stage graph.

Layered on :class:`~repro.harness.cache.ShardedExperimentCache`, which
supplies everything the store needs from a concurrent filesystem
layer and nothing it has to re-invent:

* **lock-free concurrent writers** -- every disk write is a unique tmp
  file (pid + counter) finished by one atomic ``os.replace``; racing
  writers of the same entry both leave a valid file, in either order;
* **corruption is a miss** -- a torn, truncated or garbage entry is
  evicted, counted (``corrupt_evictions``) and recomputed, never
  decoded into the pipeline;
* **sha256-routed shards** -- entries spread over ``shard-<i>``
  subdirectories with per-shard locks, so concurrent readers of
  different keys never contend in-process and two shards never race on
  one file.

Two entry kinds live on top:

* ``artifact`` -- a stage *output*, addressed by a semantic content
  digest the stage layer computes (trace content, profile counts --
  never pickle bytes, which vary across processes);
* ``receipt`` -- the proof one stage ran: maps a stage input key
  (:mod:`repro.incr.dag`) to its outputs' addresses plus their
  semantic digests.  A stage is *valid* iff its receipt decodes and
  every referenced artifact exists.

Pins (`pins/*.json` beside the shards) mark the entries an in-flight
plan depends on; ``cache gc`` refuses to collect them (see
:mod:`repro.incr.gc`).
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable, Optional

from repro.harness.cache import ShardedExperimentCache

#: A pin older than this is presumed leaked by a killed driver and no
#: longer protects its entries (docs/INCREMENTAL.md, gc runbook).
PIN_TTL_SECONDS = 24 * 3600

ARTIFACT_KIND = "artifact"
RECEIPT_KIND = "receipt"


class ArtifactStore:
    """Content-addressed stage outputs + receipts; see module docstring.

    ``persist_dir=None`` keeps everything in memory -- the pure-compute
    configuration the verification lanes use for independent re-runs.
    The underlying sharded cache is exposed as :attr:`objects` so
    layers with their own keying discipline (the batched simulator's
    annotation cache) can share the store's persistence without going
    through receipts.
    """

    def __init__(self, persist_dir: Optional[str] = None, shards: int = 8,
                 log: Optional[Callable[[str], None]] = None,
                 metrics=None) -> None:
        self.persist_dir = persist_dir
        self.objects = ShardedExperimentCache(
            persist_dir=persist_dir, shards=shards, log=log, metrics=metrics)

    # ------------------------------------------------------------------
    # Artifacts
    # ------------------------------------------------------------------
    def put_artifact(self, digest: str, obj: object) -> str:
        """Store ``obj`` under its semantic content ``digest``.

        Idempotent by construction: two workers producing the same
        content write the same address, and the atomic rename makes
        either write a complete, valid entry."""
        self.objects.put_object(ARTIFACT_KIND, digest, obj)
        return digest

    def get_artifact(self, digest: str):
        """Load one artifact; ``None`` on any miss (absent or corrupt)."""
        return self.objects.get_object(ARTIFACT_KIND, digest)

    def has_artifact(self, digest: str) -> bool:
        """Existence probe without decoding (planner-side validity)."""
        return self.objects.has_object(ARTIFACT_KIND, digest)

    # ------------------------------------------------------------------
    # Receipts
    # ------------------------------------------------------------------
    def put_receipt(self, stage_key: str, outputs: dict,
                    meta: Optional[dict] = None,
                    inline: Optional[dict] = None) -> None:
        """Record that the stage keyed ``stage_key`` ran and produced
        ``outputs`` (name -> artifact address / semantic digest).

        ``inline`` carries a small output by value inside the receipt
        itself (point summaries), trading content-addressed sharing for
        one store entry instead of two."""
        record = {
            "outputs": dict(outputs),
            "meta": dict(meta or {}),
        }
        if inline is not None:
            record["inline"] = dict(inline)
        self.objects.put_object(RECEIPT_KIND, stage_key, record)

    def get_receipt(self, stage_key: str) -> Optional[dict]:
        """Load one receipt; shape-validated so a stale or foreign
        payload reads as a miss, never as a malformed plan input."""
        receipt = self.objects.get_object(RECEIPT_KIND, stage_key)
        if (not isinstance(receipt, dict)
                or not isinstance(receipt.get("outputs"), dict)):
            return None
        return receipt

    # ------------------------------------------------------------------
    # Pins: gc refusal for in-flight plans
    # ------------------------------------------------------------------
    def _pin_dir(self) -> Optional[str]:
        if self.persist_dir is None:
            return None
        return os.path.join(self.persist_dir, "pins")

    def _entry_path(self, kind: str, key) -> Optional[str]:
        """Absolute disk path of one entry (present or not)."""
        if self.persist_dir is None:
            return None
        index = self.objects.shard_index(key)
        return self.objects._shards[index]._entry_path(kind, key)

    def pin(self, plan_id: str, receipts: list, artifacts: list) -> Optional[str]:
        """Write a pin file protecting the given receipt keys and
        artifact digests from ``cache gc`` while a plan is in flight.

        Returns the pin path (``None`` for in-memory stores).  Pins are
        advisory and self-expiring (:data:`PIN_TTL_SECONDS`): a killed
        driver leaks at most one collection cycle's worth of
        protection, never a permanent exclusion."""
        pin_dir = self._pin_dir()
        if pin_dir is None:
            return None
        # Entries sit exactly one shard directory below the store root,
        # so the store-relative path is the last two components (what
        # ``gc`` walks to; ``os.path.relpath`` per entry costs a warm
        # plan more than its receipt reads).
        paths = []
        for kind, keys in ((RECEIPT_KIND, receipts),
                           (ARTIFACT_KIND, artifacts)):
            for key in keys:
                shard_dir, name = os.path.split(self._entry_path(kind, key))
                paths.append(os.path.join(os.path.basename(shard_dir), name))
        os.makedirs(pin_dir, exist_ok=True)
        pin_path = os.path.join(pin_dir, f"{plan_id}.json")
        tmp = f"{pin_path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"created": time.time(), "paths": sorted(set(paths))},
                      fh)
        os.replace(tmp, pin_path)
        return pin_path

    def unpin(self, plan_id: str) -> None:
        """Drop a plan's pin (idempotent; missing pins are fine)."""
        pin_dir = self._pin_dir()
        if pin_dir is None:
            return
        try:
            os.remove(os.path.join(pin_dir, f"{plan_id}.json"))
        except OSError:
            pass

    @staticmethod
    def pinned_paths(persist_dir: str) -> set[str]:
        """Every store-relative path protected by a live pin.

        Unreadable or expired pin files protect nothing (a corrupt pin
        must not permanently exempt entries from collection)."""
        pin_dir = os.path.join(persist_dir, "pins")
        pinned: set[str] = set()
        try:
            names = os.listdir(pin_dir)
        except OSError:
            return pinned
        now = time.time()
        for name in names:
            if not name.endswith(".json"):
                continue
            try:
                with open(os.path.join(pin_dir, name), encoding="utf-8") as fh:
                    record = json.load(fh)
                created = float(record.get("created", 0.0))
                if now - created > PIN_TTL_SECONDS:
                    continue
                for rel in record.get("paths", ()):
                    if isinstance(rel, str):
                        pinned.add(rel)
            except (OSError, ValueError, TypeError):
                continue
        return pinned

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Aggregated flat-int counters (see
        :meth:`~repro.harness.cache.ExperimentCache.stats`)."""
        return self.objects.stats()
