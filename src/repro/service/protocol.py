"""Service wire protocol: request validation, content keys, payloads.

One request describes one experiment: a *source* (a registered workload
name, or raw IR text with its loop header and initial state), a
*machine* specification, a *scale* and a *check* flag.  This module
owns the three derived identities the rest of the service keys on:

* :func:`request_key` -- sha256 over the canonical request, identical
  for semantically identical requests regardless of field order or
  tenant; the coalescing and response-cache key;
* :func:`functional_key` -- the request identity *minus the machine*:
  requests sharing it need the same interpretation work and batch into
  one pool task with one :class:`~repro.machine.batch.BatchedSimulator`
  lane group;
* :func:`machine_key` -- the canonical machine spec, the per-config
  identity inside a batched task.

Validation is strict: unknown keys are rejected (a typoed field name
must not silently become a default), and every error is a
:class:`ProtocolError` carrying the HTTP status the server should
answer with.

:func:`experiment_payload` is the single serialisation of a finished
experiment -- the service's bit-identity gate depends on the daemon and
the in-process harness both calling it, so it lives here rather than
in the server.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.harness.results import experiment_to_dict
from repro.harness.runner import ExperimentResult
from repro.machine.config import (
    FULL_WIDTH_CORE,
    HALF_WIDTH_CORE,
    MachineConfig,
)
from repro.machine.fingerprint import (
    canonical_json,
    content_digest,
    sim_fingerprint,
)

#: Upper bounds keeping one request from monopolising the daemon.
MAX_IR_BYTES = 256 * 1024
MAX_MEMORY_CELLS = 65536
MAX_SCALE = 2_000_000
MAX_TENANT_LEN = 64

_CORES = {"full": FULL_WIDTH_CORE, "half": HALF_WIDTH_CORE}

_TOP_KEYS = {"workload", "ir", "loop_header", "memory", "initial_regs",
             "machine", "scale", "check", "tenant"}
_MACHINE_KEYS = {"core", "comm_latency", "queue_size"}


class ProtocolError(ValueError):
    """A request the service refuses, with its HTTP answer attached."""

    def __init__(self, status: int, code: str, detail: str) -> None:
        super().__init__(detail)
        self.status = status
        self.code = code
        self.detail = detail

    def to_dict(self) -> dict:
        return {"error": self.code, "detail": self.detail}


def _bad(detail: str, code: str = "bad-request") -> ProtocolError:
    return ProtocolError(400, code, detail)


@dataclass(frozen=True)
class ExperimentRequest:
    """A validated, canonicalised experiment request."""

    #: ``"workload"`` or ``"ir"``.
    kind: str
    #: Registered workload name (``kind == "workload"``).
    workload: Optional[str] = None
    #: Raw IR text (``kind == "ir"``).
    ir: Optional[str] = None
    loop_header: Optional[str] = None
    #: Initial memory image, ``{address: value}``.
    memory: dict = field(default_factory=dict)
    #: Initial registers, ``{"r1": value, ...}``.
    initial_regs: dict = field(default_factory=dict)
    #: Canonical machine spec with every default filled in.
    machine: dict = field(default_factory=dict)
    scale: Optional[int] = None
    check: bool = True
    tenant: str = "default"

    # -- canonical identities ------------------------------------------
    def source_dict(self) -> dict:
        """The machine-independent half of the request."""
        if self.kind == "workload":
            source: dict = {"kind": "workload", "workload": self.workload}
        else:
            source = {
                "kind": "ir",
                "ir": self.ir,
                "loop_header": self.loop_header,
                "memory": {str(k): v for k, v in sorted(self.memory.items())},
                "initial_regs": dict(sorted(self.initial_regs.items())),
            }
        source["scale"] = self.scale
        source["check"] = self.check
        return source


def _canonical(data: dict) -> str:
    return canonical_json(data)


def source_digest(req: ExperimentRequest) -> str:
    """sha256 over the machine-independent request content."""
    return content_digest(req.source_dict())


def functional_key(req: ExperimentRequest) -> str:
    """Grouping key: requests sharing it batch into one pool task."""
    return source_digest(req)


def machine_key(req: ExperimentRequest) -> str:
    """Canonical machine-spec string (the per-lane identity)."""
    return _canonical(req.machine)


def request_key(req: ExperimentRequest) -> str:
    """Full content hash: the coalescing / response-cache key.

    This is a *stage key*: alongside the request content it digests the
    pipeline's code-version fingerprint (:func:`repro.incr.dag.
    pipeline_version`), so a persisted response cache can never serve a
    payload computed by an older pipeline -- a code change rolls the
    key exactly the way it invalidates bench stage receipts.  A
    registered-workload request names its case by recipe only, so its
    key also digests the build stage's version (the workload package
    included); raw IR carries its whole case in the source.
    """
    from repro.incr.dag import STAGE_BUILD, pipeline_version, stage_version

    version = pipeline_version()
    if req.kind == "workload":
        version = [version, stage_version(STAGE_BUILD)]
    return content_digest({
        "stage": "serve",
        "version": version,
        "source": req.source_dict(),
        "machine": req.machine,
    })


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------

def _require_int(value, what: str, minimum: int, maximum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _bad(f"{what} must be an integer, got {value!r}")
    if not minimum <= value <= maximum:
        raise _bad(f"{what} must be in [{minimum}, {maximum}], got {value}")
    return value


def _parse_machine(spec) -> dict:
    if spec is None:
        spec = {}
    if not isinstance(spec, dict):
        raise _bad("machine must be an object")
    unknown = set(spec) - _MACHINE_KEYS
    if unknown:
        raise _bad(f"unknown machine keys: {sorted(unknown)}",
                   code="unknown-field")
    core = spec.get("core", "full")
    if core not in _CORES:
        raise _bad(f"machine.core must be one of {sorted(_CORES)}, "
                   f"got {core!r}")
    return {
        "core": core,
        "comm_latency": _require_int(
            spec.get("comm_latency", 1), "machine.comm_latency", 1, 1000),
        "queue_size": _require_int(
            spec.get("queue_size", 32), "machine.queue_size", 1, 65536),
    }


def _parse_int_map(value, what: str, key_desc: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise _bad(f"{what} must be an object of {key_desc} -> integer")
    out = {}
    for key, cell in value.items():
        if isinstance(cell, bool) or not isinstance(cell, int):
            raise _bad(f"{what}[{key!r}] must be an integer, got {cell!r}")
        out[key] = cell
    return out


def parse_request(body) -> ExperimentRequest:
    """Validate a decoded JSON body into an :class:`ExperimentRequest`.

    Raises :class:`ProtocolError` (status 400) on any malformed input;
    the daemon never builds a workload or parses IR on the accept path,
    so validation here is purely structural -- an unknown workload name
    or unparseable IR is caught when the request is dispatched.
    """
    if not isinstance(body, dict):
        raise _bad("request body must be a JSON object")
    unknown = set(body) - _TOP_KEYS
    if unknown:
        raise _bad(f"unknown request keys: {sorted(unknown)}",
                   code="unknown-field")

    workload = body.get("workload")
    ir = body.get("ir")
    if (workload is None) == (ir is None):
        raise _bad("exactly one of 'workload' or 'ir' is required")

    tenant = body.get("tenant", "default")
    if not isinstance(tenant, str) or not tenant:
        raise _bad("tenant must be a non-empty string")
    if len(tenant) > MAX_TENANT_LEN:
        raise _bad(f"tenant longer than {MAX_TENANT_LEN} characters")

    scale = body.get("scale")
    if scale is not None:
        scale = _require_int(scale, "scale", 1, MAX_SCALE)

    check = body.get("check", True)
    if not isinstance(check, bool):
        raise _bad("check must be a boolean")

    machine = _parse_machine(body.get("machine"))

    if workload is not None:
        if not isinstance(workload, str) or not workload:
            raise _bad("workload must be a non-empty string")
        for forbidden in ("loop_header", "memory", "initial_regs"):
            if forbidden in body:
                raise _bad(f"'{forbidden}' only applies to IR requests")
        return ExperimentRequest(
            kind="workload", workload=workload, machine=machine,
            scale=scale, check=check, tenant=tenant,
        )

    if not isinstance(ir, str) or not ir.strip():
        raise _bad("ir must be non-empty IR text")
    if len(ir.encode()) > MAX_IR_BYTES:
        raise ProtocolError(413, "too-large",
                            f"ir larger than {MAX_IR_BYTES} bytes")
    loop_header = body.get("loop_header")
    if not isinstance(loop_header, str) or not loop_header:
        raise _bad("loop_header is required for IR requests")

    raw_memory = _parse_int_map(body.get("memory"), "memory", "address")
    memory = {}
    for addr_text, cell in raw_memory.items():
        try:
            addr = int(addr_text, 0) if isinstance(addr_text, str) \
                else int(addr_text)
        except (TypeError, ValueError):
            raise _bad(f"memory address {addr_text!r} is not an integer")
        if addr < 0:
            raise _bad(f"memory address {addr} is negative")
        memory[addr] = cell
    if len(memory) > MAX_MEMORY_CELLS:
        raise ProtocolError(413, "too-large",
                            f"memory image larger than {MAX_MEMORY_CELLS} "
                            "cells")

    initial_regs = _parse_int_map(
        body.get("initial_regs"), "initial_regs", "register")
    for reg in initial_regs:
        if not isinstance(reg, str):
            raise _bad(f"register name {reg!r} must be a string")

    # Raw IR has no oracle; a check would always fail, so forbid it
    # explicitly rather than ignoring the field.
    if check and "check" in body:
        raise _bad("check=true is not supported for IR requests "
                   "(raw IR has no oracle)")

    return ExperimentRequest(
        kind="ir", ir=ir, loop_header=loop_header, memory=memory,
        initial_regs=initial_regs, machine=machine, scale=scale,
        check=False, tenant=tenant,
    )


def machine_from_spec(spec: dict) -> MachineConfig:
    """Build the :class:`MachineConfig` a canonical spec describes."""
    return MachineConfig(
        core=_CORES[spec.get("core", "full")],
        comm_latency=spec.get("comm_latency", 1),
        queue_size=spec.get("queue_size", 32),
    )


# ----------------------------------------------------------------------
# Result payloads
# ----------------------------------------------------------------------

def experiment_payload(result: ExperimentResult) -> dict:
    """The served form of one experiment, fingerprint-stamped.

    This is :func:`~repro.harness.results.experiment_to_dict` plus deep
    simulation fingerprints -- the daemon and the in-process harness
    both serialise through here, which is what makes the serve-smoke
    bit-identity comparison meaningful.
    """
    payload = experiment_to_dict(result)
    payload["fingerprints"] = {
        "baseline": sim_fingerprint(result.base_sim),
        "pipeline": (sim_fingerprint(result.dswp_sim)
                     if result.dswp_sim is not None else None),
    }
    return payload
