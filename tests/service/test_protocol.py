"""Protocol-layer unit tests: validation, canonical keys, payloads."""

from __future__ import annotations

import pytest

from repro.harness.runner import run_experiment
from repro.service.protocol import (
    MAX_IR_BYTES,
    ProtocolError,
    experiment_payload,
    functional_key,
    machine_from_spec,
    parse_request,
    request_key,
)
from repro.workloads.registry import get_workload

IR_TEXT = """
func f entry=entry
entry:
    mov r1 = 0
    jmp loop
loop:
    add r1 = r1, 1
    cmp.lt p1 = r1, 5
    br p1, loop, done
done:
    ret
"""


def test_workload_request_minimal():
    req = parse_request({"workload": "wc"})
    assert req.kind == "workload"
    assert req.workload == "wc"
    assert req.check is True
    assert req.machine == {"core": "full", "comm_latency": 1,
                           "queue_size": 32}


def test_request_key_canonical_across_field_order_and_tenant():
    a = parse_request({"workload": "wc", "machine": {"comm_latency": 5}})
    b = parse_request({"machine": {"comm_latency": 5, "core": "full",
                                   "queue_size": 32},
                       "workload": "wc", "tenant": "someone-else"})
    assert request_key(a) == request_key(b)
    assert functional_key(a) == functional_key(b)


def test_functional_key_ignores_machine_but_not_scale():
    base = parse_request({"workload": "wc", "scale": 50})
    other_machine = parse_request({"workload": "wc", "scale": 50,
                                   "machine": {"comm_latency": 10}})
    other_scale = parse_request({"workload": "wc", "scale": 51})
    assert functional_key(base) == functional_key(other_machine)
    assert request_key(base) != request_key(other_machine)
    assert functional_key(base) != functional_key(other_scale)


def test_build_edit_rolls_workload_keys_only(monkeypatch):
    # A registered workload's request names its case by recipe, so an
    # edit under the workload package must roll its key; raw IR carries
    # its whole case in the request and keeps its key.
    from repro.incr import dag

    workload = parse_request({"workload": "wc"})
    ir = parse_request({"ir": IR_TEXT, "loop_header": "loop"})
    before = request_key(workload), request_key(ir)
    monkeypatch.setitem(dag._VERSION_SALTS, dag.STAGE_BUILD, "edited")
    assert request_key(workload) != before[0]
    assert request_key(ir) == before[1]


@pytest.mark.parametrize("body,fragment", [
    ("not a dict", "JSON object"),
    ({}, "exactly one of"),
    ({"workload": "wc", "ir": IR_TEXT, "loop_header": "loop"},
     "exactly one of"),
    ({"workload": "wc", "typo_field": 1}, "unknown request keys"),
    ({"workload": "wc", "machine": {"cores": 4}}, "unknown machine keys"),
    ({"workload": "wc", "machine": {"core": "quad"}}, "machine.core"),
    ({"workload": "wc", "machine": {"comm_latency": 0}}, "comm_latency"),
    ({"workload": "wc", "machine": {"queue_size": -1}}, "queue_size"),
    ({"workload": "wc", "scale": 0}, "scale"),
    ({"workload": "wc", "scale": "big"}, "scale"),
    ({"workload": "wc", "check": "yes"}, "check must be a boolean"),
    ({"workload": "wc", "tenant": ""}, "tenant"),
    ({"workload": "wc", "tenant": "x" * 65}, "tenant"),
    ({"workload": "wc", "loop_header": "loop"}, "only applies to IR"),
    ({"workload": ""}, "workload"),
    ({"ir": IR_TEXT}, "loop_header"),
    ({"ir": "   ", "loop_header": "loop"}, "ir must be"),
    ({"ir": IR_TEXT, "loop_header": "loop", "check": True},
     "check=true is not supported"),
    ({"ir": IR_TEXT, "loop_header": "loop", "memory": {"nope": 1}},
     "memory address"),
    ({"ir": IR_TEXT, "loop_header": "loop", "memory": {"-8": 1}},
     "negative"),
    ({"ir": IR_TEXT, "loop_header": "loop", "memory": {"8": "x"}},
     "must be an integer"),
])
def test_rejections_are_400s_with_clear_detail(body, fragment):
    with pytest.raises(ProtocolError) as info:
        parse_request(body)
    assert info.value.status == 400
    assert fragment in info.value.detail


def test_oversized_ir_is_413():
    big = IR_TEXT + "# pad\n" * (MAX_IR_BYTES // 6)
    with pytest.raises(ProtocolError) as info:
        parse_request({"ir": big, "loop_header": "loop"})
    assert info.value.status == 413


def test_ir_request_canonicalises_memory_addresses():
    a = parse_request({"ir": IR_TEXT, "loop_header": "loop",
                       "memory": {"16": 3, "0x20": 4}})
    b = parse_request({"ir": IR_TEXT, "loop_header": "loop",
                       "memory": {32: 4, 16: 3}})
    assert a.memory == {16: 3, 32: 4}
    assert request_key(a) == request_key(b)
    assert a.check is False


def test_machine_from_spec_round_trip():
    req = parse_request({"workload": "wc",
                         "machine": {"core": "half", "comm_latency": 5,
                                     "queue_size": 8}})
    machine = machine_from_spec(req.machine)
    assert machine.core.issue_width == 3
    assert machine.comm_latency == 5
    assert machine.queue_size == 8


def test_experiment_payload_carries_fingerprints():
    result = run_experiment(get_workload("wc"), scale=40)
    payload = experiment_payload(result)
    assert payload["workload"] == "wc"
    fps = payload["fingerprints"]
    assert len(fps["baseline"]) == 64
    assert len(fps["pipeline"]) == 64
    assert fps["baseline"] != fps["pipeline"]
    # Deterministic: the same experiment fingerprints identically.
    again = experiment_payload(run_experiment(get_workload("wc"), scale=40))
    assert again == payload
