"""Scheduler placement and stealing properties."""

from __future__ import annotations

import pytest

from repro.parallel import PoolTask, StealScheduler

pytestmark = pytest.mark.parallel_smoke


def _noop(payload):
    return payload


def make(task_id, cost=1.0, affinity=None):
    return PoolTask(task_id, _noop, None, cost=cost, affinity=affinity)


class TestAssignment:
    def test_affinity_groups_stay_on_one_worker(self):
        tasks = [make(f"wc:{i}", cost=2.0, affinity="wc") for i in range(3)]
        tasks += [make(f"art:{i}", cost=2.0, affinity="art") for i in range(3)]
        sched = StealScheduler(tasks, 2)
        owners = {sched.owner[t.id] for t in tasks if t.affinity == "wc"}
        assert len(owners) == 1
        owners = {sched.owner[t.id] for t in tasks if t.affinity == "art"}
        assert len(owners) == 1

    def test_longest_group_is_placed_first_on_least_loaded(self):
        heavy = [make(f"h{i}", cost=10.0, affinity="heavy") for i in range(2)]
        light = [make(f"l{i}", cost=1.0, affinity="light") for i in range(2)]
        sched = StealScheduler(light + heavy, 2)
        # Heavy group lands on one worker, light on the other: loads
        # 20 vs 2 beats 22 vs 0.
        assert sched.owner["h0"] != sched.owner["l0"]

    def test_added_tasks_join_their_groups_home(self):
        sched = StealScheduler([make("a0", affinity="a")], 2)
        home = sched.owner["a0"]
        sched.add([make("a1", affinity="a")], prefer=1 - home)
        assert sched.owner["a1"] == home == sched.home("a")
        # A new group goes where the caller prefers.
        sched.add([make("b0", affinity="b")], prefer=1 - home)
        assert sched.owner["b0"] == 1 - home
        assert sched.home("c") is None and sched.home(None) is None

    def test_within_worker_order_is_descending_cost(self):
        tasks = [make(f"t{i}", cost=float(i), affinity="one")
                 for i in range(5)]
        sched = StealScheduler(tasks, 1)
        order = sched.assigned_order(0)
        costs = [float(t[1:]) for t in order]
        assert costs == sorted(costs, reverse=True)

    def test_deterministic_assignment(self):
        tasks = [make(f"t{i}", cost=float(i % 4), affinity=f"g{i % 3}")
                 for i in range(12)]
        a = StealScheduler(tasks, 3)
        b = StealScheduler(tasks, 3)
        for worker in range(3):
            assert a.assigned_order(worker) == b.assigned_order(worker)


class TestStealing:
    def test_idle_worker_steals_from_the_back(self):
        tasks = [make(f"t{i}", cost=float(5 - i), affinity="all")
                 for i in range(5)]
        sched = StealScheduler(tasks, 2)
        # All tasks land on one worker; the other must steal.
        loaded = sched.owner["t0"]
        idle = 1 - loaded
        victim_order = sched.assigned_order(loaded)
        task, stolen = sched.next_for(idle)
        assert stolen
        assert task.id == victim_order[-1]  # cheapest, least affine
        assert sched.steals[idle] == 1

    def test_no_steal_when_nothing_pending(self):
        sched = StealScheduler([make("t0")], 2)
        owner = sched.owner["t0"]
        task, stolen = sched.next_for(owner)
        assert not stolen
        assert sched.next_for(1 - owner) is None
        assert sched.next_for(owner) is None

    def test_every_task_dispatched_exactly_once(self):
        tasks = [make(f"t{i}", cost=float(i % 7), affinity=f"g{i % 4}")
                 for i in range(40)]
        sched = StealScheduler(tasks, 3)
        seen = []
        worker = 0
        while True:
            item = sched.next_for(worker)
            if item is None and sched.pending() == 0:
                break
            if item is not None:
                seen.append(item[0].id)
            worker = (worker + 1) % 3
        assert sorted(seen) == sorted(t.id for t in tasks)

    def test_clear_pending_drops_everything(self):
        sched = StealScheduler([make(f"t{i}") for i in range(6)], 2)
        assert sched.clear_pending() == 6
        assert sched.pending() == 0
        assert sched.next_for(0) is None

    def test_requeue_puts_task_back_first(self):
        tasks = [make(f"t{i}", cost=1.0, affinity="g") for i in range(3)]
        sched = StealScheduler(tasks, 1)
        task, _ = sched.next_for(0)
        sched.requeue(task, 0)
        again, stolen = sched.next_for(0)
        assert again.id == task.id
        assert not stolen

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            StealScheduler([], 0)
