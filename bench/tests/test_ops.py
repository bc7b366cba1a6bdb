"""Seeded inputs: a seed reproduces its inputs exactly, another seed changes them."""

import pytest

import ops


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_seed_reproduces_its_inputs_and_another_seed_differs(workload):
    first = ops.schedule(workload, 11, 3)
    assert ops.schedule(workload, 11, 3) == first
    assert ops.schedule(workload, 12, 3) != first


@pytest.mark.parametrize("workload", ["decide", "transform"])
def test_every_pool_cycle_has_the_same_slots(workload):
    slots = [(op.kind, op.dist) for op in ops.pool(workload, 0)]
    for i in range(1, ops.POOL_CYCLES):
        assert [(op.kind, op.dist) for op in ops.pool(workload, i)] == slots


def test_transform_grids_span_one_to_201_points():
    sizes = {len(op.points) for i in range(ops.POOL_CYCLES)
             for op in ops.pool("transform", i) if op.kind == "sample_cf"}
    assert min(sizes) == 1 and max(sizes) > 150 and max(sizes) <= 201


def test_pinned_cases_run_on_every_seed():
    for workload in ("decide", "transform"):
        dists = [(op.dist, dict(op.params)) for op, _ in ops.pinned(workload)]
        for d, p, _, _ in ops.PINNED:
            assert (d, p) in dists


def test_a_pinned_outcome_worse_than_recorded_is_flagged():
    miss = "f(1) misses the reference by 0.5, bound 1e-15"
    assert not ops.worse_than(ops.PASS, True, 1e-16, "")
    assert ops.worse_than(ops.PASS, False, 0.5, miss)
    assert not ops.worse_than(("miss", 1.0), True, 1e-16, "")
    assert not ops.worse_than(("miss", 1.0), False, 0.5, miss)
    assert ops.worse_than(("miss", 0.1), False, 0.5, miss)
    assert ops.worse_than(("miss", 0.1), False, float("nan"), miss)
    assert ops.worse_than(("miss", 1.0), False, 0.0, "raised ValueError: x")
    assert not ops.worse_than(ops.RAISED, False, 0.0, "raised PreconditionError: mass 0")
    assert ops.worse_than(ops.RAISED, False, 0.0, "raised ValueError: x")
    assert ops.worse_than(ops.RAISED, False, 0.0, "verdict determined=True, reference False")
    assert not ops.worse_than(ops.WRONG_VERDICT, False, 0.0, "verdict determined=True, reference False")
    assert ops.worse_than(ops.WRONG_VERDICT, False, 1e-3, "norm 0.5 misses the reference by 1e-3, bound 1e-12")
