"""Generated inputs: a function of the seed and of nothing else."""

import pytest

from workloads import SCALES, WORKLOADS


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_gives_the_same_op_list(name):
    a, b = WORKLOADS[name](7, "smoke"), WORKLOADS[name](7, "smoke")
    n = 3 * a.cycle_len
    assert [a.op(i) for i in range(n)] == [b.op(i) for i in range(n)]
    assert [op.index for op in map(a.op, range(n))] == list(range(n))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_another_seed_gives_other_partition_seeds(name):
    a, b = WORKLOADS[name](7, "smoke"), WORKLOADS[name](1007, "smoke")
    n = 3 * a.cycle_len
    assert {a.op(i).seed for i in range(n)}.isdisjoint(b.op(i).seed for i in range(n))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_scale_is_defined_and_cycles_are_whole(name):
    cls = WORKLOADS[name]
    assert set(cls.sizes) == set(SCALES)
    for scale in SCALES:
        w = cls(0, scale)
        assert w.min_ops == w.p["min_cycles"] * w.cycle_len > 0
        kinds = [w.op(i).kind for i in range(2 * w.cycle_len)]
        assert kinds[: w.cycle_len] == kinds[w.cycle_len:] == list(w.kinds)


def test_service_jobs_repeat_tuples_within_a_cycle():
    w = WORKLOADS["service_closed"](3, "smoke")
    ops = [w.op(i) for i in range(w.cycle_len)]
    assert len({op.seed for op in ops}) == w.job_seeds
    assert len({op.tenant for op in ops}) == w.tenants


def test_unknown_scale_is_refused():
    with pytest.raises(ValueError):
        WORKLOADS["table_sweep"](0, "huge")
