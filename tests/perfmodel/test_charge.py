"""A precomputed :class:`Charge` leaves the ledger bit for bit as the plain
per-rank vectors do, and both match the reductions taken call by call."""

import numpy as np

from repro.perfmodel.costs import COUNT_FIELDS, Charge, CostLedger


def _reference_phase(led: CostLedger, flops, msgs=0.0, nbytes=0.0) -> None:
    """The phase as the ledger recorded it before charges: every vector
    reduced on every call, a scalar-zero message or byte count skipped."""

    def per_rank(x):
        a = np.asarray(x, dtype=np.float64)
        return a if a.shape == (led.num_ranks,) else np.broadcast_to(a, (led.num_ranks,))

    f = per_rank(flops)
    led.crit_flops += float(f.max())
    led.total_flops += float(f.sum())
    led.per_rank_flops = led.per_rank_flops + f
    if isinstance(msgs, np.ndarray) or msgs:
        m = per_rank(msgs)
        led.crit_msgs += float(m.max())
        led.total_msgs += float(m.sum())
    if isinstance(nbytes, np.ndarray) or nbytes:
        b = per_rank(nbytes)
        led.crit_bytes += float(b.max())
        led.total_bytes += float(b.sum())
    led.phases += 1


def _bits(led: CostLedger) -> tuple:
    return (
        tuple(np.float64(getattr(led, f)).tobytes() for f in COUNT_FIELDS),
        led.per_rank_flops.tobytes(),
    )


rng = np.random.default_rng(7)
PHASES = [
    # (flops, msgs, bytes): awkward sums, zeros, scalars, skipped comm
    (rng.random(5) * 1e7, 0.0, 0.0),
    (np.array([0.0, 3.0, 0.0, 1e-300, 7.5]), np.zeros(5), np.zeros(5)),
    (0.0, np.array([1.0, 0.0, 2.0, 2.0, 0.0]), np.array([8.0, 0.0, 16.0, 16.0, 0.0])),
    (2.5, 3.0, 0.0),
    (np.array([0.1, 0.2, 0.3, 0.4, 0.5]), 0.0, 24.0),
    (rng.random(5) * 1e-3, rng.random(5), rng.random(5) * 1e4),
]


def test_charges_and_vectors_leave_identical_ledgers():
    reference, plain, charged = CostLedger(5), CostLedger(5), CostLedger(5)
    charges = [Charge(5, f, m, b) for f, m, b in PHASES]
    for _ in range(3):  # repeated phases, as in a Krylov loop
        for (f, m, b), charge in zip(PHASES, charges):
            _reference_phase(reference, f, m, b)
            plain.add_phase(f, msgs_per_rank=m, bytes_per_rank=b)
            charged.add_charge(charge)
    assert _bits(plain) == _bits(reference)
    assert _bits(charged) == _bits(reference)


def test_scalar_zero_messages_and_bytes_are_skipped():
    charge = Charge(3, np.array([1.0, 2.0, 3.0]))
    assert charge.msgs is None and charge.nbytes is None
    # an all-zero vector is still a vector: it is reduced, not skipped
    assert Charge(3, 0.0, np.zeros(3)).msgs == (0.0, 0.0)
    led = CostLedger(3)
    led.add_charge(charge)
    assert (led.crit_msgs, led.total_msgs, led.crit_bytes, led.phases) == (0.0, 0.0, 0.0, 1)

