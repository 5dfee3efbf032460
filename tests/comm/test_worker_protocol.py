"""Worker command protocol: payload codec, store semantics, handler parity.

The worker handlers must be bitwise-identical stand-ins for the driver-side
kernels they replace — every test that checks numerics here asserts exact
byte equality, not closeness, because that is the contract the backend
determinism gate enforces end to end.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.comm import compute
from repro.comm.backends import framing, worker
from repro.comm.backends.arena import Arena
from repro.comm.backends.arena import crc as slot_crc
from repro.factor.ilu0 import ilu0
from repro.factor.ilut import ilut
from repro.kernels import apply as apply_kernels


def _laplacian(n: int) -> sp.csr_matrix:
    main = 2.0 * np.ones(n)
    off = -1.0 * np.ones(n - 1)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr")


def _load_matrix_payload(key: str, a: sp.csr_matrix) -> bytes:
    return worker.pack_command(
        worker.OP_LOAD_MATRIX,
        {"key": key, "nrows": a.shape[0], "ncols": a.shape[1]},
        [a.indptr, a.indices, a.data],
    )


def _result(payload: bytes) -> tuple[dict, list]:
    _, meta, arrays = worker.unpack_command(payload)
    return meta, arrays


@pytest.fixture()
def arena():
    """A driver-side arena; the store under test maps it by its spec."""
    made = Arena.create(64, gen=1)
    yield made
    made.close()


def _vector_op(store, arena, op: int, key: str, x: np.ndarray):
    """Run a MATVEC / APPLY through ``arena`` the way a round does: the
    input in the slot, its CRC in the frame; returns (meta, output copy)."""
    arena.put(x)
    meta, arrays = _result(worker.execute(store, worker.pack_command(op, {
        "key": key, "arena": arena.spec, "n": x.size, "crc": slot_crc(x),
    })))
    assert arrays == []  # no array rides the frame either way
    return meta, arena.take(arena.out, meta["n"], meta["crc"], "output").copy()


class TestPayloadCodec:
    def test_round_trip(self):
        arrays = [np.arange(4, dtype=np.float64), np.arange(3, dtype=np.int64)]
        raw = worker.pack_command(
            worker.OP_MATVEC, {"key": "abc", "n": 7}, arrays
        )
        op, meta, out = worker.unpack_command(raw)
        assert op == worker.OP_MATVEC
        assert meta == {"key": "abc", "n": 7}
        for got, want in zip(out, arrays):
            assert got.tobytes() == want.tobytes()

    def test_meta_is_canonical_json(self):
        # sort_keys + compact separators: identical dicts encode identically,
        # so retransmitted commands are byte-identical on the wire
        a = worker.pack_command(worker.OP_APPLY, {"b": 1, "a": 2})
        b = worker.pack_command(worker.OP_APPLY, {"a": 2, "b": 1})
        assert a == b

    def test_unknown_opcode_rejected_on_pack(self):
        with pytest.raises(ValueError, match="unknown worker opcode"):
            worker.pack_command(99, {})

    def test_unknown_opcode_rejected_on_unpack(self):
        raw = bytearray(worker.pack_command(worker.OP_APPLY, {}))
        raw[0] = 99
        with pytest.raises(ValueError, match="unknown worker opcode"):
            worker.unpack_command(bytes(raw))

    def test_truncated_payload_rejected(self):
        with pytest.raises(ValueError, match="truncated"):
            worker.unpack_command(b"\x04\x00")

    def test_truncated_meta_rejected(self):
        raw = worker.pack_command(worker.OP_APPLY, {"key": "x" * 40})
        with pytest.raises(ValueError, match="meta truncated"):
            worker.unpack_command(raw[: len(raw) - 10])


class TestSubdomainStore:
    def test_load_matrix_stores_and_counts(self):
        store = worker.SubdomainStore()
        a = _laplacian(6)
        meta, _ = _result(worker.execute(store, _load_matrix_payload("k1", a)))
        assert meta["stored"] and not meta["cached"]
        assert store.loads == 1 and store.cached == 0
        assert (store.matrices["k1"] != a).nnz == 0

    def test_repeat_load_hits_key_and_skips_storage(self):
        store = worker.SubdomainStore()
        a = _laplacian(6)
        worker.execute(store, _load_matrix_payload("k1", a))
        meta, _ = _result(worker.execute(store, _load_matrix_payload("k1", a)))
        assert meta["cached"]
        assert store.loads == 1 and store.cached == 1

    def test_load_is_idempotent_for_retransmits(self):
        # a retried CMD (same seq, same payload) must produce the same
        # observable state — content addressing makes the second arrival a
        # no-op rather than a duplicate
        store = worker.SubdomainStore()
        payload = _load_matrix_payload("k1", _laplacian(5))
        first = worker.execute(store, payload)
        worker.execute(store, payload)
        assert len(store.matrices) == 1
        meta, _ = _result(first)
        assert meta["key"] == "k1"

    def test_driver_encoders_load_what_the_handlers_store(self):
        store = worker.SubdomainStore()
        a = sp.random(7, 5, density=0.5, random_state=2, format="csr")
        fac = ilu0(_laplacian(6))
        perm = np.arange(6)[::-1].copy()
        for key, payload in (
            ("m", compute.load_matrix("m", a)), ("f", compute.load_factor("f", fac, perm)),
        ):
            meta, _ = _result(worker.execute(store, payload))
            assert meta["stored"] and meta["key"] == key
        stored = store.matrices["m"]
        assert stored.shape == a.shape and (stored != a).nnz == 0
        got, got_perm = store.factors["f"]
        assert got.u_upper.data.tobytes() == fac.u_upper.data.tobytes()
        assert got_perm.tobytes() == perm.tobytes()


class TestHandlerParity:
    """Worker results must be bitwise equal to the driver-side kernels."""

    def test_matvec_matches_driver_kernel_bitwise(self, arena):
        store = worker.SubdomainStore()
        rng = np.random.default_rng(7)
        a = sp.random(9, 9, density=0.4, random_state=3, format="csr")
        x = rng.standard_normal(9)
        worker.execute(store, _load_matrix_payload("m", a))
        meta, y = _vector_op(store, arena, worker.OP_MATVEC, "m", x)
        want = apply_kernels.csr_matvec(a, x)
        assert y.tobytes() == want.tobytes()
        assert meta["seconds"] >= 0.0 and meta["cpu_seconds"] >= 0.0

    @pytest.mark.parametrize("alg", ["ilu0", "ilut"])
    def test_worker_factorization_is_bitwise_identical(self, alg):
        store = worker.SubdomainStore()
        a = _laplacian(12)
        worker.execute(store, _load_matrix_payload("m", a))
        meta = {"alg": alg, "matrix_key": "m", "factor_key": "f", "shift": 0.0}
        if alg == "ilut":
            meta.update(drop_tol=1e-3, fill=5)
            want = ilut(a, 1e-3, 5)
        else:
            want = ilu0(a)
        out_meta, arrays = _result(worker.execute(
            store, worker.pack_command(worker.OP_FACTOR, meta)
        ))
        got_l = [np.asarray(v) for v in arrays[:3]]
        got_u = [np.asarray(v) for v in arrays[3:6]]
        for got, want_a in zip(
            got_l + got_u,
            [want.l_strict.indptr, want.l_strict.indices, want.l_strict.data,
             want.u_upper.indptr, want.u_upper.indices, want.u_upper.data],
        ):
            assert got.tobytes() == want_a.tobytes()
        assert out_meta["floored_pivots"] == want.stats.floored_pivots

    def test_apply_matches_driver_solve_bitwise(self, arena):
        store = worker.SubdomainStore()
        a = _laplacian(10)
        fac = ilu0(a)
        load = worker.pack_command(
            worker.OP_LOAD_FACTOR,
            {"key": "f", "n": 10, "shift": fac.stats.shift,
             "floored_pivots": fac.stats.floored_pivots},
            [fac.l_strict.indptr, fac.l_strict.indices, fac.l_strict.data,
             fac.u_upper.indptr, fac.u_upper.indices, fac.u_upper.data],
        )
        worker.execute(store, load)
        r = np.linspace(-1.0, 1.0, 10)
        _, z = _vector_op(store, arena, worker.OP_APPLY, "f", r)
        assert z.tobytes() == fac.solve(r).tobytes()

    def test_apply_round_trips_the_permutation(self, arena):
        store = worker.SubdomainStore()
        n = 10
        rng = np.random.default_rng(0)
        perm = rng.permutation(n).astype(np.int64)
        a = _laplacian(n).tocsc()[perm][:, perm].tocsr()
        fac = ilu0(a)
        load = worker.pack_command(
            worker.OP_LOAD_FACTOR,
            {"key": "f", "n": n, "has_perm": True, "shift": 0.0,
             "floored_pivots": fac.stats.floored_pivots},
            [fac.l_strict.indptr, fac.l_strict.indices, fac.l_strict.data,
             fac.u_upper.indptr, fac.u_upper.indices, fac.u_upper.data,
             perm],
        )
        worker.execute(store, load)
        r = np.linspace(0.5, 2.0, n)
        _, z = _vector_op(store, arena, worker.OP_APPLY, "f", r)
        z_p = fac.solve(r[perm])
        want = np.empty_like(z_p)
        want[perm] = z_p
        assert z.tobytes() == want.tobytes()

    def test_apply_then_matvec_on_the_same_vector(self, arena):
        """APPLY's output fed back as a MATVEC input gives the driver's
        product bit for bit — the store keeps no vector between the two."""
        store = worker.SubdomainStore()
        n = 8
        a = _laplacian(n)
        fac = ilu0(a)
        for payload in (compute.load_factor("f", fac, None), compute.load_matrix("a", a)):
            worker.execute(store, payload)
        r = np.linspace(-1.0, 2.0, n)
        _, z = _vector_op(store, arena, worker.OP_APPLY, "f", r)
        _, y = _vector_op(store, arena, worker.OP_MATVEC, "a", z)
        want_z = fac.solve(r)
        assert z.tobytes() == want_z.tobytes()
        assert y.tobytes() == apply_kernels.csr_matvec(a, want_z).tobytes()


class TestErrorBoundary:
    """Exceptions serialize as typed meta; the worker loop never dies."""

    def test_missing_matrix_reports_not_resident(self):
        store = worker.SubdomainStore()
        meta, _ = _result(worker.execute(
            store, worker.pack_command(worker.OP_MATVEC, {"key": "nope"}),
        ))
        assert meta["etype"] == "NotResident"
        assert "not resident" in meta["error"]
        assert meta["seconds"] >= 0.0

    def test_missing_factor_reports_not_resident(self):
        store = worker.SubdomainStore()
        op, meta, _ = worker.unpack_command(worker.execute(
            store, worker.pack_command(worker.OP_APPLY, {"key": "nope"}),
        ))
        assert op == worker.OP_APPLY
        assert meta["etype"] == "NotResident"
        assert "not resident" in meta["error"]

    def test_garbage_payload_still_yields_a_result_frame(self):
        store = worker.SubdomainStore()
        truncated_apply = worker.pack_command(worker.OP_APPLY, {"key": "f"})[:-2]
        for payload in (b"\xff\x00garbage", truncated_apply):
            op, meta, _ = worker.unpack_command(worker.execute(store, payload))
            assert meta["etype"] == "ValueError"
            # an unparseable command's reply names no live op
            assert op == worker.NO_OP and op not in worker.OP_NAMES

    def test_factorization_breakdown_travels_as_typed_meta(self):
        from repro.resilience.errors import FactorizationBreakdown

        store = worker.SubdomainStore()
        # explicitly stored zero pivots so the floored-pivot fraction trips
        # the typed breakdown error
        a = sp.csr_matrix((
            np.array([0.0, 1.0, 1.0, 0.0]),
            (np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])),
        ), shape=(2, 2))
        with pytest.raises(FactorizationBreakdown):
            ilu0(a, breakdown_frac=0.1)
        worker.execute(store, _load_matrix_payload("m", a))
        meta, _ = _result(worker.execute(store, worker.pack_command(
            worker.OP_FACTOR,
            {"alg": "ilu0", "matrix_key": "m", "factor_key": "f",
             "shift": 0.0, "breakdown_frac": 0.1},
        )))
        assert meta["etype"] == "FactorizationBreakdown"
