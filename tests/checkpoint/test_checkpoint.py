"""repro.ckpt.v1 format: round trip, corruption detection, retention."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.checkpoint import manager
from repro.checkpoint import (
    FORMAT,
    CheckpointCorruption,
    CheckpointManager,
    CheckpointNotFound,
    read_checkpoint,
    write_checkpoint,
)


def _arrays():
    return {
        "x": np.linspace(0.0, 1.0, 37),
        "mask": np.array([1, 0, 1], dtype=np.int64),
    }


class TestRoundTrip:
    def test_arrays_and_meta_survive(self, tmp_path):
        path = tmp_path / "a.ckpt"
        write_checkpoint(path, _arrays(), meta={"step": 3, "case": "tc1"})
        ckpt = read_checkpoint(path)
        assert ckpt.meta == {"step": 3, "case": "tc1"}
        np.testing.assert_array_equal(ckpt["x"], _arrays()["x"])
        assert ckpt["mask"].dtype == np.int64

    def test_magic_line_is_versioned(self, tmp_path):
        path = tmp_path / "a.ckpt"
        write_checkpoint(path, _arrays())
        assert path.read_bytes().startswith(FORMAT.encode())

    def test_overwrite_is_atomic_replacement(self, tmp_path):
        path = tmp_path / "a.ckpt"
        write_checkpoint(path, {"x": np.zeros(3)}, meta={"v": 1})
        write_checkpoint(path, {"x": np.ones(3)}, meta={"v": 2})
        assert read_checkpoint(path).meta == {"v": 2}
        assert list(tmp_path.iterdir()) == [path]  # no temp litter

    def test_empty_arrays_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="at least one array"):
            write_checkpoint(tmp_path / "a.ckpt", {})

    def test_missing_file_is_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_checkpoint(tmp_path / "nope.ckpt")


class TestCorruptionDetection:
    """Any single corrupted byte must be detected — never silently loaded."""

    @settings(max_examples=60, deadline=None)
    @given(offset=st.integers(min_value=0, max_value=10_000),
           flip=st.integers(min_value=1, max_value=255))
    def test_one_flipped_byte_always_detected(self, tmp_path_factory, offset, flip):
        tmp_path = tmp_path_factory.mktemp("ckpt")
        path = tmp_path / "a.ckpt"
        write_checkpoint(path, _arrays(), meta={"step": 1})
        raw = bytearray(path.read_bytes())
        raw[offset % len(raw)] ^= flip
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointCorruption):
            read_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "a.ckpt"
        write_checkpoint(path, _arrays())
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 7])
        with pytest.raises(CheckpointCorruption, match="truncated"):
            read_checkpoint(path)

    def test_wrong_magic_detected(self, tmp_path):
        path = tmp_path / "a.ckpt"
        path.write_bytes(b"not.a.checkpoint 1 2 3 4\nxxxx")
        with pytest.raises(CheckpointCorruption, match="magic"):
            read_checkpoint(path)

    def test_error_carries_path_context(self, tmp_path):
        path = tmp_path / "a.ckpt"
        write_checkpoint(path, _arrays())
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointCorruption) as exc:
            read_checkpoint(path)
        assert exc.value.context["path"] == str(path)


class TestCheckpointManager:
    def test_save_load_specific_step(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        mgr.save(4, {"u": np.arange(3.0)}, meta={"kind": "t"})
        ckpt = mgr.load(4)
        assert ckpt.meta["step"] == 4 and ckpt.meta["kind"] == "t"
        with pytest.raises(CheckpointNotFound):
            mgr.load(5)

    def test_retention_prunes_oldest(self, tmp_path, monkeypatch):
        monkeypatch.setattr(manager, "KEEP", 2)
        mgr = CheckpointManager(tmp_path)
        for step in range(5):
            mgr.save(step, {"u": np.full(2, float(step))})
        assert mgr.steps() == [3, 4]

    def test_load_latest_skips_corrupt(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        mgr.save(1, {"u": np.array([1.0])})
        mgr.save(2, {"u": np.array([2.0])})
        raw = bytearray(mgr.path_for(2).read_bytes())
        raw[-1] ^= 0xFF
        mgr.path_for(2).write_bytes(bytes(raw))
        with obs.tracing() as tracer:
            ckpt = mgr.load_latest()
        assert ckpt.meta["step"] == 1 and ckpt["u"][0] == 1.0
        names = [e["name"] for e in tracer.orphan_events]
        assert "resilience.ckpt.corrupt" in names
        assert "resilience.ckpt.restore" in names

    def test_load_latest_empty_dir(self, tmp_path):
        assert CheckpointManager(tmp_path / "missing").load_latest() is None

    def test_prefixes_partition_a_directory(self, tmp_path):
        a = CheckpointManager(tmp_path, prefix="solve")
        b = CheckpointManager(tmp_path, prefix="transient")
        a.save(1, {"x": np.zeros(1)})
        b.save(9, {"u": np.zeros(1)})
        assert a.steps() == [1] and b.steps() == [9]

    def test_bad_prefix_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="filename-safe"):
            CheckpointManager(tmp_path, prefix="a/b")


class TestConcurrentWriterRace:
    """Restore racing a live writer must land on a complete CRC-valid
    snapshot — the drain/resume handoff depends on this."""

    def test_restore_during_concurrent_saves(self, tmp_path, monkeypatch):
        import threading

        monkeypatch.setattr(manager, "KEEP", 2)
        writer = CheckpointManager(tmp_path)
        reader = CheckpointManager(tmp_path)
        writer.save(0, {"u": np.full(4, 0.0)}, meta={"tag": "race"})
        stop = threading.Event()
        failures: list[str] = []

        def write_loop():
            step = 1
            while not stop.is_set() and step < 400:
                writer.save(step, {"u": np.full(4, float(step))})
                step += 1

        t = threading.Thread(target=write_loop)
        t.start()
        try:
            for _ in range(200):
                ckpt = reader.load_latest()
                # the writer prunes old steps mid-walk, so individual reads
                # may skip vanished files — but some intact snapshot must
                # always be found, and its payload must match its step
                if ckpt is None:
                    failures.append("no intact snapshot found")
                    break
                if ckpt["u"][0] != float(ckpt.meta["step"]):
                    failures.append(
                        f"torn read: step {ckpt.meta['step']} "
                        f"payload {ckpt['u'][0]}"
                    )
                    break
        finally:
            stop.set()
            t.join(30.0)
        assert not failures, failures[0]

    def test_reader_falls_back_past_corrupt_newest_to_last_valid(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        for step in range(3):
            mgr.save(step, {"u": np.full(2, float(step))})
        # a writer crash mid-rename cannot happen (atomic), but a bad disk
        # can corrupt the newest file after the fact: flip one byte
        raw = bytearray(mgr.path_for(2).read_bytes())
        raw[len(raw) // 2] ^= 0x01
        mgr.path_for(2).write_bytes(bytes(raw))
        ckpt = mgr.load_latest()
        assert ckpt.meta["step"] == 1 and ckpt["u"][0] == 1.0

    def test_tmp_files_of_inflight_saves_invisible(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        mgr.save(1, {"u": np.zeros(1)})
        # a concurrent save's half-written temp file must not be listed as
        # a restorable step
        (tmp_path / f"{mgr.prefix}_00000002.ckpt.tmp").write_bytes(b"partial")
        assert mgr.steps() == [1]
        assert mgr.load_latest().meta["step"] == 1

    def test_snapshot_vanishing_mid_walk_is_skipped(self, tmp_path, monkeypatch):
        from repro.checkpoint import manager as manager_mod

        mgr = CheckpointManager(tmp_path)
        mgr.save(1, {"u": np.full(1, 1.0)})
        mgr.save(2, {"u": np.full(1, 2.0)})
        real_read = manager_mod.read_checkpoint

        def read_with_prune(path):
            # simulate the writer's retention pruning deleting the newest
            # file between the directory listing and the read
            if path.name.endswith("00000002.ckpt"):
                path.unlink(missing_ok=True)
            return real_read(path)

        monkeypatch.setattr(manager_mod, "read_checkpoint", read_with_prune)
        ckpt = mgr.load_latest()
        assert ckpt is not None and ckpt.meta["step"] == 1

    def test_listing_pruned_whole_mid_walk_lists_again(self, tmp_path, monkeypatch):
        from repro.checkpoint import manager as manager_mod

        monkeypatch.setattr(manager_mod, "KEEP", 2)
        mgr = CheckpointManager(tmp_path)
        mgr.save(1, {"u": np.full(1, 1.0)})
        mgr.save(2, {"u": np.full(1, 2.0)})
        real_read = manager_mod.read_checkpoint
        writer = CheckpointManager(tmp_path)

        def read_after_two_saves(path):
            # a writer saves twice between the listing and the first read:
            # retention prunes every snapshot the reader listed
            if not writer.steps() or writer.steps()[-1] < 4:
                writer.save(3, {"u": np.full(1, 3.0)})
                writer.save(4, {"u": np.full(1, 4.0)})
            return real_read(path)

        monkeypatch.setattr(manager_mod, "read_checkpoint", read_after_two_saves)
        ckpt = mgr.load_latest()
        assert ckpt is not None and ckpt.meta["step"] == 4
