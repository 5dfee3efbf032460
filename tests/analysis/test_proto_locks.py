"""RPR012 lock-order analysis: fixture deadlocks fire, src/repro is clean."""

from pathlib import Path

from repro.analysis.proto.locks import check_locks

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "proto"
SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


class TestBadTree:
    def test_cycle_reacquire_and_blocking_fire(self):
        violations, summary = check_locks(FIXTURES / "locks_bad")
        msgs = "\n".join(v.message for v in violations)
        assert all(v.code == "RPR012" for v in violations)
        assert "lock-order cycle (potential deadlock)" in msgs
        assert "re-acquires non-reentrant lock" in msgs
        assert "blocking call time.sleep()" in msgs
        assert "blocking call q.get() with no timeout" in msgs
        assert summary["cycles"] == [[
            "service/locky.py:Alpha._la", "service/locky.py:Beta._lb",
        ]]

    def test_cycle_anchored_at_first_edge(self):
        violations, _ = check_locks(FIXTURES / "locks_bad")
        cycle = [v for v in violations if "lock-order cycle" in v.message]
        assert len(cycle) == 1
        assert cycle[0].path.endswith("service/locky.py")


class TestSrcTree:
    def test_src_repro_has_no_findings(self):
        violations, summary = check_locks(SRC)
        assert [v.message for v in violations] == []
        assert summary["cycles"] == []
        # the analysis actually saw the real locks, it didn't scan nothing
        locks = summary["locks"]
        assert any("job.py:JobTable._lock" in k for k in locks)
        assert any("breaker.py" in k for k in locks)
        assert any("factor/cache.py:FactorCache._lock" in k for k in locks)
        assert summary["functions_scanned"] > 100

    def test_eight_locks_and_no_compute_lane(self):
        # the lane went with in-process compute: chunks run in the worker
        # processes, so the service holds nothing while one computes
        _, summary = check_locks(SRC)
        assert len(summary["locks"]) == 8
        assert not any("lane" in k for k in summary["locks"])
        assert summary["order_edges"] == []
        assert summary["cycle_search_truncated"] is False

    def test_blocking_call_in_with_context_expr_seen(self, tmp_path):
        # the context-manager expression of a non-lock `with` runs under
        # any locks already held — calls inside it must not be invisible
        tree = tmp_path / "service"
        tree.mkdir()
        (tree / "w.py").write_text(
            "import threading\n\n\n"
            "class W:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n\n"
            "    def bad(self, q):\n"
            "        with self._lock:\n"
            "            with q.get():\n"
            "                pass\n"
        )
        violations, _ = check_locks(tmp_path)
        msgs = [v.message for v in violations]
        assert len(msgs) == 1
        assert "q.get() with no timeout" in msgs[0]
        assert "while holding" in msgs[0]

    def test_cycle_search_truncation_reported(self):
        violations, summary = check_locks(FIXTURES / "locks_bad")
        assert summary["cycle_search_truncated"] is False

    def test_condition_wait_on_held_lock_exempt(self, tmp_path):
        tree = tmp_path / "service"
        tree.mkdir()
        (tree / "w.py").write_text(
            "import threading\n\n\n"
            "class W:\n"
            "    def __init__(self):\n"
            "        self._cond = threading.Condition()\n\n"
            "    def sleep_until_kicked(self):\n"
            "        with self._cond:\n"
            "            self._cond.wait()\n\n"
            "    def bad(self, q):\n"
            "        with self._cond:\n"
            "            q.join()\n"
        )
        violations, _ = check_locks(tmp_path)
        msgs = [v.message for v in violations]
        assert len(msgs) == 1 and "q.join()" in msgs[0]
