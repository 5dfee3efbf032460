"""Job model: spec validation, the lifecycle state machine, streaming."""

import pytest

from repro.cases.base import PARTITION_SCHEMES
from repro.comm.backends import BACKEND_NAMES
from repro.service.errors import UnknownJob
from repro.service.job import (
    JOB_STATUSES,
    TERMINAL_STATUSES,
    JobRecord,
    JobSpec,
    JobTable,
)


class FakeClock:
    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class TestJobSpec:
    def test_defaults_are_valid(self):
        spec = JobSpec()
        assert spec.tenant == "default" and spec.precond == "schur1"

    @pytest.mark.parametrize("kwargs,match", [
        ({"case": "nope"}, "unknown case"),
        ({"precond": "nope"}, "unknown preconditioner"),
        ({"backend": "mpi"}, "unknown execution backend"),
        ({"scheme": "nonsense"}, "unknown partitioning scheme"),
        ({"nparts": 0}, "nparts"),
        ({"maxiter": 0}, "maxiter"),
        ({"deadline_s": 0.0}, "deadline_s"),
        ({"tenant": ""}, "tenant"),
    ])
    def test_invalid_fields_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            JobSpec(**kwargs)

    def test_case_aliases_are_valid(self):
        assert JobSpec(case="poisson2d").case == "poisson2d"

    @pytest.mark.parametrize("scheme", PARTITION_SCHEMES)
    @pytest.mark.parametrize("backend", (None, *BACKEND_NAMES))
    def test_every_scheme_and_backend_is_valid(self, scheme, backend):
        spec = JobSpec(scheme=scheme, backend=backend)
        assert (spec.scheme, spec.backend) == (scheme, backend)

    def test_round_trips_through_dict(self):
        spec = JobSpec(tenant="t", case="tc3", size=9, precond="block2",
                       deadline_s=2.5, key="k-1")
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_spec_written_with_a_solver_field_still_loads(self):
        # jobs files and drain manifests from when the outer solver was a
        # field carry "solver": "fgmres"
        old = {"tenant": "t", "case": "tc3", "size": 9, "precond": "block2",
               "nparts": 2, "solver": "fgmres", "rtol": 1e-6, "maxiter": 400,
               "seed": 0, "scheme": "general", "backend": None,
               "deadline_s": 2.5, "key": "k-1"}
        spec = JobSpec.from_dict(old)
        assert spec == JobSpec(tenant="t", case="tc3", size=9,
                               precond="block2", deadline_s=2.5, key="k-1")
        assert JobSpec.from_dict(spec.to_dict()) == spec
        assert "solver" not in spec.to_dict() and "solver" in old

    @pytest.mark.parametrize("solver", ["cg", "bicgstab", None])
    def test_other_solver_values_refused_on_load(self, solver):
        with pytest.raises(ValueError, match="field 'solver'"):
            JobSpec.from_dict({"tenant": "t", "solver": solver})

    def test_unknown_field_rejected_on_load(self):
        with pytest.raises(ValueError, match="unknown JobSpec field"):
            JobSpec.from_dict({"tenant": "t", "color": "red"})


class TestStateMachine:
    def test_happy_path_and_timestamps(self):
        clock = FakeClock()
        rec = JobRecord("job-1", JobSpec(), clock=clock)
        assert rec.status == "queued" and not rec.terminal
        clock.advance(1.0)
        rec.transition("running", worker="w0")
        assert rec.started_t == 1.0
        clock.advance(2.0)
        rec.transition("converged", iterations=5)
        assert rec.terminal and rec.finished_t == 3.0
        assert rec.latency_s == 3.0

    @pytest.mark.parametrize("status", TERMINAL_STATUSES)
    def test_terminal_statuses_are_terminal(self, status):
        rec = JobRecord("job-1", JobSpec())
        if status in ("converged", "failed"):
            rec.transition("running")
        rec.transition(status)
        for other in JOB_STATUSES:
            with pytest.raises(ValueError, match="illegal transition"):
                rec.transition(other)

    def test_queued_cannot_jump_to_converged(self):
        rec = JobRecord("job-1", JobSpec())
        with pytest.raises(ValueError, match="illegal transition"):
            rec.transition("converged")

    def test_unknown_status_rejected(self):
        rec = JobRecord("job-1", JobSpec())
        with pytest.raises(ValueError, match="unknown status"):
            rec.transition("paused")

    def test_every_update_is_recorded_in_order(self):
        rec = JobRecord("job-1", JobSpec())
        rec.transition("running")
        rec.progress(iterations=10, relres=1e-3)
        rec.transition("converged")
        kinds = [(u.seq, u.kind, u.status) for u in rec.updates]
        assert kinds == [
            (0, "status", "queued"), (1, "status", "running"),
            (2, "progress", "running"), (3, "status", "converged"),
        ]
        assert rec.updates[2].detail["relres"] == 1e-3

    def test_cancel_flag_is_sticky(self):
        rec = JobRecord("job-1", JobSpec())
        assert not rec.cancel_requested
        rec.request_cancel()
        assert rec.cancel_requested


class TestObservation:
    def test_wait_returns_true_once_terminal(self):
        rec = JobRecord("job-1", JobSpec())
        rec.transition("shed", reason="test")
        assert rec.wait(timeout=0.1)

    def test_wait_times_out_on_live_job(self):
        rec = JobRecord("job-1", JobSpec())
        assert not rec.wait(timeout=0.05)

    def test_stream_yields_all_updates_then_ends(self):
        rec = JobRecord("job-1", JobSpec())
        rec.transition("running")
        rec.progress(iterations=3)
        rec.transition("converged")
        got = list(rec.stream(timeout=1.0))
        assert [u.status for u in got] == [
            "queued", "running", "running", "converged",
        ]
        assert got[-1].kind == "status"

    def test_to_dict_snapshot_shape(self):
        rec = JobRecord("job-7", JobSpec(tenant="t", key="k"))
        rec.transition("running")
        rec.transition("failed", reason="maxiter")
        d = rec.to_dict()
        assert d["job_id"] == "job-7" and d["tenant"] == "t"
        assert d["status"] == "failed" and d["spec"]["key"] == "k"
        assert d["latency_s"] is not None


class TestJobTable:
    def test_monotone_ids_and_lookup(self):
        table = JobTable()
        a = JobRecord(table.new_id(), JobSpec())
        b = JobRecord(table.new_id(), JobSpec(key="k"))
        table.add(a)
        table.add(b)
        assert a.job_id != b.job_id
        assert table.get(b.job_id) is b
        assert table.by_key("k") is b
        assert table.by_key("missing") is None
        assert set(table.all()) == {a, b}

    def test_unknown_job_is_typed(self):
        with pytest.raises(UnknownJob, match="no job"):
            JobTable().get("job-99999")
