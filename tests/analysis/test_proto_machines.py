"""RPR011: the tables read from the source, their model check, the fixtures."""

import importlib
from pathlib import Path

import pytest

from repro.analysis.proto.astutil import load_context, module_assign, str_constants
from repro.analysis.proto.machines import (
    MACHINES,
    TABLE,
    _states,
    _table,
    check_machines,
    model_check,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "proto"
SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _read(machine):
    """The machine's (states, table) as the checker reads them from source."""
    ctx = load_context(SRC / machine.module, machine.module)
    consts = {k: v for k, (v, _node) in str_constants(ctx.tree).items()}
    return (_states(module_assign(ctx.tree, machine.states), consts),
            _table(module_assign(ctx.tree, TABLE), consts))


def _module(machine):
    return importlib.import_module(
        "repro." + machine.module.removesuffix(".py").replace("/", "."))


class TestSpecsAreSound:
    @pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
    def test_source_reading_matches_the_running_table(self, machine):
        # the AST reader sees exactly what the module enforces at run time
        states, table = _read(machine)
        module = _module(machine)
        assert states == getattr(module, machine.states)
        assert table == module._TRANSITIONS

    @pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
    def test_model_check_proves_invariants(self, machine):
        _violations, checks = check_machines(SRC)
        check = {c.machine: c for c in checks}[machine.name]
        assert check.ok, check.violations
        assert "terminals-absorbing" in check.invariants
        assert "writes-only-through-the-table" in check.invariants
        assert check.states_explored == len(_read(machine)[0])

    def test_job_drain_invariant(self):
        check = {c.machine: c for c in check_machines(SRC)[1]}["job-record"]
        assert "drain-never-strands-a-job" in check.invariants
        assert "every-state-reaches-a-terminal" in check.invariants

    def test_breaker_recovers_and_keeps_the_late_success_edge(self):
        check = {c.machine: c for c in check_machines(SRC)[1]}["breaker"]
        assert "every-state-recovers-to-initial" in check.invariants
        _, table = _read(next(m for m in MACHINES if m.name == "breaker"))
        assert "closed" in table["open"]


class TestModelCheckerCatchesBadSpecs:
    def test_transition_out_of_terminal(self):
        check = model_check("bad", ("a", "b"), {"a": ("b",), "b": ("a",)},
                            terminals=("b",))
        assert any("terminal state 'b' has outgoing" in v
                   for v in check.violations)

    def test_unreachable_and_stranded_states(self):
        check = model_check("bad", ("a", "b", "c"),
                            {"a": ("c",), "b": ("b",)})
        assert any("'b' is unreachable" in v for v in check.violations)
        assert any("'b' cannot reach any terminal" in v
                   for v in check.violations)

    def test_undeclared_state_and_drain(self):
        check = model_check("bad", ("q", "done", "shed"),
                            {"q": ("done", "zombie")},
                            terminals=("done", "shed"), drain="shed")
        assert any("undeclared state 'zombie'" in v for v in check.violations)
        assert any("drain strands state 'q'" in v for v in check.violations)

    def test_terminal_free_machine_must_recover(self):
        check = model_check("bad", ("up", "down"), {"up": ("down",)},
                            recovers=True)
        assert check.violations == ["bad: state 'down' cannot recover to 'up'"]


class TestImplementationCrossCheck:
    def test_fixture_divergences_fire(self):
        violations, _checks = check_machines(FIXTURES / "machines_bad")
        msgs = "\n".join(v.message for v in violations)
        assert all(v.code == "RPR011" for v in violations)
        assert "terminal state 'cancelled' has outgoing edges" in msgs
        assert "state 'suspect' is unreachable" in msgs
        assert "state 'suspect' cannot reach any terminal" in msgs
        assert "state 'open' cannot recover to 'closed'" in msgs
        assert "drain strands state 'queued'" in msgs
        assert "record_ready writes state outside" in msgs
        # __init__ and the declared reset write the initial state: allowed
        assert "record_spawn" not in msgs and "__init__" not in msgs
        by_line = {(Path(v.path).name, v.line) for v in violations}
        assert ("supervisor.py", 37) in by_line  # anchored at the write

    def test_missing_table_is_a_finding(self, tmp_path):
        (tmp_path / "service").mkdir()
        (tmp_path / "service" / "breaker.py").write_text(
            'CLOSED = "closed"\nBREAKER_STATES = (CLOSED,)\n')
        violations, checks = check_machines(tmp_path)
        assert checks == []
        assert [v.message for v in violations] == [
            "breaker: service/breaker.py must declare BREAKER_STATES and "
            "_TRANSITIONS as literals of state names"
        ]

    def test_src_repro_tables_are_clean(self):
        violations, checks = check_machines(SRC)
        assert [v.message for v in violations] == []
        assert [c.machine for c in checks] == [m.name for m in MACHINES]

    def test_missing_modules_are_skipped(self, tmp_path):
        assert check_machines(tmp_path) == ([], [])
