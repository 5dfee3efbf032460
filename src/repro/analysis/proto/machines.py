"""RPR011 — the lifecycle tables, model-checked where they are written.

Each lifecycle machine keeps its transition table in its own module, as a
module-level ``_TRANSITIONS`` dict, and that module's one state-writing
method consults it: ``JobRecord.transition`` (``service/job.py``),
``RankSupervisor._enter`` (``comm/backends/supervisor.py``) and
``_Circuit.move`` (``service/breaker.py``).  This checker reads each table
and its states tuple out of the source — it never imports the checked
modules — and proves, by exhaustive search over the table:

* every declared state is reachable from the initial one (the first entry
  of the module's states tuple);
* terminals are absorbing — no edge leaves a declared terminal;
* every state reaches a terminal or, for a terminal-free machine (the
  breaker), recovers to its initial state;
* drain can shed every non-terminal job.

It also checks one structural rule: every ``.state`` / ``.status`` write in
the module sits inside a function that consults ``_TRANSITIONS``, or writes
the initial state from ``__init__`` or a declared reset.  What depends on
more than the table — fencing only from SUSPECT, one half-open probe — is
proved by tier-1 tests that explore the real classes
(``tests/service/test_transition_edges.py``).
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.analysis.lint.rules import FileContext, Violation
from repro.analysis.proto.astutil import load_context, module_assign, str_constants

CODE = "RPR011"
TABLE = "_TRANSITIONS"
STATE_ATTRS = ("state", "status")

Table = dict[str, tuple[str, ...]]


@dataclass(frozen=True)
class Machine:
    """Where one lifecycle lives, and what of it the checker reads.

    ``states`` names the module's states tuple (its first entry is the
    initial state); ``terminals`` names a declared terminal tuple, without
    which the table's sinks are the terminals; ``recovers`` marks a
    terminal-free machine; ``resets`` may write the initial state outside
    the table (a respawned rank starts a new lifecycle); ``drain`` is the
    state every live job must be able to reach directly.
    """

    name: str
    module: str
    states: str
    terminals: str | None = None
    recovers: bool = False
    resets: tuple[str, ...] = ()
    drain: str | None = None


MACHINES = (
    Machine("rank-supervisor", "comm/backends/supervisor.py", "RANK_STATES",
            resets=("record_spawn",)),
    Machine("job-record", "service/job.py", "JOB_STATUSES",
            terminals="TERMINAL_STATUSES", drain="shed"),
    Machine("breaker", "service/breaker.py", "BREAKER_STATES", recovers=True),
)


@dataclass
class MachineCheck:
    """Result of exhaustively checking one machine's table."""

    machine: str
    states_explored: int
    transitions_checked: int
    invariants: list[str]
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict[str, object]:
        return {
            "machine": self.machine,
            "states_explored": self.states_explored,
            "transitions_checked": self.transitions_checked,
            "invariants_proven": list(self.invariants),
            "violations": list(self.violations),
        }


def _reachable(start: Iterable[str], edges: Table) -> set[str]:
    seen = set(start)
    queue = deque(seen)
    while queue:
        for nxt in edges.get(queue.popleft(), ()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def model_check(
    name: str, states: tuple[str, ...], table: Table,
    terminals: tuple[str, ...] | None = None, recovers: bool = False,
    drain: str | None = None,
) -> MachineCheck:
    """Exhaustively check one transition table over its declared states."""
    initial = states[0]
    check = MachineCheck(
        machine=name, states_explored=0,
        transitions_checked=sum(len(dsts) for dsts in table.values()),
        invariants=[], violations=[],
    )

    def prove(invariant: str, failures: list[str]) -> None:
        check.violations.extend(f"{name}: {f}" for f in failures)
        if not failures:
            check.invariants.append(invariant)

    used = set(table) | {dst for dsts in table.values() for dst in dsts}
    prove("declared-states-only", [
        f"table uses undeclared state {s!r}" for s in sorted(used - set(states))
    ])
    reachable = _reachable([initial], table)
    check.states_explored = len(reachable & set(states))
    prove("reachable-from-initial", [
        f"state {s!r} is unreachable from {initial!r}"
        for s in states if s not in reachable
    ])
    if terminals is None:
        terminals = () if recovers else tuple(s for s in states if not table.get(s))
    prove("terminals-absorbing", [
        f"terminal state {t!r} has outgoing edges {table[t]}"
        for t in terminals if table.get(t)
    ])
    if recovers:
        prove("every-state-recovers-to-initial", [
            f"state {s!r} cannot recover to {initial!r}"
            for s in states if initial not in _reachable([s], table)
        ])
    else:
        reverse: dict[str, tuple[str, ...]] = {}
        for src, dsts in table.items():
            for dst in dsts:
                reverse[dst] = reverse.get(dst, ()) + (src,)
        reaches = _reachable(terminals, reverse)
        prove("every-state-reaches-a-terminal", [
            f"state {s!r} cannot reach any terminal {terminals}"
            for s in states if s not in reaches
        ])
    if drain is not None:
        prove("drain-never-strands-a-job", [
            f"drain strands state {s!r} — no edge to {drain!r}"
            for s in states
            if s not in terminals and drain not in table.get(s, ())
        ])
    return check


# ---------------------------------------------------------------------------
# reading the tables out of the source
# ---------------------------------------------------------------------------

def _state(node: ast.AST | None, consts: dict[str, str]) -> str | None:
    """A state written as a string literal or a module string constant."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Name):
        return consts.get(node.id)
    return None


def _states(node: ast.AST | None, consts: dict[str, str]) -> tuple[str, ...] | None:
    if not isinstance(node, (ast.Tuple, ast.List)):
        return None
    found = [_state(elt, consts) for elt in node.elts]
    names = tuple(s for s in found if s is not None)
    return names if len(names) == len(found) else None


def _table(node: ast.AST | None, consts: dict[str, str]) -> Table | None:
    if not isinstance(node, ast.Dict):
        return None
    table: Table = {}
    for key, value in zip(node.keys, node.values):
        src, dsts = _state(key, consts), _states(value, consts)
        if src is None or dsts is None:
            return None
        table[src] = dsts
    return table


def _stray_writes(
    machine: Machine, ctx: FileContext, consts: dict[str, str], initial: str,
) -> list[tuple[ast.AST, str]]:
    """State writes outside a table-consulting function or a reset."""
    checked = {
        fn.name for fn in ast.walk(ctx.tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(isinstance(n, ast.Name) and n.id == TABLE for n in ast.walk(fn))
    }
    resets = ("__init__", *machine.resets)
    out: list[tuple[ast.AST, str]] = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign):
            targets, value = [node.target], node.value
        else:
            continue
        if not any(isinstance(t, ast.Attribute) and t.attr in STATE_ATTRS
                   for t in targets):
            continue
        fn = ctx.enclosing_function(node)
        where = fn.name if fn is not None else "<module>"
        if where in checked:
            continue
        if where in resets and _state(value, consts) == initial:
            continue
        out.append((node, (
            f"{machine.name}: {where} writes state outside the "
            f"{TABLE}-checked method ({', '.join(sorted(checked)) or 'none'})"
        )))
    return out


def check_machines(
    root: Path,
) -> tuple[list[Violation], list[MachineCheck]]:
    """Read and model-check every machine's table in the tree at ``root``.

    Machines whose module is absent under ``root`` are skipped (fixture
    trees exercise one machine at a time).
    """
    violations: list[Violation] = []
    checks: list[MachineCheck] = []
    for machine in MACHINES:
        path = root / machine.module
        if not path.is_file():
            continue
        ctx = load_context(path, machine.module)
        consts = {k: v for k, (v, _node) in str_constants(ctx.tree).items()}
        table_node = module_assign(ctx.tree, TABLE)
        table = _table(table_node, consts)
        states = _states(module_assign(ctx.tree, machine.states), consts)
        terminals = None
        if machine.terminals is not None:
            terminals = _states(module_assign(ctx.tree, machine.terminals), consts)
        if table_node is None or table is None or not states \
                or (machine.terminals is not None and terminals is None):
            violations.append(ctx.violation(
                ctx.tree.body[0] if ctx.tree.body else ctx.tree, CODE,
                f"{machine.name}: {machine.module} must declare "
                f"{machine.states} and {TABLE} as literals of state names",
            ))
            continue
        check = model_check(
            machine.name, states, table, terminals=terminals,
            recovers=machine.recovers, drain=machine.drain,
        )
        found: list[tuple[ast.AST, str]] = [
            (table_node, message) for message in check.violations
        ]
        writes = _stray_writes(machine, ctx, consts, states[0])
        check.violations.extend(message for _node, message in writes)
        if not writes:
            check.invariants.append("writes-only-through-the-table")
        checks.append(check)
        violations.extend(
            ctx.violation(node, CODE, message)
            for node, message in found + writes
        )
    return violations, checks
