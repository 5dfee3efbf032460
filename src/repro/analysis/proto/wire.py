"""RPR010 — wire-contract checker for the framed transport + command protocol.

The multiprocess backend's wire contract lives in three closed tables that
:mod:`repro.comm.backends` defines once and every peer must agree on:

* the **frame kinds** (``framing.FRAME_KINDS`` / ``KIND_NAMES``) — every
  frame anybody constructs must be a declared kind, and every declared kind
  must be both constructed and accepted (matched against ``.kind``)
  somewhere, or it is dead protocol surface;
* the **opcode table** (``worker.OP_* `` / ``OP_NAMES`` / ``_HANDLERS``) —
  every opcode needs a worker handler, a driver-side encoder
  (``pack_command(OP_X, ...)``) and the shared decoder, and every handler's
  raised exceptions must map into the typed fault taxonomy the driver's
  ``_raise_worker_error`` reconstructs from;
* the **dtype table** (``framing.ARRAY_DTYPES``) — no module in the comm
  layer may ship an array with a literal dtype outside the closed table
  (a dtype the decoder cannot name is a silent protocol fork).

All extraction is AST-only (:mod:`.astutil`): the checker reads the same
bytes a reviewer reads, so it works on fixture trees and cannot be
satisfied by runtime patching.
"""

from __future__ import annotations

import ast
import builtins
from pathlib import Path

from repro.analysis.lint.rules import FileContext, Violation
from repro.analysis.proto.astutil import (
    call_chains,
    function_defs,
    int_constants,
    literal_dict,
    load_context,
    module_assign,
    name_chain,
    name_keyed_dict,
    name_tuple,
    tail_name,
)

CODE = "RPR010"

#: files the contract tables are defined in, relative to the package root
FRAMING_FILE = "comm/backends/framing.py"
WORKER_FILE = "comm/backends/worker.py"
COMPUTE_FILE = "comm/compute.py"
ERRORS_FILE = "resilience/errors.py"

#: literal dtype spellings accepted as members of the closed wire table,
#: normalized to the little-endian struct strings ``ARRAY_DTYPES`` uses
_DTYPE_ALIASES = {
    "float64": "<f8", "f8": "<f8", "<f8": "<f8",
    "int64": "<i8", "i8": "<i8", "<i8": "<i8",
    "int32": "<i4", "i4": "<i4", "<i4": "<i4",
    "uint8": "u1", "u1": "u1", "|u1": "u1",
}

#: names that spell a concrete numpy dtype; only these count as a literal
#: ``dtype=`` (anything else — ``payload.dtype``, a variable — is dynamic,
#: i.e. carried from an already-validated decoded array)
_DTYPE_SPELLINGS = frozenset(_DTYPE_ALIASES) | {
    "float16", "float32", "float128", "int8", "int16", "uint16", "uint32",
    "uint64", "complex64", "complex128", "bool_", "object_", "intp", "uintp",
    "single", "double", "longdouble", "half", "intc", "uintc", "byte",
    "ubyte", "short", "ushort", "longlong", "ulonglong",
}

#: exception names every Python ships; worker handlers may raise these
#: because the driver maps unknown etypes onto ``WorkerComputeError``
_BUILTIN_EXCEPTIONS = frozenset(
    name
    for name in dir(builtins)
    if isinstance(getattr(builtins, name), type)
    and issubclass(getattr(builtins, name), BaseException)
)


def _iter_comm_contexts(root: Path) -> list[FileContext]:
    comm = root / "comm"
    if not comm.is_dir():
        return []
    out = []
    for path in sorted(comm.rglob("*.py")):
        module = path.relative_to(root).as_posix()
        out.append(load_context(path, module))
    return out


def _taxonomy_classes(root: Path) -> set[str]:
    """Exception class names defined by the resilience fault taxonomy."""
    path = root / ERRORS_FILE
    if not path.is_file():
        return set()
    tree = ast.parse(path.read_text())
    return {n.name for n in tree.body if isinstance(n, ast.ClassDef)}


def _kind_tables(
    ctx: FileContext, violations: list[Violation]
) -> tuple[dict[str, int], set[str]]:
    """Extract and self-check FRAME_KINDS / KIND_NAMES; returns (kinds, names)."""
    consts = int_constants(ctx.tree)
    frame_kinds = name_tuple(module_assign(ctx.tree, "FRAME_KINDS")) or ()
    kind_names = name_keyed_dict(module_assign(ctx.tree, "KIND_NAMES")) or {}
    anchor = ctx.tree.body[0] if ctx.tree.body else ctx.tree

    if not frame_kinds:
        violations.append(ctx.violation(
            anchor, CODE, "FRAME_KINDS tuple of kind constants not found",
        ))
        return {}, set()

    kinds: dict[str, int] = {}
    seen_values: dict[int, str] = {}
    for name in frame_kinds:
        if name not in consts:
            violations.append(ctx.violation(
                anchor, CODE,
                f"frame kind {name} is in FRAME_KINDS but has no integer "
                f"constant assignment",
            ))
            continue
        value, node = consts[name]
        kinds[name] = value
        if value in seen_values:
            violations.append(ctx.violation(
                node, CODE,
                f"frame kind {name} reuses wire value {value} already "
                f"taken by {seen_values[value]}",
            ))
        seen_values[value] = name

    for name in kinds:
        if name not in kind_names:
            violations.append(ctx.violation(
                anchor, CODE,
                f"frame kind {name} has no KIND_NAMES entry (undecodable "
                f"in diagnostics)",
            ))
    for name, value_node in kind_names.items():
        if name not in kinds:
            violations.append(ctx.violation(
                value_node, CODE,
                f"KIND_NAMES names {name} which is not in FRAME_KINDS",
            ))
    return kinds, set(kinds)


def _opcode_tables(
    ctx: FileContext, taxonomy: set[str], violations: list[Violation]
) -> dict[str, int]:
    """Extract and check OP_* / OP_NAMES / _HANDLERS; returns the opcodes."""
    consts = int_constants(ctx.tree)
    opcodes = {
        name: value for name, (value, _) in consts.items()
        if name.startswith("OP_")
    }
    op_names = name_keyed_dict(module_assign(ctx.tree, "OP_NAMES")) or {}
    handlers = name_keyed_dict(module_assign(ctx.tree, "_HANDLERS")) or {}
    defs = function_defs(ctx.tree)
    anchor = ctx.tree.body[0] if ctx.tree.body else ctx.tree

    seen_values: dict[int, str] = {}
    for name, value in sorted(opcodes.items()):
        node = consts[name][1]
        if value in seen_values:
            violations.append(ctx.violation(
                node, CODE,
                f"opcode {name} reuses wire value {value} already taken "
                f"by {seen_values[value]}",
            ))
        seen_values[value] = name
        if name not in op_names:
            violations.append(ctx.violation(
                node, CODE,
                f"opcode {name} has no OP_NAMES entry — pack_command and "
                f"unpack_command will reject it as unknown",
            ))
        if name not in handlers:
            violations.append(ctx.violation(
                node, CODE,
                f"opcode {name} has no _HANDLERS entry — a worker receiving "
                f"it returns a KeyError result instead of executing",
            ))
    for name, value_node in op_names.items():
        if name not in opcodes:
            violations.append(ctx.violation(
                value_node, CODE,
                f"OP_NAMES names {name} which has no OP_* constant",
            ))
    handler_fns: list[ast.FunctionDef] = []
    for name, value_node in handlers.items():
        if name not in opcodes:
            violations.append(ctx.violation(
                value_node, CODE,
                f"_HANDLERS names {name} which has no OP_* constant",
            ))
        fn = tail_name(value_node)
        if fn is None or fn not in defs:
            violations.append(ctx.violation(
                value_node, CODE,
                f"_HANDLERS[{name}] does not point at a function defined "
                f"in this module",
            ))
        else:
            handler_fns.append(defs[fn])

    # every exception a handler raises must reconstruct driver-side:
    # either a taxonomy class (re-raised as itself) or a builtin (mapped
    # onto WorkerComputeError) — anything else silently degrades the error
    for fn in handler_fns:
        for node in ast.walk(fn):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            target = exc.func if isinstance(exc, ast.Call) else exc
            name = tail_name(target)
            if name is None:
                continue  # re-raise of a bound variable: origin checked there
            if name not in taxonomy and name not in _BUILTIN_EXCEPTIONS:
                violations.append(ctx.violation(
                    node, CODE,
                    f"handler {fn.name} raises {name}, which is neither a "
                    f"resilience-taxonomy class nor a builtin — the driver "
                    f"cannot reconstruct it from the wire etype",
                ))
    return opcodes


def _driver_side(
    ctx: FileContext, opcodes: dict[str, int], violations: list[Violation]
) -> set[str]:
    """Check compute.py encodes every opcode and decodes/maps errors."""
    anchor = ctx.tree.body[0] if ctx.tree.body else ctx.tree
    encoded: set[str] = set()
    called: set[str] = set()
    for chain, call in call_chains(ctx.tree):
        called.add(chain[-1])
        if chain[-1] == "pack_command" and call.args:
            op = tail_name(call.args[0])
            if op is not None and op.startswith("OP_"):
                encoded.add(op)
                if op not in opcodes:
                    violations.append(ctx.violation(
                        call, CODE,
                        f"driver encodes unknown opcode {op} (not in the "
                        f"worker's opcode table)",
                    ))
    for name in sorted(opcodes):
        if name not in encoded:
            violations.append(ctx.violation(
                anchor, CODE,
                f"opcode {name} has no driver-side encoder "
                f"(pack_command({name}, ...) call) in {COMPUTE_FILE}",
            ))
    if "unpack_command" not in called:
        violations.append(ctx.violation(
            anchor, CODE,
            f"{COMPUTE_FILE} never calls unpack_command — results are not "
            f"decoded through the shared decoder",
        ))
    if "_raise_worker_error" not in called:
        violations.append(ctx.violation(
            anchor, CODE,
            f"{COMPUTE_FILE} never routes worker errors through the typed "
            f"mapping (_raise_worker_error)",
        ))
    return encoded


#: calls that frame one of their arguments as the kind: callee → (position,
#: keyword).  A ``deliver_round(comm, kind, ...)`` that hands its ``kind``
#: straight to ``encode_frame`` constructs its kinds at *its* call sites.
_KIND_ARGUMENT = {"encode_frame": (0, "kind"), "deliver_round": (1, "kind")}


def _frame_usage(
    contexts: list[FileContext],
    kinds: set[str],
    violations: list[Violation],
) -> tuple[set[str], set[str]]:
    """Constructed vs accepted frame kinds across the whole comm layer.

    A kind is *constructed* where it is the kind argument of a
    :data:`_KIND_ARGUMENT` call; it is *accepted* where it appears in a
    comparison against some ``.kind`` attribute (``==``, ``!=``, ``in``,
    ``not in``).  Dynamic kinds (``resp.kind`` re-encoded verbatim,
    ``deliver_round``'s own parameter) are skipped — they can only carry
    values validated or counted elsewhere.
    """
    constructed: set[str] = set()
    accepted: set[str] = set()
    for ctx in contexts:
        for chain, call in call_chains(ctx.tree):
            if chain[-1] not in _KIND_ARGUMENT:
                continue
            pos, param = _KIND_ARGUMENT[chain[-1]]
            args = call.args[pos:pos + 1] or [
                kw.value for kw in call.keywords if kw.arg == param
            ]
            if not args:
                continue
            kind = tail_name(args[0])
            if kind is None or not kind.isupper():
                continue  # dynamic (e.g. resp.kind): validated upstream
            constructed.add(kind)
            if kind not in kinds:
                violations.append(ctx.violation(
                    call, CODE,
                    f"constructs frame kind {kind} which is not in "
                    f"FRAME_KINDS — decode_frame will reject it as "
                    f"MessageCorruption",
                ))
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            sides = [node.left, *node.comparators]
            touches_kind = any(
                isinstance(s, ast.Attribute) and s.attr == "kind"
                for s in sides
            )
            if not touches_kind:
                continue
            for side in sides:
                for leaf in ast.walk(side):
                    name = tail_name(leaf)
                    if name is not None and name in kinds:
                        accepted.add(name)
    return constructed, accepted


def _dtype_usage(
    contexts: list[FileContext],
    dtype_table: dict[object, object],
    violations: list[Violation],
) -> set[str]:
    """Every literal ``dtype=`` in the comm layer must be in the closed table."""
    allowed = {str(v) for v in dtype_table.values()}
    used: set[str] = set()
    for ctx in contexts:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            for kw in node.keywords:
                if kw.arg != "dtype":
                    continue
                if isinstance(kw.value, ast.Constant) and isinstance(
                    kw.value.value, str
                ):
                    spelled: str | None = kw.value.value
                else:
                    spelled = tail_name(kw.value)
                    if spelled is not None and spelled not in _DTYPE_SPELLINGS:
                        spelled = None
                if spelled is None:
                    continue  # dynamic dtype: carried from a decoded array
                normalized = _DTYPE_ALIASES.get(spelled)
                if normalized is None or normalized not in allowed:
                    violations.append(ctx.violation(
                        node, CODE,
                        f"ships dtype {spelled!r} which is outside the "
                        f"closed ARRAY_DTYPES table "
                        f"({sorted(allowed)}) — undecodable on the wire",
                    ))
                else:
                    used.add(normalized)
    return used


def check_wire(root: Path) -> tuple[list[Violation], dict[str, object]]:
    """Run the whole wire-contract check over the tree at ``root``.

    Returns ``(violations, summary)`` where ``summary`` is the coverage
    section of the ``repro.proto.v1`` report.
    """
    violations: list[Violation] = []
    summary: dict[str, object] = {
        "opcodes": {}, "frame_kinds": {}, "dtypes": {}, "files": [],
    }

    framing_path = root / FRAMING_FILE
    if not framing_path.is_file():
        return violations, summary
    framing_ctx = load_context(framing_path, FRAMING_FILE)
    kinds, kind_set = _kind_tables(framing_ctx, violations)
    dtype_table = literal_dict(
        module_assign(framing_ctx.tree, "ARRAY_DTYPES")
    ) or {}

    taxonomy = _taxonomy_classes(root)
    opcodes: dict[str, int] = {}
    worker_path = root / WORKER_FILE
    if worker_path.is_file():
        worker_ctx = load_context(worker_path, WORKER_FILE)
        opcodes = _opcode_tables(worker_ctx, taxonomy, violations)

    encoded: set[str] = set()
    compute_path = root / COMPUTE_FILE
    if compute_path.is_file():
        compute_ctx = load_context(compute_path, COMPUTE_FILE)
        encoded = _driver_side(compute_ctx, opcodes, violations)

    contexts = _iter_comm_contexts(root)
    constructed, accepted = _frame_usage(contexts, kind_set, violations)
    for kind in sorted(constructed - accepted):
        violations.append(framing_ctx.violation(
            framing_ctx.tree.body[0], CODE,
            f"frame kind {kind} is constructed but never matched against "
            f"any receiver's .kind — no peer accepts it",
        ))
    for kind in sorted(kind_set - constructed):
        violations.append(framing_ctx.violation(
            framing_ctx.tree.body[0], CODE,
            f"frame kind {kind} is declared in FRAME_KINDS but never "
            f"constructed — dead protocol surface",
        ))
    dtypes_used = _dtype_usage(contexts, dtype_table, violations)

    summary["opcodes"] = {
        name: {
            "value": value,
            "encoded": name in encoded,
        }
        for name, value in sorted(opcodes.items())
    }
    summary["frame_kinds"] = {
        name: {
            "value": kinds[name],
            "constructed": name in constructed,
            "accepted": name in accepted,
        }
        for name in sorted(kind_set)
    }
    summary["dtypes"] = {
        str(name): str(name) in dtypes_used
        for name in sorted(str(v) for v in dtype_table.values())
    }
    summary["files"] = [ctx.module for ctx in contexts]
    return violations, summary
