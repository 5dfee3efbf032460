"""Protocol and concurrency static analysis (``python -m repro verify-protocol``).

Three cooperating AST analyses over the parallel layer that PRs 7–9 built:

* :mod:`.wire` — RPR010, closed-world wire-contract checker for the opcode
  table, frame kinds, and ``ARRAY_DTYPES`` in ``repro.comm.backends``;
* :mod:`.machines` — RPR011, reads the transition tables the rank
  supervisor, job record, and breaker enforce, model-checks them
  exhaustively, and checks every state write goes through them;
* :mod:`.locks` — RPR012, interprocedural lock-order cycles and
  blocking-calls-under-lock over ``repro.service`` / ``repro.comm`` /
  the factor cache / checkpointing.

Findings ship in a ``repro.proto.v1`` report (:mod:`.report`) with the same
noqa ergonomics as the linter.  See docs/static-analysis.md.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "MACHINES",
    "ProtoReport",
    "check_locks",
    "check_machines",
    "check_wire",
    "model_check",
    "verify_protocol",
    "write_proto_report",
]

_LAZY = {
    "MACHINES": ("repro.analysis.proto.machines", "MACHINES"),
    "ProtoReport": ("repro.analysis.proto.report", "ProtoReport"),
    "check_locks": ("repro.analysis.proto.locks", "check_locks"),
    "check_machines": ("repro.analysis.proto.machines", "check_machines"),
    "check_wire": ("repro.analysis.proto.wire", "check_wire"),
    "model_check": ("repro.analysis.proto.machines", "model_check"),
    "verify_protocol": ("repro.analysis.proto.report", "verify_protocol"),
    "write_proto_report": ("repro.analysis.proto.report", "write_proto_report"),
}


def __getattr__(name: str) -> Any:
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), attr)
