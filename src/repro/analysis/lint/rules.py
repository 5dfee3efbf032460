"""The RPR lint rules — repo-specific numerics-correctness checks.

Each rule has a stable code, a one-line summary, and a module scope (the
layers where the hazard it guards against actually lives).  Rules are
deliberately *lexical*: they inspect one file's AST at a time, so every
finding is cheap to verify and cheap to suppress (``# repro: noqa(RPRxxx)``
on the offending line).  The full rationale per rule lives in
``docs/static-analysis.md``.

| code   | summary |
|--------|---------|
| RPR001 | float ``==``/``!=`` comparison against a float literal |
| RPR002 | iteration over a set/dict in order-sensitive layers |
| RPR003 | raw ``RuntimeError``/``ValueError`` mid-computation in solver/factor paths |
| RPR004 | unseeded global RNG (``np.random.*`` legacy API, ``random`` module) |
| RPR005 | NumPy reduction in kernel/factor code outside an errstate/fp guard |
| RPR006 | documented solver entry point without span instrumentation |
| RPR007 | in-place CSR ``data``/``indices``/``indptr`` mutation without invariant re-check |
| RPR008 | bare ``time.sleep`` / raw ``multiprocessing`` primitives outside ``repro.comm.backends`` |
| RPR009 | blocking ``get``/``wait``/``join``/``recv`` without an explicit ``timeout`` in ``repro.service`` |
| RPR010 | wire-contract violation: opcode/frame-kind/dtype outside the closed tables |
| RPR011 | unsound supervisor/job/breaker transition table, or a state write that bypasses it |
| RPR012 | lock-order cycle or blocking call reachable while a lock is held |

RPR001–009 run per file under ``python -m repro lint``.  RPR010–012 are
whole-program analyses implemented by :mod:`repro.analysis.proto` and run
under ``python -m repro verify-protocol``; they share this violation type
and the noqa ergonomics but are not in :data:`RULES`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Iterator


@dataclass(frozen=True)
class Violation:
    """One lint finding; ``snippet`` is the stripped source line."""

    path: str
    line: int
    col: int
    code: str
    message: str
    snippet: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
            "snippet": self.snippet,
        }


class FileContext:
    """One parsed file plus the indexes the rules share.

    ``module`` is the path relative to the package root (``src/repro``),
    e.g. ``"krylov/monitors.py"`` — rule scopes match against it.
    """

    def __init__(self, path: str, module: str, source: str) -> None:
        self.path = path
        self.module = module
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=path)
        self.parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent

    # -- tree helpers ----------------------------------------------------
    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Ancestors of ``node``, innermost first."""
        cur = self.parents.get(node)
        while cur is not None:
            yield cur
            cur = self.parents.get(cur)

    def enclosing_function(
        self, node: ast.AST
    ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        for anc in self.ancestors(node):
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return anc
        return None

    def in_scope(self, prefixes: tuple[str, ...] | None) -> bool:
        if prefixes is None:
            return True
        return self.module.startswith(prefixes)

    def snippet(self, node: ast.AST) -> str:
        line = getattr(node, "lineno", 0)
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def violation(self, node: ast.AST, code: str, message: str) -> Violation:
        return Violation(
            path=self.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0) + 1,
            code=code,
            message=message,
            snippet=self.snippet(node),
        )


@dataclass(frozen=True)
class Rule:
    code: str
    name: str
    summary: str
    #: module-path prefixes (relative to src/repro) the rule applies to;
    #: ``None`` means the whole package
    scope: tuple[str, ...] | None
    check: Callable[[FileContext], list[Violation]] = field(compare=False)


# ---------------------------------------------------------------------------
# RPR001 — float equality comparison
# ---------------------------------------------------------------------------

def _is_float_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_float_literal(node.operand)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id == "float"
    return False


def check_rpr001(ctx: FileContext) -> list[Violation]:
    out = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if _is_float_literal(left) or _is_float_literal(right):
                out.append(ctx.violation(
                    node, "RPR001",
                    "float equality comparison — use a tolerance "
                    "(abs diff / math.isclose) or an inequality with the "
                    "same semantics",
                ))
                break
    return out


# ---------------------------------------------------------------------------
# RPR002 — set/dict iteration in order-sensitive layers
# ---------------------------------------------------------------------------

_DICT_ITER_METHODS = ("keys", "values", "items")


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _set_names_per_scope(ctx: FileContext) -> dict[ast.AST, set[str]]:
    """Names assigned a set value, grouped by enclosing function (or module)."""
    scopes: dict[ast.AST, set[str]] = {}
    for node in ast.walk(ctx.tree):
        target: ast.expr | None = None
        value: ast.expr | None = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target, value = node.target, node.value
        if not (isinstance(target, ast.Name) and value is not None):
            continue
        if _is_set_expr(value):
            scope = ctx.enclosing_function(node) or ctx.tree
            scopes.setdefault(scope, set()).add(target.id)
    return scopes


def check_rpr002(ctx: FileContext) -> list[Violation]:
    set_names = _set_names_per_scope(ctx)

    def unordered(it: ast.expr, site: ast.AST) -> bool:
        if _is_set_expr(it):
            return True
        if isinstance(it, ast.Name):
            scope = ctx.enclosing_function(site) or ctx.tree
            return it.id in set_names.get(scope, set())
        if (
            isinstance(it, ast.Call)
            and isinstance(it.func, ast.Attribute)
            and it.func.attr in _DICT_ITER_METHODS
            and not it.args
        ):
            return True
        if isinstance(it, ast.Call) and isinstance(it.func, ast.Name) \
                and it.func.id == "enumerate" and it.args:
            return unordered(it.args[0], site)
        return False

    out = []
    for node in ast.walk(ctx.tree):
        iters: list[ast.expr] = []
        if isinstance(node, ast.For):
            iters = [node.iter]
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                               ast.DictComp)):
            iters = [gen.iter for gen in node.generators]
        for it in iters:
            if unordered(it, node):
                out.append(ctx.violation(
                    it, "RPR002",
                    "iteration over a set/dict in an order-sensitive layer "
                    "— wrap in sorted(...) so results do not depend on hash "
                    "or insertion order",
                ))
    return out


# ---------------------------------------------------------------------------
# RPR003 — raw RuntimeError/ValueError in solver/factor paths
# ---------------------------------------------------------------------------

_RAW_EXC = ("RuntimeError", "ValueError")


def check_rpr003(ctx: FileContext) -> list[Violation]:
    out = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc
        name = None
        if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
            name = exc.func.id
        elif isinstance(exc, ast.Name):
            name = exc.id
        if name not in _RAW_EXC:
            continue
        # argument-validation idiom is exempt: the raise sits directly under
        # `if` statements at the top level of the function body (caller-bug
        # ValueErrors are documented as non-retryable in repro.resilience).
        # A raise inside a loop / try / with is mid-computation: it should
        # speak the typed fault taxonomy so the resilience layer can react.
        validation = True
        for anc in ctx.ancestors(node):
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                break
            if not isinstance(anc, ast.If):
                validation = False
                break
        if validation:
            continue
        out.append(ctx.violation(
            node, "RPR003",
            f"raw {name} raised mid-computation in a solver/factor path — "
            "raise a typed repro.resilience.errors.SolverFault subclass so "
            "the resilience layer can classify and retry",
        ))
    return out


# ---------------------------------------------------------------------------
# RPR004 — unseeded global RNG
# ---------------------------------------------------------------------------

_LEGACY_NP_RANDOM = (
    "seed", "rand", "randn", "randint", "random", "random_sample", "choice",
    "shuffle", "permutation", "uniform", "normal", "standard_normal",
)
_STDLIB_RANDOM = (
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "seed",
)


def check_rpr004(ctx: FileContext) -> list[Violation]:
    out = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        # np.random.<legacy>(...) — the seeded-once global generator
        if (
            isinstance(func.value, ast.Attribute)
            and func.value.attr == "random"
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id in ("np", "numpy")
            and func.attr in _LEGACY_NP_RANDOM
        ):
            out.append(ctx.violation(
                node, "RPR004",
                f"np.random.{func.attr} uses the unseeded global RNG — "
                "thread a Generator from repro.utils.rng.make_rng(seed)",
            ))
            continue
        # np.random.default_rng() with no/None seed
        if (
            func.attr == "default_rng"
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "random"
            and (
                not node.args
                or (isinstance(node.args[0], ast.Constant)
                    and node.args[0].value is None)
            )
        ):
            out.append(ctx.violation(
                node, "RPR004",
                "np.random.default_rng() without a seed is entropy-seeded — "
                "pass an explicit seed (repro.utils.rng.make_rng)",
            ))
            continue
        # random.<fn>(...) — the stdlib module-level generator
        if (
            isinstance(func.value, ast.Name)
            and func.value.id == "random"
            and func.attr in _STDLIB_RANDOM
        ):
            out.append(ctx.violation(
                node, "RPR004",
                f"random.{func.attr} uses the process-global stdlib RNG — "
                "thread a seeded Generator instead",
            ))
    return out


# ---------------------------------------------------------------------------
# RPR005 — unguarded NumPy reductions in kernel/factor code
# ---------------------------------------------------------------------------

_REDUCTION_NP = (
    "sum", "dot", "vdot", "prod", "cumsum", "cumprod", "einsum", "trace",
)
_REDUCTION_UFUNC_METHODS = ("reduce", "reduceat", "accumulate", "outer")
_GUARD_NAMES = ("errstate", "fp_guard", "kernel_guard", "fp_sanitizer")


def _call_name_chain(func: ast.expr) -> list[str]:
    """['np', 'linalg', 'norm'] for ``np.linalg.norm`` — [] when not a chain."""
    parts: list[str] = []
    cur = func
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
        parts.reverse()
        return parts
    return []


def _is_reduction_call(node: ast.Call) -> str | None:
    chain = _call_name_chain(node.func)
    if not chain or chain[0] not in ("np", "numpy"):
        return None
    dotted = ".".join(chain)
    if len(chain) == 2 and chain[1] in _REDUCTION_NP:
        return dotted
    if chain[1:] == ["linalg", "norm"]:
        return dotted
    if len(chain) == 3 and chain[2] in _REDUCTION_UFUNC_METHODS:
        return dotted
    if chain[1] == "bincount" and any(k.arg == "weights" for k in node.keywords):
        return dotted + "(weights=...)"
    return None


def _guarded(ctx: FileContext, node: ast.AST) -> bool:
    for anc in ctx.ancestors(node):
        if isinstance(anc, ast.With):
            for item in anc.items:
                expr = item.context_expr
                if isinstance(expr, ast.Call):
                    chain = _call_name_chain(expr.func)
                    if chain and chain[-1] in _GUARD_NAMES:
                        return True
    return False


def check_rpr005(ctx: FileContext) -> list[Violation]:
    out = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _is_reduction_call(node)
        if dotted is None or _guarded(ctx, node):
            continue
        out.append(ctx.violation(
            node, "RPR005",
            f"{dotted} reduction outside an np.errstate / sanitize guard — "
            "NaN/Inf silently propagate; wrap the kernel in "
            "repro.analysis.sanitize.kernel_guard",
        ))
    return out


# ---------------------------------------------------------------------------
# RPR006 — uninstrumented solver entry points
# ---------------------------------------------------------------------------

#: module -> public entry points that must open spans / emit events
#: (the instrumentation contract of docs/observability.md)
ENTRY_POINTS = {
    "core/driver.py": ("solve_case",),
    "core/experiment.py": ("run_sweep",),
    "krylov/fgmres.py": ("fgmres",),
    "krylov/cg.py": ("cg",),
    "krylov/bicgstab.py": ("bicgstab",),
}

#: instrumentation evidence: a direct obs call, or delegation to a
#: ConvergenceMonitor (whose start/check emit krylov.* events)
_OBS_CALLS = ("span", "event", "tracing")
_MONITOR_CALLS = ("start", "check")


def _is_delegating_wrapper(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """A body of nothing but ``return other(...)`` — or an item of what it
    returns, ``return other(...)[i]`` — inherits the callee's
    instrumentation (e.g. ``fgmres``, the one-system case of the cycle)."""
    body = [
        stmt for stmt in fn.body
        if not (isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, str))
    ]
    if len(body) != 1 or not isinstance(body[0], ast.Return):
        return False
    value = body[0].value
    while isinstance(value, ast.Subscript):
        value = value.value
    return isinstance(value, ast.Call)


def _is_instrumented(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    if _is_delegating_wrapper(fn):
        return True
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        if func.attr in _OBS_CALLS and isinstance(func.value, ast.Name) \
                and func.value.id == "obs":
            return True
        if func.attr in _MONITOR_CALLS and isinstance(func.value, ast.Name) \
                and func.value.id == "mon":
            return True
    return False


def check_rpr006(ctx: FileContext) -> list[Violation]:
    required = ENTRY_POINTS.get(ctx.module)
    if not required:
        return []
    out = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name in required and not _is_instrumented(node):
            out.append(ctx.violation(
                node, "RPR006",
                f"public solver entry point {node.name}() has no span "
                "instrumentation — open obs.span / emit obs.event or "
                "delegate to a ConvergenceMonitor (docs/observability.md)",
            ))
    return out


# ---------------------------------------------------------------------------
# RPR007 — in-place CSR mutation without invariant re-check
# ---------------------------------------------------------------------------

_CSR_FIELDS = ("data", "indices", "indptr")
_RECHECK_CALLS = (
    "eliminate_zeros", "sort_indices", "sum_duplicates", "ensure_csr",
    "is_sorted_csr", "check_csr", "prune",
)


def _mutated_csr_field(target: ast.expr) -> str | None:
    """'data' when ``target`` is ``<x>.data[...]`` (or .indices/.indptr)."""
    if isinstance(target, ast.Subscript):
        target = target.value
    if isinstance(target, ast.Attribute) and target.attr in _CSR_FIELDS:
        return target.attr
    return None


def _has_recheck(scope: ast.AST) -> bool:
    for node in ast.walk(scope):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _RECHECK_CALLS:
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in _RECHECK_CALLS:
            return True
    return False


def check_rpr007(ctx: FileContext) -> list[Violation]:
    out = []
    for node in ast.walk(ctx.tree):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = [
                t for t in node.targets if isinstance(t, ast.Subscript)
            ]
        elif isinstance(node, ast.AugAssign) and isinstance(node.target,
                                                            ast.Subscript):
            targets = [node.target]
        for target in targets:
            fld = _mutated_csr_field(target)
            if fld is None:
                continue
            scope = ctx.enclosing_function(node) or ctx.tree
            if _has_recheck(scope):
                continue
            out.append(ctx.violation(
                node, "RPR007",
                f"in-place mutation of CSR .{fld} without an invariant "
                "re-check — call eliminate_zeros/sort_indices/ensure_csr "
                "(or assert is_sorted_csr) in the same function",
            ))
    return out


# ---------------------------------------------------------------------------
# RPR008 — real sleeps / raw process primitives outside the backend layer
# ---------------------------------------------------------------------------

#: the only layer allowed to block on wall-clock or spawn OS processes:
#: everywhere else, waits must be *simulated* (charged to the CostLedger)
#: and rank lifecycle must go through an ExecutionBackend, or determinism
#: and the cost model silently drift from reality
_RPR008_EXEMPT_PREFIX = "comm/backends/"


def check_rpr008(ctx: FileContext) -> list[Violation]:
    if ctx.module.startswith(_RPR008_EXEMPT_PREFIX):
        return []
    out = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root == "multiprocessing":
                    out.append(ctx.violation(
                        node, "RPR008",
                        "raw multiprocessing import outside "
                        "repro.comm.backends — rank processes must be "
                        "managed through an ExecutionBackend so the "
                        "supervisor sees every lifecycle event",
                    ))
                    break
            continue
        if isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            if root == "multiprocessing":
                out.append(ctx.violation(
                    node, "RPR008",
                    "raw multiprocessing import outside repro.comm.backends "
                    "— rank processes must be managed through an "
                    "ExecutionBackend so the supervisor sees every "
                    "lifecycle event",
                ))
            continue
        if not isinstance(node, ast.Call):
            continue
        chain = _call_name_chain(node.func)
        if chain[:2] == ["time", "sleep"]:
            out.append(ctx.violation(
                node, "RPR008",
                "bare time.sleep outside repro.comm.backends — simulated "
                "waits belong on the CostLedger (add_delay), real waits "
                "belong in the transport layer",
            ))
        elif chain and chain[0] == "multiprocessing":
            out.append(ctx.violation(
                node, "RPR008",
                f"raw {'.'.join(chain)} outside repro.comm.backends — use "
                "an ExecutionBackend for real rank processes",
            ))
    return out


# ---------------------------------------------------------------------------
# RPR009 — unbounded blocking calls in the solve service
# ---------------------------------------------------------------------------

#: blocking method names that accept a ``timeout=`` keyword on every
#: primitive the service layer uses (queue.Queue.get, threading.Event.wait,
#: Condition.wait, Thread.join, Connection.recv has poll(timeout) siblings)
_RPR009_BLOCKING_ATTRS = frozenset({"get", "wait", "join", "recv"})


def check_rpr009(ctx: FileContext) -> list[Violation]:
    """No unbounded waits in ``repro.service``.

    A service worker stuck in ``queue.get()`` or ``event.wait()`` with no
    timeout cannot observe drain, deadlines, or cancellation — the whole
    robustness contract hinges on every block being bounded.  The check is
    deliberately shallow: any ``x.get()`` / ``x.wait()`` / ``x.join()`` /
    ``x.recv()`` **with no arguments at all** is flagged; a positional
    argument (``"".join(parts)``, ``d.get(key)``, ``t.join(5.0)``) or an
    explicit ``timeout=`` keyword passes.  False-positive escapes go
    through the usual ``# repro: noqa(RPR009)``.
    """
    out = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        if func.attr not in _RPR009_BLOCKING_ATTRS:
            continue
        if node.args:
            continue  # positional form: a key/iterable/explicit wait bound
        if any(kw.arg == "timeout" for kw in node.keywords):
            continue
        out.append(ctx.violation(
            node, "RPR009",
            f".{func.attr}() without an explicit timeout in repro.service "
            "— every blocking call must be bounded so workers can observe "
            "drain, deadlines, and cancellation",
        ))
    return out


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

RULES: tuple[Rule, ...] = (
    Rule(
        "RPR001", "float-equality",
        "float ==/!= comparison against a float literal",
        scope=None, check=check_rpr001,
    ),
    Rule(
        "RPR002", "unordered-iteration",
        "iteration over a set/dict in order-sensitive layers",
        scope=("comm/", "distributed/", "precond/", "graph/"),
        check=check_rpr002,
    ),
    Rule(
        "RPR003", "raw-raise",
        "raw RuntimeError/ValueError mid-computation in solver/factor paths",
        scope=("krylov/", "factor/", "precond/", "resilience/"),
        check=check_rpr003,
    ),
    Rule(
        "RPR004", "unseeded-rng",
        "unseeded global RNG call",
        scope=None, check=check_rpr004,
    ),
    Rule(
        "RPR005", "unguarded-reduction",
        "NumPy reduction outside an errstate/fp guard in kernel/factor code",
        scope=("kernels/", "factor/"),
        check=check_rpr005,
    ),
    Rule(
        "RPR006", "uninstrumented-entry-point",
        "documented solver entry point without span instrumentation",
        scope=None, check=check_rpr006,
    ),
    Rule(
        "RPR007", "csr-mutation",
        "in-place CSR array mutation without invariant re-check",
        scope=None, check=check_rpr007,
    ),
    Rule(
        "RPR008", "real-wait-primitive",
        "bare time.sleep / raw multiprocessing outside repro.comm.backends",
        scope=None, check=check_rpr008,
    ),
    Rule(
        "RPR009", "unbounded-blocking-call",
        "blocking get/wait/join/recv without an explicit timeout in "
        "repro.service",
        scope=("service/",),
        check=check_rpr009,
    ),
)

RULES_BY_CODE = {rule.code: rule for rule in RULES}
