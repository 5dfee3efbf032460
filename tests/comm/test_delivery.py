"""The delivery round's contract, one table for every edge kind and backend.

Each scenario runs through the comm layer's real call sites — a DATA edge
via ``CommunicationPattern.exchange`` on the ``inprocess`` backend and on a
scripted real backend, and a CMD edge via ``compute.apply_factors`` on the
scripted backend — and must leave identical ``CommStats``, retry reasons and
fault class behind.  A DATA edge never reaches a backend: the round's
loopback answers it on either backend and its failures come from the fault
plan, so a script plays only the CMD edge.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro import faults, obs
from repro.comm import compute
from repro.comm.backends import ExecutionBackend, framing, worker
from repro.comm.backends.base import TransportBroken, TransportTimeout
from repro.comm.backends.supervisor import HeartbeatPolicy, RankSupervisor
from repro.comm.communicator import Communicator, RetryPolicy
from repro.comm.delivery import _loopback, deliver_round
from repro.comm.pattern import CommunicationPattern, ExchangeSpec
from repro.distributed.layout import Layout
from repro.factor.ilu0 import ilu0
from repro.resilience.errors import (
    FactorizationBreakdown,
    MessageCorruption,
    MessageTimeout,
    RankDeadError,
)

COMM_SRC = Path(__file__).resolve().parents[2] / "src" / "repro" / "comm"
POLICY = RetryPolicy(max_retries=2, timeout=1e-3)
ATTEMPTS = POLICY.max_retries + 1

#: the factor each rank's APPLY edge sweeps with, resident in the scripted
#: ranks from the start: rank -> (key, factorization)
RESIDENT = {
    rank: (f"resident-{rank}", ilu0(sp.diags(
        [-np.ones(n - 1), 4.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1],
        format="csr",
    )))
    for rank, n in ((0, 2), (1, 3))
}
#: a matrix resident beside them whose ILU(0) floors every pivot
SINGULAR = sp.csr_matrix((np.zeros(2), ([0, 1], [0, 1])), shape=(2, 2))


class ScriptedBackend(ExecutionBackend):
    """Real-looking ranks whose next replies are scripted per rank.

    ``script[rank]`` is consumed one step per request: ``timeout`` / ``nak``
    / ``garbled`` / ``broken`` / ``mislabelled`` (an error RESULT whose
    opcode byte names another op than the command's); once exhausted the
    rank answers like a rank process, with the executed command's RESULT.
    Supervision is the real :class:`RankSupervisor`, fenced like
    ``MultiprocessBackend``.
    """

    name = "scripted"
    is_real = True

    def __init__(self, size, script=None, fence_after=10):
        super().__init__(size)
        self.script = {r: list(steps) for r, steps in (script or {}).items()}
        self.supervisor = RankSupervisor(size, HeartbeatPolicy(fence_after=fence_after))
        for rank in range(size):
            self.supervisor.record_ready(rank)
        self.store = worker.SubdomainStore()
        self.store.factors.update({key: (fac, None) for key, fac in RESIDENT.values()})
        self.store.matrices["singular"] = SINGULAR

    def request_many(self, messages, timeout):
        return {r: self._reply(r, messages[r], timeout) for r in sorted(messages)}

    def _reply(self, rank, raw, timeout):
        steps = self.script.get(rank)
        step = steps.pop(0) if steps else "ok"
        frame = framing.decode_frame(raw)
        if step == "timeout":
            return TransportTimeout(rank, timeout)
        if step == "broken":
            self.supervisor.record_exit(rank, -9)
            return TransportBroken(rank, "scripted exit")
        if step == "garbled":
            return MessageCorruption("scripted garbled response", reason="checksum")
        if step == "nak":
            return framing.Frame(framing.NAK, frame.src, frame.dst, frame.seq, b"checksum")
        if step == "mislabelled":
            payload = worker.pack_command(
                worker.OP_LOAD_MATRIX, {"error": "scripted", "etype": "ValueError"}
            )
            return framing.Frame(framing.RESULT, frame.src, frame.dst, frame.seq, payload)
        return framing.Frame(
            framing.RESULT, frame.src, frame.dst, frame.seq,
            worker.execute(self.store, frame.payload),
        )

    def record_ready(self, rank):
        self.supervisor.record_ready(rank)

    def handle_timeout(self, rank):
        self.supervisor.record_miss(rank)
        if self.supervisor.should_fence(rank):
            self.supervisor.record_fenced(rank)
            self.supervisor.record_exit(rank, -9)
        return self.supervisor.state(rank)

    def classify(self, rank, **context):
        return self.supervisor.classify(rank, **context)


def _stats(**moved):
    return {"messages": 2, "retries": 0, "timeouts": 0, "checksum_failures": 0,
            "rank_dead": 0, "straggler_waits": 0, **moved}


#: name -> (scripted replies of rank 1, the in-process fault spec that plays
#: the same failure (None: a loopback cannot fail that way), expected stats,
#: expected retry reasons, expected fault class)
SCENARIOS = {
    "ok": ([], (), _stats(), [], None),
    "timeout-then-ok": (
        ["timeout"], ("message-drop", {"count": 1}),
        _stats(retries=1, timeouts=1), ["timeout"], None,
    ),
    "nak-then-ok": (
        ["nak"], ("message-corrupt", {"count": 1}),
        _stats(retries=1, checksum_failures=1), ["checksum"], None,
    ),
    # drift 2: a garbled RESULT used to escape a CMD round uncounted
    "garbled-then-ok": (
        ["garbled"], None,
        _stats(retries=1, checksum_failures=1), ["checksum"], None,
    ),
    "broken": (["broken"], None, _stats(rank_dead=1), [], RankDeadError),
    "timeout-exhausted": (
        ["timeout"] * ATTEMPTS, ("message-drop", {"count": -1}),
        _stats(retries=ATTEMPTS - 1, timeouts=ATTEMPTS),
        ["timeout"] * ATTEMPTS, MessageTimeout,
    ),
    # drift 3: a CMD round used to raise MessageTimeout here
    "checksum-exhausted": (
        ["nak"] * ATTEMPTS, ("message-corrupt", {"count": -1}),
        _stats(retries=ATTEMPTS - 1, checksum_failures=ATTEMPTS),
        ["checksum"] * ATTEMPTS, MessageCorruption,
    ),
    "simulated-dead-rank": (
        [], ("rank-dead", {"rank": 1}),
        _stats(retries=ATTEMPTS - 1, timeouts=ATTEMPTS, rank_dead=1),
        ["timeout"] * ATTEMPTS, RankDeadError,
    ),
}


def _events(tracer, name):
    evs = [e for e in tracer.orphan_events if e["name"] == name]
    for s in tracer.spans:
        evs.extend(e for e in s.events if e["name"] == name)
    return evs


def _data_edge(comm):
    """Ghost exchange 0->1 then 1->0; rank 1 receives the watched edge."""
    pattern = CommunicationPattern(num_ranks=2, transfers=[
        ExchangeSpec(0, 1, np.array([2]), np.array([0])),
        ExchangeSpec(1, 0, np.array([0]), np.array([1])),
    ])
    owned = [np.array([1.0, 2.0, 3.0]), np.array([10.0, 20.0])]
    ghost = [np.zeros(2), np.zeros(1)]
    pattern.exchange(comm, owned, ghost)
    assert ghost[1][0] == 3.0 and ghost[0][1] == 10.0


def _cmd_edge(comm):
    """A two-rank APPLY round; both ranks' sweeps must come back."""
    layout = Layout.from_sizes([2, 3])
    r = np.arange(5.0) + 1.0
    keys = {rank: key for rank, (key, _) in RESIDENT.items()}
    z = compute.apply_factors(
        comm, keys, layout, r,
        lambda rank: compute.load_factor(*RESIDENT[rank], None))
    want = [fac.solve(r[layout.local_slice(rank)]) for rank, (_, fac) in RESIDENT.items()]
    assert z.tobytes() == np.concatenate(want).tobytes()


EDGES = {
    "data-inprocess": ("inprocess", _data_edge),
    "data-real": ("scripted", _data_edge),
    "cmd-real": ("scripted", _cmd_edge),
}


@pytest.mark.parametrize("scenario,edge", [
    (scenario, edge)
    for scenario in sorted(SCENARIOS) for edge in sorted(EDGES)
    # the loopback cannot garble a response or exit
    if not (edge.startswith("data-") and SCENARIOS[scenario][1] is None)
])
def test_delivery_contract(scenario, edge):
    script, spec, stats, reasons, fault_cls = SCENARIOS[scenario]
    backend_name, run = EDGES[edge]
    simulated = scenario == "simulated-dead-rank"
    backend = backend_name
    data = edge.startswith("data-")
    if backend_name == "scripted":
        backend = ScriptedBackend(2, {} if simulated or data else {1: script})
    specs = []
    if spec and (simulated or data):
        specs = [faults.FaultSpec(spec[0], **spec[1])]
    comm = Communicator(2, retry_policy=POLICY, backend=backend)
    with obs.tracing() as tracer, faults.inject(faults.FaultPlan(specs)):
        if fault_cls is None:
            run(comm)
        else:
            with pytest.raises(fault_cls) as exc:
                run(comm)
            assert type(exc.value) is fault_cls
            assert exc.value.context["dst"] == 1
            # what the attempts cost goes to the ledger, not into the context
            assert not {"retransmits", "delay"} & set(exc.value.context)
            if edge == "cmd-real":
                assert exc.value.context["op"] == "apply"
                assert "apply" in str(exc.value)
            if fault_cls is RankDeadError:
                assert exc.value.rank == 1
                assert exc.value.status == "breakdown"
            else:
                assert exc.value.context["attempts"] == ATTEMPTS
                assert exc.value.status == "diverged"
    assert comm.comm_stats.as_dict() == stats
    retries = _events(tracer, "resilience.comm.retry")
    assert [e["attrs"]["reason"] for e in retries] == reasons
    assert [e["attrs"]["attempt"] for e in retries] == list(range(len(reasons)))
    ends = _events(tracer, "resilience.comm.rank_dead") + _events(
        tracer, "resilience.comm.give_up")
    if fault_cls is None:
        assert ends == []
    elif fault_cls is RankDeadError:
        assert [e["name"] for e in ends] == ["resilience.comm.rank_dead"]
    else:
        assert [e["attrs"]["reason"] for e in ends] == [reasons[-1]]
    if edge == "cmd-real":
        assert all(e["attrs"]["op"] == "apply" for e in retries + ends)


@pytest.mark.parametrize("run", [_data_edge, _cmd_edge])
def test_successful_delivery_resets_the_miss_count(run):
    """Drift 1: ``fence_after`` budgets *consecutive* misses.  A rank that
    times out once and then answers, round after round, stays READY; a
    dropped ghost transfer is answered by the loopback and never counts
    against the rank at all (before, the fourth such exchange SIGKILLed a
    healthy rank)."""
    backend = ScriptedBackend(2, fence_after=3)
    comm = Communicator(2, retry_policy=POLICY, backend=backend)
    for _ in range(4):
        if run is _cmd_edge:
            backend.script[1] = ["timeout"]
            run(comm)
        else:
            with faults.inject(faults.FaultPlan(
                    [faults.FaultSpec("message-drop", count=1)])):
                run(comm)
        record = backend.supervisor.records[1]
        assert (record.state, record.misses, record.fenced) == ("ready", 0, False)
    assert comm.comm_stats.timeouts == 4 and comm.comm_stats.rank_dead == 0


def test_give_up_keeps_the_supervisors_view_of_the_rank():
    backend = ScriptedBackend(2, {1: ["timeout"] * ATTEMPTS})
    comm = Communicator(2, retry_policy=POLICY, backend=backend)
    with pytest.raises(MessageTimeout, match="apply transfer 1->1") as exc:
        _cmd_edge(comm)
    assert exc.value.context == {
        "rank": 1, "misses": ATTEMPTS, "src": 1, "dst": 1, "seq": 0,
        "op": "apply", "attempts": ATTEMPTS,
    }


def test_worker_error_leaves_the_round_at_once():
    """A rank's typed error is not held back — or lost — while a peer burns
    the retry budget."""
    backend = ScriptedBackend(2, {0: ["timeout"] * ATTEMPTS})
    comm = Communicator(2, retry_policy=POLICY, backend=backend)
    meta = {"alg": "ilu0", "matrix_key": "singular", "factor_key": "f",
            "breakdown_frac": 0.0}
    with pytest.raises(FactorizationBreakdown, match="worker rank 1 failed factor"):
        compute.factor(comm, {0: meta, 1: meta}, {}, {})
    assert comm.comm_stats.as_dict() == _stats(timeouts=1)
    assert backend.supervisor.records[1].misses == 0


def test_worker_error_is_named_after_the_op_sent():
    """A reply's opcode byte never names the failure: rank 1 answers the
    APPLY with an error labelled ``load-matrix``, and the driver reports
    the op it sent."""
    backend = ScriptedBackend(2, {1: ["mislabelled"]})
    comm = Communicator(2, retry_policy=POLICY, backend=backend)
    with pytest.raises(compute.WorkerComputeError) as exc:
        _cmd_edge(comm)
    assert str(exc.value) == "worker rank 1 failed apply: scripted"


def test_consecutive_misses_still_fence():
    backend = ScriptedBackend(2, {1: ["timeout"] * ATTEMPTS}, fence_after=ATTEMPTS)
    comm = Communicator(2, retry_policy=POLICY, backend=backend)
    with pytest.raises(RankDeadError, match="fenced"):
        _cmd_edge(comm)
    assert backend.supervisor.records[1].fenced


class TestLoopback:
    """DATA edges are answered by the delivery round itself."""

    def test_loopback_answers_every_rank(self):
        comm = Communicator(3)
        sends = {r: ((r + 1) % 3, bytes([r]) * (r + 1)) for r in range(3)}
        got = {}
        deliver_round(comm, framing.DATA, sends,
                      settle=lambda edge: got.update({edge.dst: edge.frame}))
        assert sorted(got) == [0, 1, 2]
        for r, frame in got.items():
            assert frame.kind == framing.ACK
            assert (frame.src, frame.dst, frame.seq) == (sends[r][0], r, 0)
            assert frame.payload == sends[r][1]

    @pytest.mark.parametrize("garble,envelope,reason", [
        (lambda raw: raw[:-1] + bytes([raw[-1] ^ 0xFF]), (0, 1, 5), b"checksum"),
        (lambda raw: raw + b"x", (0, 1, 5), b"length-mismatch"),
        (lambda raw: raw[:4] + bytes([99]) + raw[5:], (0, 1, 5), b"bad-kind"),
        # an unreadable header is NAKed on the receiver's self-edge
        (lambda raw: raw[:framing.HEADER_SIZE - 1], (1, 1, 0), b"truncated"),
        (lambda raw: b"XXXX" + raw[4:], (1, 1, 0), b"bad-magic"),
        (lambda raw: framing.encode_frame(framing.PING, 0, 1, 5),
         (0, 1, 5), b"unexpected ping"),
        (lambda raw: framing.encode_frame(framing.CMD, 0, 1, 5, b"op"),
         (0, 1, 5), b"unexpected cmd"),
    ], ids=["checksum", "length-mismatch", "bad-kind", "truncated",
            "bad-magic", "ping", "cmd"])
    def test_loopback_naks_what_a_rank_would(self, garble, envelope, reason):
        """A garbled DATA frame is NAKed with the check that failed, and a
        frame of another kind as unexpected."""
        raw = framing.encode_frame(framing.DATA, 0, 1, 5, b"ghosts")
        nak = _loopback(1, garble(raw))
        assert (nak.kind, nak.src, nak.dst, nak.seq) == (framing.NAK, *envelope)
        assert nak.payload == reason

    @pytest.mark.parametrize("spec,fault_cls", [
        (None, None),
        (("message-drop", {"count": -1}), MessageTimeout),
        (("message-corrupt", {"count": -1}), MessageCorruption),
        (("rank-dead", {"rank": 1}), RankDeadError),
    ], ids=["clean", "dropped", "corrupted", "dead-rank"])
    def test_a_data_edge_never_reaches_the_backend(self, spec, fault_cls):
        """On a real backend a DATA edge calls none of ``request_many``,
        ``record_ready``, ``handle_timeout`` or ``classify``: a loopback
        ACK is no heartbeat, and a give-up is typed from the attempts."""
        backend = ScriptedBackend(2)
        for name in ("request_many", "record_ready", "handle_timeout", "classify"):
            setattr(backend, name, pytest.fail)
        comm = Communicator(2, retry_policy=POLICY, backend=backend)
        specs = [faults.FaultSpec(spec[0], **spec[1])] if spec else []
        with faults.inject(faults.FaultPlan(specs)):
            if fault_cls is None:
                _data_edge(comm)
            else:
                with pytest.raises(fault_cls):
                    _data_edge(comm)
        assert comm.comm_stats.messages == 2


class TestOneLoop:
    """Hygiene: the transport has one consumer and the package one retry loop."""

    @staticmethod
    def _trees():
        for path in sorted(COMM_SRC.rglob("*.py")):
            yield path.relative_to(COMM_SRC).as_posix(), ast.parse(path.read_text())

    def test_only_the_delivery_round_drives_the_transport(self):
        sites = set()
        for rel, tree in self._trees():
            for fn in ast.walk(tree):
                if not isinstance(fn, ast.FunctionDef):
                    continue
                for node in ast.walk(fn):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("request", "request_many")
                    ):
                        sites.add((rel, fn.name, node.func.attr))
        assert sites == {
            ("delivery.py", "deliver_round", "request_many"),
            ("backends/multiprocess.py", "probe", "request_many"),  # heartbeat
            ("compute.py", "run_chunk", "request_many"),  # one send, no retry
        }

    def test_exactly_one_retry_loop(self):
        loops = [
            rel
            for rel, tree in self._trees()
            for node in ast.walk(tree)
            if isinstance(node, (ast.For, ast.While, ast.comprehension))
            and "max_retries" in ast.unparse(getattr(node, "iter", None) or node.test)
        ]
        assert loops == ["delivery.py"]
