"""Declared metrics: well-formed names, all emitted, BENCHMARK.json in step."""

import json
import re
import statistics

import pytest

import compare
import engine
import host
from workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _bench():
    return json.loads((host.REPO / "BENCHMARK.json").read_text())


def test_names_and_units_are_well_formed():
    for table in (engine.END_TO_END, engine.PER_LAYER):
        for name, (unit, better) in table.items():
            assert NAME.fullmatch(name), name
            assert UNIT.fullmatch(unit), (name, unit)
            assert better in ("lower", "higher")
    assert not set(engine.END_TO_END) & set(engine.PER_LAYER)


def test_benchmark_json_matches_the_harness():
    bench = _bench()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        assert w["why"] == WORKLOADS[w["name"]].why
    for key, table in (("end_to_end", engine.END_TO_END), ("per_layer", engine.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in bench[key]}
        assert declared == table
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 <= m["bound"] <= 0.25
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in bench["end_to_end"])
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}


def test_every_end_to_end_metric_is_a_number_on_every_workload(smoke_untraced):
    workloads = smoke_untraced["file"]["workloads"]
    assert list(workloads) == list(WORKLOADS)
    for name, result in workloads.items():
        assert list(result["metrics"]) == list(engine.END_TO_END) + list(compare.ALL_OPS), name
        for metric, value in result["metrics"].items():
            assert isinstance(value, (int, float)) and value > 0, (name, metric, value)
        assert result["failed"] == 0 and result["metrics"]["ok_frac"] == 1.0


def test_all_op_timings_are_taken_over_every_op_of_the_run(smoke_untraced):
    for name, result in smoke_untraced["file"]["workloads"].items():
        walls = [op["wall_s"] for op in result["ops"]]
        metrics = result["metrics"]
        assert len(walls) == result["attempted"]
        assert metrics["core.op_p50_s"] == pytest.approx(statistics.median(walls)), name
        assert min(walls) <= metrics["core.op_p50_s"] <= metrics["core.op_p90_s"] <= max(walls)
        assert metrics["core.solves_per_s"] == pytest.approx(len(walls) / result["loop_s"])
        # closed loop: the op loop cannot end before each client's ops have
        assert result["loop_s"] >= sum(walls) / WORKLOADS[name].clients
        # the quiet cycle is made of real ops, each the best of its position
        assert min(walls) <= metrics["quiet_op_p50_s"] <= metrics["quiet_op_p90_s"] <= max(walls)
        assert metrics["quiet_solves_per_s"] >= metrics["core.solves_per_s"]


def test_the_quiet_cycle_takes_the_least_wall_per_position():
    from pipeline import Solved
    from workloads import Op

    walls = [3.0, 1.0, 2.0, 0.5, 2.5, 4.0]   # two cycles of three positions
    records = [engine.Record(Op(i, "k", 0), Solved(None, 1, "converged", wall=wall), [])
               for i, wall in enumerate(walls)]
    assert engine.quiet_cycle(records, 3) == [0.5, 1.0, 2.0]


def test_every_per_layer_metric_is_emitted_or_null_with_a_reason(smoke_traced):
    for name, result in smoke_traced["file"]["workloads"].items():
        assert list(result["metrics"]) == list(engine.PER_LAYER), name
        for metric, value in result["metrics"].items():
            if value is None:
                assert result["notes"][metric], (name, metric)
            else:
                assert isinstance(value, (int, float)), (name, metric, value)
        assert result["equivalent"] and not result["failures"], result["failures"]
    service = smoke_traced["file"]["workloads"]["service_closed"]["metrics"]
    assert all(service[m] is not None for m in engine.PER_LAYER if m.startswith("service."))
    for name, result in smoke_traced["file"]["workloads"].items():
        for metric in engine.MP_ONLY:
            value = result["metrics"][metric]
            assert (value > 0) if name == "mp_ranks" else (value is None), (name, metric)


def test_contract_line_has_exactly_the_four_keys(smoke_untraced, smoke_traced):
    for run, declared in ((smoke_untraced, engine.END_TO_END), (smoke_traced, engine.PER_LAYER)):
        line = run["line"]
        assert {key.split(".", 1)[1] for key in line["metrics"]} == set(declared)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
        for metric in line["metrics"].values():
            assert set(metric) == {"value", "unit"}
            assert isinstance(metric["value"], (int, float))


def test_output_is_labelled_with_scale_and_host(smoke_untraced):
    fingerprint = smoke_untraced["file"]["host"]
    assert fingerprint["scale"] == "smoke" and fingerprint["seed"] == 0
    for key in ("cores_available", "cpu_model", "python", "numpy", "scipy",
                "kernel_tier", "git_commit"):
        assert fingerprint[key] not in (None, "")


def test_exact_counts_repeat_for_the_same_seed(smoke_traced, tmp_path):
    from conftest import run_cli

    out = tmp_path / "again.json"
    proc = run_cli("--scale", "smoke", "--trace", "1", "--workload", "mp_ranks",
                   "--out", str(out))
    assert proc.returncode == 0, proc.stderr[-2000:]
    again = json.loads(out.read_text())["workloads"]["mp_ranks"]["metrics"]
    first = smoke_traced["file"]["workloads"]["mp_ranks"]["metrics"]
    for metric in ("krylov.iterations", "graph.edge_cut", "comm.messages",
                   "comm.bytes", "comm.allreduces", "perfmodel.sim_s",
                   "precond.setup_flops", "krylov.dot_calls"):
        assert again[metric] == first[metric], metric
