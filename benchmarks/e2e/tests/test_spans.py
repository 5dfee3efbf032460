"""Span arithmetic: children never exceed their parent."""

import json
import time

import pytest

from spans import SpanRecorder


def test_nesting_parents_ops_and_self_time():
    rec = SpanRecorder()
    with rec.span("op", op=5) as root:
        with rec.span("a"):
            time.sleep(0.002)
            with rec.span("b"):
                time.sleep(0.002)
        rec.wrap("c", time.sleep)(0.001)
    rows = rec.to_rows()
    assert [r["name"] for r in rows] == ["op", "a", "b", "c"]
    assert [r["parent"] for r in rows] == [-1, 0, 1, 0]
    assert {r["op"] for r in rows} == {5}
    selfs = rec.self_times()
    assert all(s >= 0 for s in selfs)
    assert selfs[0] == pytest.approx(rec.duration(0) - rec.duration(1) - rec.duration(3))
    assert selfs[1] == pytest.approx(rec.duration(1) - rec.duration(2))
    assert root.duration == rec.duration(0)
    totals = rec.totals_by(lambda op: op)
    assert set(totals) == {5} and totals[5]["a"]["calls"] == 1
    assert sum(t["self_s"] for t in totals[5].values()) == pytest.approx(rec.duration(0))
    assert set(rec.totals_by(lambda op: op // 7)) == {0}


def test_out_of_order_close_is_an_error():
    rec = SpanRecorder()
    outer = rec.open("outer")
    rec.open("inner")
    with pytest.raises(RuntimeError):
        rec.close(outer)


def test_wrap_closes_the_span_when_the_call_raises():
    rec = SpanRecorder()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        rec.wrap("boom", boom)()
    with rec.span("after"):
        pass
    assert [r["parent"] for r in rec.to_rows()] == [-1, -1]


def test_recorded_children_stay_inside_their_parents(smoke_traced):
    path = smoke_traced["path"]
    spans = json.loads(path.with_name(path.stem + ".spans.json").read_text())["workloads"]
    assert set(spans) == set(smoke_traced["file"]["workloads"])
    for name, rows in spans.items():
        covered = [0.0] * len(rows)
        for row in rows:
            assert row["end"] >= row["start"], (name, row)
            if row["parent"] >= 0:
                parent = rows[row["parent"]]
                assert parent["start"] <= row["start"] and row["end"] <= parent["end"], (name, row)
                assert row["op"] == parent["op"]
                covered[row["parent"]] += row["end"] - row["start"]
        if name != "service_closed":  # two client threads: siblings may overlap there
            for row, cov in zip(rows, covered):
                assert cov <= (row["end"] - row["start"]) * (1 + 1e-9) + 1e-9, (name, row)
        ops = {row["op"] for row in rows if row["name"] == "op"}
        assert ops == set(range(len(ops)))
