"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import random
import re

import pytest

import harness
import run
import tracing

harness.import_fprod()
harness.fill_caches()

import fprod.cli  # noqa: E402  (importable only once harness put src/ on the path)

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _spec() -> dict:
    return json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _op(workload: str, key: str) -> harness.Op:
    return next(op for op in harness.prepare(workload) if op.key == key)


def test_metric_names_match_the_spec_and_the_code():
    spec = _spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += list(run.END_TO_END) + [name for name, *_ in tracing.METRICS]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in tracing.METRICS
    ]
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)


def test_gate_fires_on_a_corrupted_expectation():
    expected = harness.load_expected()
    for workload, key in (("catalog", "verify E2.9"), ("construct", "construct f-filter sierpinski^8-pin1")):
        outcome = harness.run_op(_op(workload, key), fprod.cli.main)
        assert harness.gate(outcome, expected) is None
        for field, value in expected[key].items():
            corrupted = {**expected, key: {**expected[key], field: "corrupted" if value != "corrupted" else 0}}
            assert harness.gate(outcome, corrupted) is not None, field
        assert harness.gate(outcome, {}) == "no recorded result"


def test_gate_ignores_presentation_of_a_construction():
    outcome = harness.run_op(_op("construct", "construct f-topology discrete3^4-pin1"), fprod.cli.main)
    body = json.loads(outcome.stdout)
    body["report"]["base"].reverse()
    body["report"]["base"].append(body["report"]["base"][0])  # a redundant member
    reordered = harness.Outcome(outcome.op, outcome.exit_code, json.dumps(body), outcome.seconds)
    assert harness.gate(reordered, harness.load_expected()) is None
    body["report"]["base"] = [body["report"]["points"]]  # the indiscrete topology
    changed = harness.Outcome(outcome.op, outcome.exit_code, json.dumps(body), outcome.seconds)
    assert harness.gate(changed, harness.load_expected()) is not None


def test_no_wrapper_is_left_installed_after_tracing():
    import fprod.topology

    before = (fprod.cli.main, fprod.cli.f_topology, vars(fprod.topology.Topology)["is_open"])
    assert tracing.installed_wrappers() == []
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert fprod.cli.f_topology is not before[1]
        assert len(tracing.installed_wrappers()) > 100
        harness.run_pass([_op("catalog", "verify E2.9")], random.Random(0))
    finally:
        tracer.uninstall()
    assert tracing.installed_wrappers() == []
    assert (fprod.cli.main, fprod.cli.f_topology, vars(fprod.topology.Topology)["is_open"]) == before


def test_traced_counts_add_up():
    ops = [_op("catalog", "verify E2.9"), _op("catalog", "verify P2.1")]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = harness.run_pass(ops, random.Random(0))
    finally:
        tracer.uninstall()
    s = tracing.SpanSummary(tracer)
    metrics = tracing.pass_metrics(s, len(tracer.distinct), 0)
    assert metrics["verifier.instances"] == 2 + 270
    assert metrics["serialize.parse_instance.calls"] == 2 + 270
    assert 0 < metrics["fproduct.box_accept_share"] <= 1
    roots = [i for i in range(s.spans) if tracer.parent[i] == -1]
    assert [tracer.names[tracer.name_of[i]] for i in roots] == ["cli.main", "cli.main"]
    root_time = sum(tracer.end[i] - tracer.start[i] for i in roots)
    untimed = sum(tracer.end[i] - tracer.start[i] for i in range(s.spans) if tracer.names[tracer.name_of[i]] is None)
    assert sum(s.self_s.values()) + untimed == pytest.approx(root_time, rel=1e-9)
    assert harness.count_failures(result, harness.load_expected()) == 0


def test_seed_permutes_order_only():
    cheap = ("verify E2.9", "verify P2.10", "verify P2.5", "verify P4.3", "search hausdorff-for-all-filters")
    ops = [_op("catalog", key) for key in cheap]
    passes = [harness.run_pass(ops, random.Random(seed)) for seed in (1, 2)]
    orders = [[o.op.key for o in p.outcomes] for p in passes]
    assert orders[0] != orders[1] and sorted(orders[0]) == sorted(orders[1]) == sorted(cheap)
    reports = [
        {o.op.key: json.loads(o.stdout)["report"] for o in p.outcomes} for p in passes
    ]
    assert reports[0] == reports[1]


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_one_pass_smoke_run_reports_no_failures(workload, capsys):
    assert run.main(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert f"{workload} failed_share = 0 ratio" in "\n".join(lines)
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(harness.workload_ops(workload))
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
