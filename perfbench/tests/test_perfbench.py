"""Tests of the benchmark itself: inputs, payload checks and tracing.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
from fractions import Fraction

import checker
import run
import tracer
from workloads import WORKLOADS, Workload, h2_op, sweep_op

# The workloads shrunk to N = 2..3.
SMOKE = (
    Workload("h2-generic-n6", n=3, zero_counts=(0,)),
    Workload("h2-contracted-n6", n=3, zero_counts=(2, 3)),
    Workload("sweep-n1to4", sweep=(1, 2)),
)


def test_generator_is_deterministic_per_seed():
    for workload in WORKLOADS.values():
        assert workload.rounds(7, 4) == workload.rounds(7, 4)
    for name in ("h2-generic-n6", "h2-contracted-n6"):
        assert WORKLOADS[name].rounds(7, 4) != WORKLOADS[name].rounds(8, 4)


def test_generic_omegas_mix_signs_and_fractions():
    ops = [op for rnd in WORKLOADS["h2-generic-n6"].rounds(3, 24) for op in rnd]
    assert [op.family for op in ops[:2]] == ["su", "u"]
    for op in ops:
        assert len(op.omega) == 6 and all(v != 0 for v in op.omega)
        assert any(v < 0 for v in op.omega)
        assert any(v.denominator > 1 for v in op.omega)
        assert op.argv[-2] == "--"
    assert any(op.argv[-1].startswith("-") for op in ops)


def test_contracted_rounds_cover_every_zero_count():
    for rnd in WORKLOADS["h2-contracted-n6"].rounds(3, 8):
        zeros = sorted((op.family, sum(v == 0 for v in op.omega)) for op in rnd)
        assert zeros == [(f, z) for f in ("su", "u") for z in (4, 5, 6)]


def test_expected_dimension_follows_the_formulas():
    omega = (0, Fraction(-2, 3), 0, 0)
    assert checker.expected_dim_h2("su", omega) == 6
    assert checker.expected_dim_h2("u", omega) == 9


def _payload(op):
    cli = run.load_cli()
    code, payload = run.call(cli.main, op)
    assert code == 0
    return payload


def test_checker_accepts_a_real_payload_and_rejects_tampering():
    op = h2_op("u", (Fraction(0), Fraction(-1, 2), Fraction(0)))
    payload = _payload(op)
    assert checker.check(op, 0, payload, {}) == []
    assert checker.check(op, 1, payload, {}) != []
    digest = {op.key: checker.digest(payload)}
    assert checker.check(op, 0, payload, digest) == []
    assert checker.check(op, 0, payload.replace("\n", " \n", 1), digest) != []

    obj = json.loads(payload)
    obj["dim_h2"] += 1
    assert checker.check(op, 0, json.dumps(obj), {}) != []

    obj = json.loads(payload)
    rep = next(r for r in obj["representatives"] if "beta" in r)
    rep["beta"] = {"1,2": value for value in rep["beta"].values()}
    problems = checker.check(op, 0, json.dumps(obj), {})
    assert any("beta_12 off the zero set" in p for p in problems)

    obj = json.loads(payload)
    obj["cocycle_checks"][0]["ok"] = False
    assert checker.check(op, 0, json.dumps(obj), {}) != []


def test_checker_rejects_a_tampered_sweep():
    op = sweep_op("su", 1, 2)
    payload = _payload(op)
    assert checker.check(op, 0, payload, {}) == []
    obj = json.loads(payload)
    obj["passed"] -= 1
    assert checker.check(op, 0, json.dumps(obj), {}) != []
    obj = json.loads(payload)
    obj["cases"][-1]["dim_h2"] += 1
    assert checker.check(op, 0, json.dumps(obj), {}) != []


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    stats = run.latency_stats([float(i) for i in range(1, 41)])
    assert stats["tail"] == 30.0 and stats["tail_percentile"] == 75.0
    assert stats["p50"] == 20.5 and stats["samples"] == 40


def test_smoke_trace_records_every_span_and_counter(monkeypatch):
    monkeypatch.setenv("CKCOH_THREADS", "1")
    cli = run.load_cli()
    original = cli.verify_theorem
    seen_spans = set()
    nonzero = set()
    for workload in SMOKE:
        rounds = workload.rounds(0, 1)
        spans = tracer.Tracer()
        plain, traced = run.Loop(cli.main, rounds, {}), run.Loop(cli.main, rounds, {}, spans)
        run.measure([plain, traced], 0)
        assert cli.verify_theorem is original
        assert not plain.failures and not traced.failures
        assert len(traced.latencies) == len(rounds[0])
        assert spans.absent == []
        metrics, _ = run.per_layer(plain, traced, spans)
        assert set(metrics) == {name for name, _ in tracer.PER_LAYER}
        seen_spans.update(spans.names[k] for k in set(spans.name))
        nonzero.update(name for name, m in metrics.items() if m["value"] > 0)
    assert seen_spans == {span for _, _, span in tracer.TARGETS} | {tracer.ROOT}
    assert nonzero >= {name for name, _ in tracer.PER_LAYER} - {"trace.overhead"}


def test_a_removed_target_is_reported_absent(monkeypatch):
    run.load_cli()
    gone = ("ckcoh.cli", "removed_function", "cli.removed_function")
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (gone,))
    spans = tracer.Tracer()
    spans.install()
    spans.uninstall()
    assert spans.absent == ["ckcoh.cli.removed_function"]


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
