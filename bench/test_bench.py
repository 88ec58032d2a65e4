"""Self-tests of the benchmark: tracer, correctness gate and BENCHMARK.json.

Run from the root of a checkout: ``python3 -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gate  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import ALL_EXPERIMENTS, PROGRAM_SEEDS, WORKLOADS, program_seed  # noqa: E402

from matpowlab import catmap, counting, ffield, matgrp  # noqa: E402
from matpowlab.errors import BudgetExceeded  # noqa: E402
from matpowlab.harness import ExperimentConfig, runner  # noqa: E402

TINY = [ExperimentConfig(name, p_min=5, p_max=13) for name in ALL_EXPERIMENTS]


def _run(configs, out):
    for cfg in configs:
        runner.run_experiment(replace(cfg, out=str(out)))
    return {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}


def test_traced_outputs_identical_and_wrappers_removed(tmp_path):
    original = counting.count_Q
    methods = (dict(vars(ffield.FFElem)), dict(vars(ffield.FieldCtx)),
               dict(vars(matgrp.MatEntity)))
    plain = _run(TINY, tmp_path / "plain")
    with tracing.Tracer(BudgetExceeded) as rec:
        assert catmap.count_Q is not original
        assert ffield.FFElem.__mul__ is not methods[0]["__mul__"]
        traced = _run(TINY, tmp_path / "traced")
    assert traced == plain
    assert tracing.leftover_wrappers() == []
    assert counting.count_Q is original and catmap.count_Q is original
    assert (dict(vars(ffield.FFElem)), dict(vars(ffield.FieldCtx)),
            dict(vars(matgrp.MatEntity))) == methods
    assert len(rec.start) > 0


def test_nested_calls_get_spans_and_self_times_add_up(tmp_path):
    with tracing.Tracer(BudgetExceeded) as rec:
        _run(TINY, tmp_path)
    names = [rec.names[i] for i in rec.name_id]
    nested = [i for i, name in enumerate(names) if name == "counting.count_Q"
              and names[rec.parent[i]] == "catmap.matrix_element_check"]
    assert nested
    roots = [i for i, parent in enumerate(rec.parent) if parent < 0]
    assert {names[i] for i in roots} == {"harness.run_experiment"}
    root_time = sum(rec.end[i] - rec.start[i] for i in roots)
    assert abs(rec.total_self_s() - root_time) < 1e-9 * max(1.0, root_time)
    # Every span inside a grid instance carries that instance's id.
    for i, name in enumerate(names):
        if name.startswith("catmap."):
            assert rec.instance_experiment[rec.instance[i]] in ("catmap", "lemma81")


def test_budget_skips_count_each_cap_once(tmp_path):
    cfg = ExperimentConfig("energy", p_min=5, p_max=13, budget=1e-9)
    with tracing.Tracer(BudgetExceeded) as rec:
        _run([cfg], tmp_path)
    rows = list(csv.DictReader(io.StringIO((tmp_path / "energy.csv").read_text())))
    skipped = sum(row["status"] == "skipped" for row in rows)
    assert skipped > 0
    assert rec.counters["counting.budget_skips"] == skipped


def test_field_and_matrix_arithmetic_is_charged_to_its_layer(tmp_path):
    cfg = ExperimentConfig("kloosterman", p_min=5, p_max=13)
    with tracing.Tracer(BudgetExceeded) as rec:
        _run([cfg], tmp_path)
        assert ffield.make_field(5).zero == ffield.make_field(5).elem(0)
        assert matgrp.MatEntity.identity(ffield.make_field(5), 2).is_identity()
    metrics = tracing.layer_metrics(rec, ["kloosterman"])
    spans = sum(rec.names[i].startswith("ffield.") for i in rec.name_id)
    assert rec.methods["ffield.FFElem.__mul__"][0] > 0
    assert rec.methods["ffield.FieldCtx.zero"][0] > 0
    assert rec.methods["matgrp.MatEntity.identity"][0] > 0
    assert metrics["ffield.calls"] > spans
    assert metrics["ffield.self_s"] > sum(rec.own[i] for i, n in enumerate(rec.name_id)
                                          if rec.names[n].startswith("ffield."))


def test_work_counters_come_from_results(tmp_path):
    cfg = ExperimentConfig("curves", p_min=5, p_max=7, s_max=1)
    with tracing.Tracer(BudgetExceeded) as rec:
        _run([cfg], tmp_path)
    metrics = tracing.layer_metrics(rec, ["curves"])
    # Per p: s = 1 over F_p and the extension row over F_{p^2}, two samples each.
    assert metrics["curves.grid_cells"] == sum(2 * (p**2 + p**4) for p in (5, 7))


def _csv(rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return gate.read_rows(buf.getvalue())


def test_gate_compares_under_the_behaviour_contract():
    header = list(gate.COLUMNS)
    row = ["energy", "5", "5", "2", "1", "split", "3", "1", "energy2", "15", "0",
           "15", "three-tau-squared", "27", "0.555555555556", "pass", "0"]
    want = _csv([header, row])
    assert gate.compare_rows(want, want) == []
    nudged = row[:9] + ["15.000000000001"] + row[10:]
    assert gate.compare_rows(_csv([header, nudged]), want) == []
    moved = row[:9] + ["15.0001"] + row[10:]
    assert gate.compare_rows(_csv([header, moved]), want)
    retagged = row[:15] + ["fail"] + row[16:]
    assert gate.compare_rows(_csv([header, retagged]), want)
    assert gate.compare_rows(_csv([header]), want)
    # A component is compared relative to the magnitude of its complex value.
    real = row[:9] + ["15", "1e-15"] + row[11:]
    assert gate.compare_rows(_csv([header, real]), _csv([header, row])) == []
    imag = row[:9] + ["15", "1e-6"] + row[11:]
    assert gate.compare_rows(_csv([header, imag]), want)


def test_gate_compares_round_off_residuals_absolutely():
    header = list(gate.COLUMNS)
    row = ["catmap", "7", "7", "2", "3", "split", "8", "", "unitary-deviation",
           "5.6e-15", "0", "5.6e-15", "tolerance", "1e-09", "5.6e-06", "pass", "0"]
    want = _csv([header, row])
    wobble = row[:9] + ["7.1e-15", "0", "7.1e-15"] + row[12:14] + ["7.1e-06"] + row[15:]
    assert gate.compare_rows(_csv([header, wobble]), want) == []
    grown = row[:9] + ["5e-09", "0", "5e-09"] + row[12:14] + ["5"] + row[15:]
    assert gate.compare_rows(_csv([header, grown]), want)
    failed = row[:15] + ["fail"] + row[16:]
    assert gate.compare_rows(_csv([header, failed]), want)


def test_gate_reports_seeds_without_reference_as_unchecked(tmp_path):
    workload = "small-grid"
    _run([replace(cfg, seed=987654) for cfg in TINY], tmp_path)
    report = gate.check_outputs(workload, 987654, str(tmp_path), ALL_EXPERIMENTS)
    assert "sums" in report["unchecked"] and "sums" not in report["checked"]
    assert set(report["checked"]) | set(report["unchecked"]) == set(ALL_EXPERIMENTS)
    assert not report["passed"]


def test_every_benchmark_seed_has_references():
    assert {program_seed(seed) for seed in range(-20, 40)} == set(PROGRAM_SEEDS)
    for workload, runs in WORKLOADS.items():
        for seed in PROGRAM_SEEDS:
            for name, _, _ in runs:
                assert gate.reference_path(workload, seed, name), (workload, seed, name)


def test_benchmark_json_matches_the_benchmark(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    with tracing.Tracer(BudgetExceeded) as rec:
        _run(TINY, tmp_path)
    produced = set(tracing.layer_metrics(rec, ALL_EXPERIMENTS))
    produced |= {"trace.overhead_frac", "trace.unattributed_s"}
    declared = {m["name"] for m in spec["per_layer"]}
    assert declared == produced
    for metric in spec["per_layer"] + spec["end_to_end"]:
        assert run._unit(metric["name"]) == metric["unit"], metric
