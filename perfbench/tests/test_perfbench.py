"""Tests of the benchmark itself: result gates, tracing, and the result
format. Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import layers
import run
import worker
from gammatri import cli, complexes, coxeter, poly, series, subdivisions
from gammatri.transforms import GammaTriangle
from spans import Tracer, self_times
from workloads import WORKLOADS, CliRun

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny_pass(workload, seed, hseed, mode, cpu):
    """A run_pass for run.main that stays in this process, at size tiny."""
    result = worker.MODES[mode](workload, seed, size="tiny")
    result.setdefault("setup_s", 0.0)
    return result


def last_json_line(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_pass_passes_its_gate(name):
    result = worker.timed_pass(name, seed=3, size="tiny")
    assert result["failed"] == 0, result["errors"]
    assert result["attempted"] > 0
    assert result["run_s"] > 0 and result["peak_rss_mb"] > 0


def test_inputs_are_a_function_of_the_seed():
    wl = WORKLOADS["diagram-sums"]
    first, again, other = wl.setup(5, "tiny"), wl.setup(5, "tiny"), wl.setup(6, "tiny")
    assert [d for _, d in first] == [d for _, d in again]
    assert [d for _, d in first] != [d for _, d in other]


def test_diagram_unions_alternate_repeated_and_distinct_types():
    for k, (components, dgm) in enumerate(WORKLOADS["diagram-sums"].setup(7, "full")):
        assert len(dgm.vertices) == sum(rank for _, rank, _ in components)
        assert len(dgm.vertices) in (10, 12, 14)
        assert len(components) >= 2
        assert (len(set(components)) < len(components)) == (k % 2 == 0)


def _drop_x_terms(h, rank):
    return GammaTriangle.make({(0, rank): 1}, rank)


def test_wrong_reference_counts_as_failed(monkeypatch):
    monkeypatch.setattr(coxeter, "rank23_formula", _drop_x_terms)
    result = worker.timed_pass("face-model", seed=3, size="tiny")
    # I2(3), I2(4), I2(5) have an x term; I2(2) does not
    assert result["failed"] == 3 and result["attempted"] == 7


def test_wrong_reference_makes_the_benchmark_exit_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(coxeter, "rank23_formula", _drop_x_terms)
    code = run.main(["--workload", "face-model", "--seed", "3", "--seconds", "0"],
                    run_pass=tiny_pass)
    result = last_json_line(capsys)
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] > 0


def test_verify_cli_gate_reads_the_table_output():
    wl = WORKLOADS["verify-cli"]
    failing = "suite: t\n  [PASS] a\n  [FAIL] b  (detail)\nsummary: 1/2 passed\n"
    out = wl.check((["verify"], 2), CliRun(1, failing, None))
    assert (out.attempted, out.failed) == (2, 1)
    short = "suite: t\n  [PASS] a\nsummary: 1/1 passed\n"
    out = wl.check((["verify"], 177), CliRun(0, short, None))
    assert (out.attempted, out.failed) == (177, 176)
    out = wl.check((["verify"], 1), CliRun(0, short, None))
    assert (out.attempted, out.failed) == (1, 0)


def test_self_times_on_a_synthetic_span_tree():
    spans = [("root", 0.0, 10.0, -1),
             ("a", 1.0, 4.0, 0), ("b", 2.0, 3.0, 1),
             ("a", 5.0, 9.0, 0), ("b", 6.0, 6.5, 3), ("b", 7.0, 8.0, 3)]
    stats = self_times(spans)
    assert stats["root"] == (1, pytest.approx(3.0))
    assert stats["a"] == (2, pytest.approx(4.5))
    assert stats["b"] == (3, pytest.approx(2.5))


def test_tracer_links_spans_to_their_parents():
    tracer = Tracer()
    inner = tracer.span("inner", lambda: 1)
    outer = tracer.span("outer", lambda: inner() + inner())
    assert outer() == 2
    spans = tracer.spans()
    assert [(name, parent) for name, _, _, parent in spans] == [
        ("outer", -1), ("inner", 0), ("inner", 0)]
    total = spans[0][2] - spans[0][1]
    assert sum(secs for _, secs in self_times(spans).values()) == pytest.approx(total)


def test_instrument_patches_every_binding_and_restores_it():
    face_set, diagram = complexes.face_set, coxeter.gamma_triangle_diagram
    make, mul, main = complexes.Complex.__dict__["make"], poly.Poly2.__mul__, cli.main
    with layers.instrument(Tracer()):
        assert subdivisions.face_set is complexes.face_set is not face_set
        assert series.gamma_triangle_diagram is coxeter.gamma_triangle_diagram
        assert coxeter.gamma_triangle_diagram is not diagram
        assert poly.Poly2.__mul__ is not mul and cli.main is not main
    assert subdivisions.face_set is complexes.face_set is face_set
    assert series.gamma_triangle_diagram is coxeter.gamma_triangle_diagram is diagram
    assert complexes.Complex.__dict__["make"] is make
    assert poly.Poly2.__mul__ is mul and cli.main is main


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_layer_metrics_are_nonzero_where_the_layer_dominates(name):
    result = worker.traced_pass(name, seed=3, size="tiny")
    assert result["failed"] == 0, result["errors"]
    dominant = [m for m, w in layers.METRICS
                if w == name and m not in layers.MEASURED_ELSEWHERE]
    assert dominant
    assert [m for m in dominant if not result["metrics"][m] > 0] == []


def test_traced_run_reports_every_per_layer_metric(capsys):
    code = run.main(["--workload", "series-identities", "--seed", "2",
                     "--seconds", "1", "--trace", "1"], run_pass=tiny_pass)
    result = last_json_line(capsys)
    assert code == 0 and result["correct"] is True
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["complexes.Complex.make.calls"] == 0
    assert metrics["cli.import_s"] > 0 and metrics["trace.run_s"] > 0


def test_timed_run_reports_every_end_to_end_metric(capsys):
    code = run.main(["--workload", "diagram-sums", "--seed", "2", "--seconds", "0"],
                    run_pass=tiny_pass)
    result = last_json_line(capsys)
    assert code == 0 and result["failed"] == 0 and result["attempted"] == 3 * 6
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]


def test_benchmark_json_matches_the_code():
    assert [m["name"] for m in SPEC["per_layer"]] == [m for m, _ in layers.METRICS]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {w for _, w in layers.METRICS} - {None} == set(WORKLOADS)


def test_without_the_package_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "face-model",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
