"""Tests of the benchmark itself (not collected by the package's suite).

    python3 -m pytest -q bench/test_bench.py
"""

import contextlib
import importlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402
from sectormagic.harness import cli  # noqa: E402


def _run_calls(calls):
    for call in calls:
        with open(call["stdout"], "w") as out, \
                contextlib.redirect_stdout(out):
            assert cli.main(call["argv"]) == 0
    return {p: Path(p).read_text()
            for call in calls for p in [call["stdout"], *call["files"]]}


@pytest.fixture(scope="module")
def sample_outputs(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("sample")
    params = wl.inputs("sample_sector", 7)
    calls = wl.calls("sample_sector", params, 1, outdir)
    return calls[0], _run_calls(calls)


def test_checker_accepts_real_outputs(sample_outputs):
    call, texts = sample_outputs
    assert wl.check("sample_sector", call, texts, wl.load_reference()) == []


@pytest.mark.parametrize("field, factor", [("mean", 1.5), ("count", 2)])
def test_checker_rejects_corrupted_summary(sample_outputs, field, factor):
    call, texts = sample_outputs
    summary_path = call["files"][1]
    summary = json.loads(texts[summary_path])
    summary["sectors"]["2"]["observed"]["xi2"][field] *= factor
    corrupted = dict(texts)
    corrupted[summary_path] = json.dumps(summary)
    corrupted[call["stdout"]] = json.dumps(summary)
    assert wl.check("sample_sector", call, corrupted,
                    wl.load_reference())


def test_checker_rejects_wrong_rational(tmp_path):
    params = {"cli_seed": 1, "sectors": [[64, 2]], "theta": "0.3"}
    call = wl.calls("exact_moments", params, 1, tmp_path)[0]
    texts = _run_calls([call])
    assert wl.check("exact_moments", call, texts, wl.load_reference()) == []
    payload = json.loads(texts[call["stdout"]])
    payload["variance_xi2"] = payload["variance_xi2"].replace("1", "2", 1)
    texts[call["stdout"]] = json.dumps(payload)
    assert wl.check("exact_moments", call, texts, wl.load_reference())


def test_seed_changes_inputs():
    for name in wl.WORKERS:
        assert wl.inputs(name, 3) == wl.inputs(name, 3)
        assert len({json.dumps(wl.inputs(name, s)) for s in range(8)}) == 8


def _originals():
    targets = [t[:2] for t in tracer.SPAN_TARGETS]
    targets += [t[:2] for t in tracer.COUNT_TARGETS]
    return {(m, a): getattr(importlib.import_module(m), a)
            for m, a in targets}


def test_span_wrappers_restore_module_attributes():
    before = _originals()
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            during = _originals()
            assert all(during[k] is not v for k, v in before.items())
            raise RuntimeError("leave the traced block early")
    after = _originals()
    assert all(after[k] is v for k, v in before.items())


def test_layer_self_times_add_up_to_work(tmp_path):
    params = {"cli_seed": 5, "sectors": [[8, 2]], "theta": "0.3"}
    calls = wl.calls("exact_moments", params, 1, tmp_path)
    with tracer.Tracer() as t:
        _run_calls(calls)
    metrics, work, layer_self = tracer.layer_metrics(t.spans, t.counts, 1)
    assert set(metrics) | {"trace.overhead_s"} == set(tracer.LAYER_METRICS)
    assert sum(layer_self.values()) == pytest.approx(work, rel=1e-9)
    assert metrics["kravchuk.calls"] > 0
    assert metrics["harness.records"] == 2


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKERS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: v[0] for k, v in tracer.LAYER_METRICS.items()}


def test_refuses_to_run_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "pe_check", "--seed", "1",
                     "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
