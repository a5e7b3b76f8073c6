"""Smoke test of the benchmark at a tiny size (small corpus, small
EncoderConfig). Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import collections
import gzip
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import spec  # noqa: E402
from bench import run  # noqa: E402
from workloads import TINY, WORKLOADS, setup  # noqa: E402

from baitradar import model, nncore, training  # noqa: E402


def test_benchmark_json_matches_spec():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == spec.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spec.PER_LAYER


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace, tmp_path):
    originals = (nncore.lstm_forward, model.featurize_record, training.featurize_record,
                 model.BaitRadarModel.predict)
    result, report = run(workload, 3, 0.1, trace, TINY, tmp_path)
    assert result["correct"], report["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = spec.PER_LAYER if trace else spec.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert report["machine"]["numpy"] and report["machine"]["loadavg_end"]
    if trace:
        assert report["trace"]["not_found"] == []
        assert 0.5 < report["trace"]["coverage"] <= 1.0
        (span_file,) = tmp_path.glob("spans-*.jsonl.gz")
        _assert_every_featurization_traced(span_file, report["trace"])
        # the tracer put every function back
        assert originals == (nncore.lstm_forward, model.featurize_record,
                             training.featurize_record, model.BaitRadarModel.predict)
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _assert_every_featurization_traced(span_file, trace):
    """Outside set-up, featurize_record runs once per predict call and once
    per batch-scored record, and each of those calls has its span."""
    calls = collections.Counter()
    with gzip.open(span_file, "rt", encoding="utf-8") as fh:
        for line in fh:
            name, _, _, _, request = json.loads(line)
            calls[name, request.split("-")[0]] += 1
    assert calls["model.predict", "predict"] == trace["predict_calls"] > 0
    assert calls["model.featurize_record", "predict"] == trace["predict_calls"]
    assert calls["model.featurize_record", "batch"] == trace["batch_records"] > 0
    assert calls["model.featurize_record", "train"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_inputs_but_not_the_metric_set(workload, tmp_path):
    first, report_1 = run(workload, 1, 0.0, False, TINY, tmp_path)
    second, report_2 = run(workload, 2, 0.0, False, TINY, tmp_path)
    assert report_1["inputs"] != report_2["inputs"]
    assert first["metrics"].keys() == second["metrics"].keys()
    assert setup(workload, 1, TINY, tmp_path / "again").digest == report_1["inputs"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "train-full", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
