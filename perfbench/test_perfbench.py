"""The benchmark's own tests.

    python3 -m pytest perfbench/test_perfbench.py

A tampered output must count as a failed pass, a toy-size run of every
workload must print every metric of BENCHMARK.json with its unit, and the
benchmark must refuse to run without the package's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS, config_key  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bump(terms: list[str], index: int) -> None:
    terms[index] = str(int(terms[index]) + 1)


# workload -> (output file, an edit that the independent cross-check must catch)
TAMPER = {
    "series-deep": ("m.json", lambda d: _bump(d["coeffs"], 3)),
    "series-weighted": ("seq.json", lambda d: _bump(d["terms"], 1)),
    "recurrence-long": ("est.json", lambda d: d.update(mu="6.7500000001")),
    "oracle-verify": ("report.json", lambda d: d.update(passed=False)),
}

# Layer functions each workload must reach through the span wrappers.
EXERCISED = {
    "series-deep": ["cli.main", "series.solve_half_pyramids", "series.series_pyramids",
                    "series.series_towers", "jsonio.series_to_json", "jsonio.dumps"],
    "series-weighted": ["series.solve_half_pyramids", "series.piece_count_sequence",
                        "jsonio.sequence_to_json"],
    "recurrence-long": ["series.coefficients_by_pieces", "recurrences.guess_recurrence",
                        "recurrences.extend_sequence", "asymptotics.estimate_asymptotics",
                        "jsonio.sequence_from_json", "jsonio.recurrence_from_json",
                        "jsonio.recurrence_to_json", "jsonio.estimate_to_json"],
    "oracle-verify": ["identities.verify_identities", "enumeration.count_towers",
                      "enumeration.weight_polynomial", "algebra.annihilating_polynomial",
                      "algebra.verify_annihilator", "recurrences.guess_recurrence",
                      "recurrences.verify_recurrence", "series.half_pyramid_rhs",
                      "jsonio.report_to_json"],
}


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tampered_output_counts_as_failed(name, tmp_path):
    workload = WORKLOADS[name]
    config = workload.toy
    digests = json.loads(run.EXPECTED.read_text(encoding="utf-8"))[config_key(workload, config)]
    meter = run.Meter(tmp_path, run.cli_env(), {workload.probe})
    clean = run.run_pass(workload, config, meter, digests, traced=False)
    assert clean.problems == []

    filename, edit = TAMPER[name]
    path = tmp_path / filename
    data = json.loads(path.read_text(encoding="utf-8"))
    edit(data)
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    problems = run.check_outputs(workload, config, tmp_path, digests)
    assert f"{filename} differs from its recorded digest" in problems
    assert len(problems) >= 2, "the independent cross-check missed the edit"

    wrong = dict(digests, **{filename: "0" * 64})
    assert run.run_pass(workload, config, meter, wrong, traced=False).problems


def _toy_run(name: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--toy",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_toy_run_prints_every_end_to_end_metric(name):
    metrics = _toy_run(name, 0)
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]
    }
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_toy_traced_run_prints_every_per_layer_metric(name):
    metrics = _toy_run(name, 1)
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]
    }
    for function in EXERCISED[name]:
        assert metrics[f"{function}.calls"]["value"] >= 1, function
        assert metrics[f"{function}.total_s"]["value"] > 0, function


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "series-deep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert out.stdout == ""
