"""Smoke test of the benchmark itself, on tiny query lists:

    python3 -m pytest bench

Every workload runs untraced and traced with the same seed.  Both runs must
answer every query correctly, print every metric that BENCHMARK.json names,
and give the same answers_sha256.
"""

import json

import pytest

import run
import workloads

CONTRACT = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {"pairs-small": 36, "plain-large": 1, "memory-mid": 1}


def _run(capsys, workload: str, trace: int) -> tuple[int, dict, str]:
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.01", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    digest = next(line.split()[-1] for line in lines if "answers_sha256" in line)
    return code, json.loads(lines[-1]), digest


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_runs_correctly_and_reports_every_metric(capsys, monkeypatch, workload):
    monkeypatch.setitem(run.SIZES, workload, TINY[workload])
    monkeypatch.setattr(workloads, "PLAIN_LARGE_SCHEDULE", workloads.PLAIN_LARGE_SCHEDULE[:15])
    assert {w["name"] for w in CONTRACT["workloads"]} == set(run.WORKLOADS)

    code, plain, plain_digest = _run(capsys, workload, 0)
    assert code == 0
    assert (plain["correct"], plain["failed"]) == (True, 0)
    assert plain["attempted"] >= 1
    assert set(plain["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    code, traced, traced_digest = _run(capsys, workload, 1)
    assert code == 0
    assert (traced["correct"], traced["failed"]) == (True, 0)
    assert set(traced["metrics"]) == {m["name"] for m in CONTRACT["per_layer"]}
    assert traced_digest == plain_digest


def test_inputs_depend_only_on_the_seed():
    assert workloads.memory_mid(3, 1) == workloads.memory_mid(3, 1)
    assert workloads.pairs_small(3, 18) != workloads.pairs_small(4, 18)
