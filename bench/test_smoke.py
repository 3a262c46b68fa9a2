"""Smoke check of the benchmark itself at tiny sizes (about a minute).

    python3 -m pytest -q bench/test_smoke.py

Every workload runs untraced and traced on shrunken inputs. The check is on
the benchmark, not on the program's speed: each metric BENCHMARK.json names
is emitted with its unit, every output check passes, and in the traced run
the spans nest so that self times sum to the traced wall time.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

TINY = {
    "chain3-fit": {
        "structure": "chain3", "truth": "ifm", "truth_scale": 2.0,
        "n_baseline": 300, "n_regime": 60, "bins": 8, "truth_bins": 8, "hidden": 4,
        "truth_hidden": 4, "outcome_hidden": 4, "methods": ["ifm_direct", "ifm_ipw", "ridge"],
        "fit_steps": 2, "n_problems": 2, "outcome_steps": 5, "mc_samples": 100,
        "gibbs_n": 40, "gibbs_burn": 5, "gibbs_thin": 1, "truth_burn": 5, "truth_thin": 1,
    },
    "sachs-gibbs": {
        "structure": "sachs", "truth": "ifm", "n_baseline": 60, "n_regime": 20, "bins": 4,
        "truth_bins": 4, "hidden": 3, "truth_hidden": 3, "outcome_hidden": 3,
        "methods": ["ifm_direct", "ifm_ipw", "ridge"], "fit_steps": 1, "n_problems": 1,
        "outcome_steps": 5, "mc_samples": 40, "gibbs_n": 20, "gibbs_burn": 5,
        "gibbs_thin": 1, "truth_burn": 5, "truth_thin": 1,
    },
    "dream-covshift": {
        "structure": "dream", "truth": "dag", "n_baseline": 60, "n_regime": 20, "bins": 4,
        "hidden": 3, "outcome_hidden": 3, "dag_hidden": 3,
        "methods": ["ifm_direct", "ifm_ipw", "ifm_covshift", "dag_direct", "ridge"],
        "fit_steps": 1, "n_problems": 1, "outcome_steps": 3, "dag_steps": 3,
        "mc_samples": 40, "gibbs_n": 10, "gibbs_burn": 2, "gibbs_thin": 1,
    },
}

TINY_CLI = {
    "n_baseline": 80, "n_regime": 30, "target": "1,1,1,1", "bins": 4, "hidden": 3,
    "steps": 2, "batch": 20, "outcome_hidden": 3, "outcome_steps": 5, "nsamples": 20,
    "burn": 2, "alpha": 0.2, "nmc": 500,
}


def run_tiny(capsys, workload, trace, seed=3):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.01",
                     "--trace", str(trace)], configs=TINY, cli_sizes=TINY_CLI)
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(isinstance(v["value"], float | int) for v in res["metrics"].values())
    assert any(ln.startswith("env ") for ln in lines)
    # the accuracy figures, then the failed share
    assert [ln.split()[1] for ln in lines if ln.startswith("metric ")][-1] == "fail_frac"
    return res


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(capsys, workload):
    res = run_tiny(capsys, workload, 0)
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric_and_self_times_sum_to_wall(capsys, workload):
    run_tiny(capsys, workload, 1, seed=5)
    spans = json.loads((run.OUT / f"trace-{workload}-seed5.json").read_text())["spans"]
    self_t = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            self_t[s[3]] -= s[2] - s[1]
    roots = [i for i, s in enumerate(spans) if s[3] < 0]
    assert roots and all(spans[i][0].startswith("bench.") for i in roots)
    for i in roots:
        total = sum(t for t, s in zip(self_t, spans) if s[4] == spans[i][4])
        assert total == pytest.approx(spans[i][2] - spans[i][1], rel=1e-9, abs=1e-9)
    assert min(self_t) >= -1e-9
