"""The four workloads and the checks on their outputs.

Three workloads call `simbench.run_benchmark(config, jobs=1)` in-process,
each sized so that one layer dominates its wall time (see README.md). The
fourth, `cli-sachs`, follows the README's command-line path on seeded
`sachs` CSVs, one `python -m regimecast.cli` process per command.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import numpy as np

from regimecast import cli, simbench
from regimecast.fileio import graph_to_dict, write_dataset_csv
from regimecast.model import RegimeDataset, RegimeVector

SCHEMAS = Path(simbench.__file__).resolve().parent / "schemas"

# methods are chosen so the direct and IPW estimators (and with them the
# density-ratio path) run on every in-process workload
IN_PROCESS = {
    # criterion-10 shape: one variable, ~8k rows, PLL fitting dominates
    "chain3-fit": {
        "structure": "chain3", "truth": "ifm", "truth_scale": 2.0,
        "n_baseline": 5000, "n_regime": 600, "bins": 16, "truth_bins": 16,
        "hidden": 12, "truth_hidden": 10, "outcome_hidden": 10,
        "methods": ["ifm_direct", "ifm_ipw", "ridge"],
        "fit_steps": 20, "n_problems": 2, "outcome_steps": 50,
        "mc_samples": 1000, "gibbs_n": 500, "gibbs_burn": 50, "gibbs_thin": 1,
        "truth_burn": 50, "truth_thin": 1,
    },
    # eleven variables, 20 bins, four-variable factors: Gibbs dominates
    "sachs-gibbs": {
        "structure": "sachs", "truth": "ifm",
        "n_baseline": 200, "n_regime": 60, "bins": 20, "truth_bins": 20,
        "hidden": 6, "truth_hidden": 6, "outcome_hidden": 8,
        "methods": ["ifm_direct", "ifm_ipw", "ridge"],
        "fit_steps": 2, "n_problems": 2, "outcome_steps": 30,
        "mc_samples": 200, "gibbs_n": 200, "gibbs_burn": 30, "gibbs_thin": 1,
        "truth_burn": 30, "truth_thin": 1,
    },
    # 45 scored pairs of knock-outs: outcome-net fits and refits dominate
    "dream-covshift": {
        "structure": "dream", "truth": "dag",
        "n_baseline": 400, "n_regime": 100, "bins": 10,
        "hidden": 8, "outcome_hidden": 10, "dag_hidden": 10,
        "methods": ["ifm_direct", "ifm_ipw", "ifm_covshift", "dag_direct", "ridge"],
        "fit_steps": 2, "n_problems": 2, "outcome_steps": 50, "dag_steps": 60,
        "mc_samples": 500, "gibbs_n": 20, "gibbs_burn": 10, "gibbs_thin": 1,
    },
}

SCORED = {"chain3": 2, "sachs": 11, "dream": 45}

CLI_SIZES = {
    "n_baseline": 400, "n_regime": 100, "target": "1,1,1,1", "bins": 20,
    "hidden": 6, "steps": 12, "batch": 100, "outcome_hidden": 10,
    "outcome_steps": 200, "nsamples": 60, "burn": 10, "alpha": 0.2,
    "nmc": 20000,
}


def _schema(name):
    with open(SCHEMAS / name) as fh:
        return jsonschema.Draft202012Validator(json.load(fh))


def _finite(v) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v)


class InProcess:
    """Repeated `run_benchmark` calls on one config, each checked."""

    def __init__(self, name, seed, configs=IN_PROCESS):
        self.config = dict(configs[name], seed=seed)
        self.schema = _schema("benchmark_report.json")
        self.first_body = None
        self.report = None

    def run(self) -> tuple:
        """One `run_benchmark` call; returns (wall seconds, CPU seconds)."""
        t0, c0 = time.perf_counter(), time.process_time()
        self.report = simbench.run_benchmark(self.config, jobs=1)
        return time.perf_counter() - t0, time.process_time() - c0

    def check(self) -> list:
        data = self.report.data
        problems = [f"report: {e.message}" for e in self.schema.iter_errors(data)]
        scored, test = len(data["scored_regimes"]), len(data["test_regimes"])
        want = SCORED[data["structure"]]
        if scored != want or len(data["unidentifiable"]) != test - want:
            problems.append(f"{scored} scored, {len(data['unidentifiable'])} unidentifiable; "
                            f"expected {want} of {test} scored")
        for pb in data["problems"]:
            for meth, entry in pb["methods"].items():
                if not all(_finite(v) for v in entry["estimates"].values()):
                    problems.append(f"problem {pb['problem']}: {meth} has a non-finite estimate")
        body = json.dumps({k: v for k, v in data.items() if k != "runtime_seconds"},
                          sort_keys=True)
        if self.first_body is None:
            self.first_body = body
        elif body != self.first_body:
            problems.append("report body differs from the first run of this invocation")
        return problems

    def accuracy(self) -> dict:
        """The report's mean pRMSE per density-model method: (value, unit)."""
        if self.report is None:
            return {}
        return {f"prmse.{meth}": (s["prmse_mean"], "Var(Y)")
                for meth, s in self.report.data["summary"].items() if meth != "ridge"}


class CliPath:
    """The README command sequence on seeded `sachs` CSVs from the DAG simulator."""

    LABELS = ("validate", "identify", "fit", "estimate_ipw", "estimate_direct", "conformal")

    def __init__(self, workdir: Path, seed: int, sizes=CLI_SIZES):
        self.dir = workdir
        self.seed = seed
        self.sizes = sizes
        self.cert_schema = _schema("certificate.json")
        self.estimate_schema = _schema("estimate.json")
        self.first_out = {}
        self.estimates = {}

    def generate(self) -> None:
        """Write graph, training regimes and per-regime CSVs, and compute the
        Monte Carlo ground truth for the target; none of this is timed."""
        sz = self.sizes
        bundle = simbench.builtin_structure("sachs")
        rng = np.random.default_rng(self.seed)
        truth = simbench.make_dag_truth(bundle, seed=int(rng.integers(2 ** 63)))
        outcome = simbench.make_outcome(truth, seed=int(rng.integers(2 ** 63)))
        noise = np.random.default_rng(int(rng.integers(2 ** 63)))
        manifest = {}
        for i, regime in enumerate(bundle.train):
            n = sz["n_baseline"] if regime.is_baseline() else sz["n_regime"]
            x = truth.sample(regime, n, seed=int(rng.integers(2 ** 63)))
            name = f"data_{i}.csv"
            write_dataset_csv(self.dir / name, bundle.ifm,
                              RegimeDataset(regime, x, outcome.draw(x, noise)))
            manifest[name] = list(regime.levels)
        (self.dir / "manifest.json").write_text(json.dumps(manifest))
        (self.dir / "graph.json").write_text(json.dumps(graph_to_dict(bundle.ifm)))
        (self.dir / "train.json").write_text(json.dumps([list(r.levels) for r in bundle.train]))

        target = RegimeVector(tuple(int(v) for v in sz["target"].split(",")))
        mean = outcome.mean(truth.sample(target, sz["nmc"], seed=int(rng.integers(2 ** 63))))
        self.mu_true = float(mean.mean())
        self.sd_y = float(np.sqrt(mean.var() + outcome.noise_sd ** 2))

    def argv(self, label) -> list:
        sz, d, s = self.sizes, self.dir, str(self.seed)
        data = ["--data-manifest", str(d / "manifest.json")]
        model = ["--model", str(d / "model.json")] + data + ["--target", sz["target"]]
        chain = ["--nsamples", str(sz["nsamples"]), "--burn", str(sz["burn"]), "--thin", "1"]
        return {
            "validate": ["validate", "--graph", str(d / "graph.json")] + data,
            "identify": ["identify", "--graph", str(d / "graph.json"),
                         "--train", str(d / "train.json"), "--target", sz["target"]],
            "fit": ["fit", "--graph", str(d / "graph.json")] + data + [
                "--out", str(d / "model.json"), "--seed", s, "--bins", str(sz["bins"]),
                "--hidden", str(sz["hidden"]), "--steps", str(sz["steps"]),
                "--batch", str(sz["batch"]), "--outcome-out", str(d / "outcome.json"),
                "--outcome-hidden", str(sz["outcome_hidden"]),
                "--outcome-steps", str(sz["outcome_steps"])],
            "estimate_ipw": ["estimate"] + model + ["--method", "ipw"],
            "estimate_direct": ["estimate"] + model + [
                "--method", "direct", "--outcome", str(d / "outcome.json"), "--seed", s] + chain,
            "conformal": ["conformal"] + model + [
                "--alpha", str(sz["alpha"]), "--seed", s, "--hidden", str(sz["outcome_hidden"]),
                "--steps", str(sz["outcome_steps"])] + chain,
        }[label]

    def run_process(self, label, env):
        """One command as its own interpreter; returns (wall seconds, CPU
        seconds of the child, exit code, stdout)."""
        c0 = os.times()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "regimecast.cli"] + self.argv(label),
                              cwd=self.dir, env=env, capture_output=True, text=True,
                              timeout=60)
        wall = time.perf_counter() - t0
        c1 = os.times()
        cpu = c1.children_user - c0.children_user + c1.children_system - c0.children_system
        if proc.returncode != 0:
            print(f"{label}: exit {proc.returncode}: {proc.stderr.strip()}", file=sys.stderr)
        return wall, cpu, proc.returncode, proc.stdout

    def run_in_process(self, label):
        """One command through `cli.main`; returns (wall seconds, CPU seconds,
        exit code, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        t0, c0 = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(self.argv(label))
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if code != 0:
            print(f"{label}: exit {code}: {err.getvalue().strip()}", file=sys.stderr)
        return wall, cpu, code, out.getvalue()

    def check(self, label, code, stdout) -> list:
        if code != 0:
            return [f"{label}: exit code {code}"]
        try:
            obj = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return [f"{label}: output is not JSON ({exc})"]
        problems = []
        if label == "validate":
            if not obj.get("ok") or obj.get("n_datasets") != 5:
                problems.append("validate: expected ok with 5 datasets")
        elif label == "identify":
            problems += [f"identify: {e.message}" for e in self.cert_schema.iter_errors(obj)]
            if obj.get("identifiable") is not True:
                problems.append("identify: target not certified")
        elif label == "fit":
            if not (_finite(obj.get("objective_start")) and _finite(obj.get("objective_end"))):
                problems.append("fit: non-finite objective")
        elif label.startswith("estimate"):
            problems += [f"{label}: {e.message}" for e in self.estimate_schema.iter_errors(obj)]
            if not (_finite(obj.get("mu_hat")) and _finite(obj.get("se"))):
                problems.append(f"{label}: non-finite estimate")
            else:
                self.estimates[label] = obj["mu_hat"]
        elif label == "conformal":
            if not (_finite(obj.get("center")) and _finite(obj.get("half_width"))):
                problems.append("conformal: non-finite band")
        if label in self.first_out and self.first_out[label] != stdout:
            problems.append(f"{label}: output differs from the first pass")
        self.first_out.setdefault(label, stdout)
        return problems

    def accuracy(self) -> dict:
        """|mu_hat - mu_true| / sd(Y) per estimate that succeeded: (value, unit)."""
        return {f"cli.err_{label.split('_')[1]}": (abs(mu - self.mu_true) / self.sd_y, "sd(Y)")
                for label, mu in self.estimates.items()}
