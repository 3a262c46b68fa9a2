"""The benchmark wraps package functions by name and drives the command line
and `run_benchmark` with fixed arguments; a rename or a dropped option breaks it."""

import hashlib
import importlib.util
import inspect
import json
from pathlib import Path

import pytest

from regimecast import cli, simbench

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    """One `bench/` module, loaded by file path."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves_to_a_callable():
    targets = load_bench("spans")._targets()
    assert targets
    for owner, attr, name, _after in targets:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr}"


def test_count_hooks_find_the_parameters_they_read():
    fns = {name: getattr(owner, attr) for owner, attr, name, _ in load_bench("spans")._targets()}
    reads = {
        "energy.fit": {"datasets", "steps"},
        "sampling.gibbs_sample": {"model", "n", "burn", "thin"},
        "estimators.fit_outcome": {"steps"},
    }
    for name, params in reads.items():
        missing = params - set(inspect.signature(fns[name]).parameters)
        assert not missing, f"{name} lacks {missing}"
    # the forward and backward hooks read x as the second positional argument
    for name in ("nets.mlp_forward", "nets.mlp_backward"):
        assert list(inspect.signature(fns[name]).parameters)[1] == "x"


def test_every_workload_argv_and_config_is_accepted(tmp_path):
    # a dropped flag or config key fails here, not as a lower ok_frac in the benchmark
    workloads = load_bench("workloads")
    path = workloads.CliPath(tmp_path, seed=5)
    parser = cli.build_parser()
    for label in workloads.CliPath.LABELS:
        args = parser.parse_args(path.argv(label))
        assert args.command == path.argv(label)[0], label
    for name, config in workloads.IN_PROCESS.items():
        assert simbench.resolve_config(dict(config, seed=5))["seed"] == 5, name


# sha256 of each in-process workload's report body (`data` without
# `runtime_seconds`, `json.dumps(..., sort_keys=True)`) at seeds 5 and 101
BODY_SHA256 = {
    ("chain3-fit", 5): "145029a307db6c51ea834d112f74058ea8f65bb1faf8ef87168832469cdace64",
    ("chain3-fit", 101): "f365ad7b6397ea80aff92dbdbb19a09b64567b90892ca57dc2b39c438eaadb00",
    ("sachs-gibbs", 5): "611af331392f47db98bc387826cb5238c41796a92f0279c13809f684d4193016",
    ("sachs-gibbs", 101): "e18e8cba80bec4e0e0f6f2c305b92dea54e748541a948ad4fce7fd0870a70e3a",
    ("dream-covshift", 5): "0296b0907a41433f488ed681cbd6a1fb4a8d6c5232e1768a79ebcf7af4d31e86",
    ("dream-covshift", 101): "f737121139e2f0ce260466412099f4cc0d932b19bcd92d836e9f1454ef97b52b",
}


@pytest.mark.parametrize("name, seed", sorted(BODY_SHA256))
def test_workload_report_bodies_are_pinned(name, seed):
    # a change that must not move any estimate keeps every digest
    config = dict(load_bench("workloads").IN_PROCESS[name], seed=seed)
    data = simbench.run_benchmark(config).data
    body = {k: v for k, v in data.items() if k != "runtime_seconds"}
    digest = hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()
    assert digest == BODY_SHA256[name, seed]
