"""The benchmark wraps package functions by name and drives the command line
and `run_benchmark` with fixed arguments; a rename or a dropped option breaks it."""

import importlib.util
import inspect
from pathlib import Path

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
