"""The traced benchmark wraps package functions by name; a rename breaks it."""

import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves_to_a_callable():
    targets = load_spans()._targets()
    assert targets
    for owner, attr, name, _after in targets:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr}"


def test_count_hooks_find_the_parameters_they_read():
    fns = {name: getattr(owner, attr) for owner, attr, name, _ in load_spans()._targets()}
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
