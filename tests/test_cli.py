"""End-to-end command-line workflow on a small three-switch problem."""

import argparse
import importlib.util
import json
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from regimecast import __version__, cli, energy
from regimecast.cli import main
from regimecast.energy import (discretize, fit, load_model, new_model, pseudo_loglik,
                               save_model)
from regimecast.estimators import (ESTIMATORS, EstimatorInputs, estimate_direct, fit_outcome,
                                   regime_weights)
from regimecast.fileio import graph_to_dict, load_graph, load_manifest, write_dataset_csv
from regimecast.model import (
    FactorSpec,
    IfmStructure,
    InterventionSpace,
    RegimeDataset,
    RegimeVector,
)
from regimecast.sampling import sample
from regimecast.simbench import builtin_structure

from conftest import run_python

TRAIN = [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0), (0, 0, 1), (0, 1, 1)]


def chain_ifm():
    space = InterventionSpace(("s1", "s2", "s3"), (2, 2, 2))
    return IfmStructure(
        1, space, (FactorSpec((0,), (0, 1)), FactorSpec((0,), (1, 2))), ("x1",))


def schema(name):
    path = resources.files("regimecast") / "schemas" / f"{name}.json"
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Graph file, per-regime CSVs with outcomes, manifest, fitted model."""
    root = tmp_path_factory.mktemp("cli")
    ifm = chain_ifm()
    (root / "graph.json").write_text(json.dumps(graph_to_dict(ifm)))

    rng = np.random.default_rng(0)
    manifest = {}
    for i, levels in enumerate(TRAIN):
        # regimes shift the location so the fit has something to learn
        x = rng.normal(loc=0.4 * sum(levels), scale=1.0, size=(80, 1))
        y = 0.5 * x[:, 0] + rng.normal(scale=0.1, size=80)
        name = f"data_{i}.csv"
        write_dataset_csv(root / name, ifm, RegimeDataset(RegimeVector(levels), x, y))
        manifest[name] = list(levels)
    (root / "manifest.json").write_text(json.dumps(manifest))
    (root / "train.json").write_text(json.dumps([list(t) for t in TRAIN]))

    rc = main([
        "fit", "--graph", str(root / "graph.json"),
        "--data-manifest", str(root / "manifest.json"),
        "--out", str(root / "model.json"), "--bins", "6", "--hidden", "4",
        "--steps", "40", "--seed", "1",
        "--outcome-out", str(root / "outcome.json"),
        "--outcome-steps", "200", "--outcome-hidden", "4",
    ])
    assert rc == 0
    return root


def test_version_flag(workspace, capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out == (
        f"regimecast {__version__} (model format {energy.FORMAT_VERSION})\n")
    saved = json.loads((workspace / "model.json").read_text())
    assert saved["format_version"] == energy.FORMAT_VERSION


def test_console_script_is_installed():
    proc = subprocess.run(["regimecast", "--version"], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout.startswith("regimecast ")


def test_validate_reports_structure_facts(workspace, capsys):
    rc = main(["validate", "--graph", str(workspace / "graph.json"),
               "--data-manifest", str(workspace / "manifest.json")])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] and out["chordal"]
    assert out["variables"] == 1 and out["interventions"] == 3
    assert len(out["fingerprint"]) == 64
    assert out["n_datasets"] == 6 and out["n_rows"] == 480
    assert out["with_outcome"] is True


def test_identify_routes_agree_on_the_chain(workspace, capsys):
    argv = ["identify", "--graph", str(workspace / "graph.json"),
            "--train", str(workspace / "train.json"), "--target", "1,1,1"]
    want = [0.0, -1.0, 0.0, 1.0, 0.0, 1.0]

    assert main(argv) == 0
    tree = json.loads(capsys.readouterr().out)
    jsonschema.validate(tree, schema("certificate"))
    assert tree["identifiable"] and tree["route"] == "junction-tree"
    assert tree["exponents"] == want
    assert tree["conditions"]["passed"]
    assert tree["train"] == [",".join(map(str, t)) for t in TRAIN]

    assert main(argv + ["--route", "algebraic"]) == 0
    alg = json.loads(capsys.readouterr().out)
    jsonschema.validate(alg, schema("certificate"))
    assert alg["route"] == "algebraic" and alg["solution_dim"] == 0
    assert np.allclose(alg["exponents"], want)


def test_identify_reduce_keeps_a_minimal_support(workspace, capsys):
    rc = main(["identify", "--graph", str(workspace / "graph.json"),
               "--train", str(workspace / "train.json"), "--target", "1,1,1",
               "--route", "algebraic", "--reduce"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    jsonschema.validate(out, schema("certificate"))
    assert out["support"] == ["0,1,0", "1,1,0", "0,1,1"]
    assert out["train"] == out["support"]
    assert np.allclose(sorted(out["exponents"]), [-1.0, 1.0, 1.0])


def test_identify_reduce_takes_the_algebraic_route_under_auto(workspace, capsys):
    argv = ["identify", "--graph", str(workspace / "graph.json"),
            "--train", str(workspace / "train.json"), "--target", "1,1,1", "--reduce"]
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    jsonschema.validate(out, schema("certificate"))
    assert out["route"] == "algebraic" and out["conditions"]["passed"]
    assert out["support"] == ["0,1,0", "1,1,0", "0,1,1"]

    # the tree certificate has no support to reduce
    assert main(argv + ["--route", "tree"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--reduce needs the algebraic route" in captured.err


def test_identify_reports_unidentifiable_targets(workspace, tmp_path, capsys):
    short = tmp_path / "short.json"
    short.write_text(json.dumps([list(t) for t in TRAIN if t != (0, 1, 1)]))
    for route in ("algebraic", "tree"):
        rc = main(["identify", "--graph", str(workspace / "graph.json"),
                   "--train", str(short), "--target", "1,1,1", "--route", route])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        jsonschema.validate(out, schema("certificate"))
        assert out["identifiable"] is False
        assert out["exponents"] is None and out["reason"]


def test_identify_certifies_the_named_sachs_example(tmp_path, capsys):
    # README's worked example: the built-in sachs graph with protein names
    proteins = ["Raf", "Mek", "Plcg", "PIP2", "PIP3", "Erk", "Akt", "PKA", "PKC", "P38",
                "Jnk"]
    graph = graph_to_dict(builtin_structure("sachs").ifm)
    names = dict(zip(graph["variables"], proteins))
    graph["variables"] = proteins
    for factor in graph["factors"]:
        factor["variables"] = [names[v] for v in factor["variables"]]
    assert {"variables": ["Raf", "Mek", "PKA", "PKC"], "interventions": ["u0126"]} \
        in graph["factors"]
    (tmp_path / "sachs.json").write_text(json.dumps(graph))
    (tmp_path / "train.json").write_text(json.dumps(
        [[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))

    argv = ["identify", "--graph", str(tmp_path / "sachs.json"),
            "--train", str(tmp_path / "train.json"), "--target", "1,1,1,1"]
    assert main(argv + ["--route", "tree"]) == 0
    tree = json.loads(capsys.readouterr().out)
    assert tree["identifiable"] and tree["exponents"] == [-3.0, 1.0, 1.0, 1.0, 1.0]
    assert main(argv + ["--route", "algebraic"]) == 0
    alg = json.loads(capsys.readouterr().out)
    assert alg["identifiable"] and np.allclose(alg["exponents"], [-3.0, 1.0, 1.0, 1.0, 1.0])


def test_exit_codes(workspace, tmp_path, capsys):
    # usage: missing required option
    assert main(["identify", "--graph", str(workspace / "graph.json")]) == 1
    assert main(["no-such-command"]) == 1

    # rejected input: malformed regime, missing file
    assert main(["identify", "--graph", str(workspace / "graph.json"),
                 "--train", str(workspace / "train.json"), "--target", "9,9,9"]) == 2
    assert main(["validate", "--graph", str(tmp_path / "absent.json")]) == 2

    # rejected input: train file holds a number, not regimes
    bad = tmp_path / "bad.json"
    bad.write_text("5")
    assert main(["identify", "--graph", str(workspace / "graph.json"),
                 "--train", str(bad), "--target", "1,1,1"]) == 2
    capsys.readouterr()


def test_negative_seed_is_rejected_input(workspace, tmp_path, capsys):
    graph = ["--graph", str(workspace / "graph.json")]
    data = ["--data-manifest", str(workspace / "manifest.json")]
    model = ["--model", str(workspace / "model.json")]
    commands = [
        ["fit"] + graph + data + ["--out", str(tmp_path / "m.json"), "--steps", "1"],
        ["sample"] + model + ["--regime", "1,1,1", "--n", "5", "--out", str(tmp_path / "s.csv")],
        ["estimate"] + model + data + ["--target", "1,1,1", "--method", "direct",
                                       "--outcome", str(workspace / "outcome.json")],
        ["conformal"] + model + data + ["--target", "1,1,1", "--alpha", "0.2"],
    ]
    for argv in commands:
        assert main(argv + ["--seed", "-1"]) == 2
        assert "--seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists() and not (tmp_path / "s.csv").exists()


def test_bad_training_settings_are_rejected_input(workspace, tmp_path, capsys):
    fit = ["fit", "--graph", str(workspace / "graph.json"),
           "--data-manifest", str(workspace / "manifest.json"),
           "--out", str(tmp_path / "m.json"), "--outcome-out", str(tmp_path / "o.json"),
           "--bins", "4", "--hidden", "3", "--seed", "0", "--outcome-steps", "2"]
    for extra, says in [(["--steps", "1", "--lr", "nan"], "learning rate"),
                        (["--steps", "1", "--lr", "0"], "learning rate"),
                        (["--steps", "-1"], "steps must be >= 0"),
                        (["--steps", "1", "--outcome-steps", "-2"], "steps must be >= 0"),
                        (["--steps", "1", "--outcome-lr", "inf"], "learning rate"),
                        (["--steps", "1", "--outcome-hidden", "0"], "hidden width")]:
        assert main(fit + extra) == 2
        assert says in capsys.readouterr().err
        # nothing is written when either fit is refused
        assert not (tmp_path / "m.json").exists() and not (tmp_path / "o.json").exists()

    assert main(["conformal", "--model", str(workspace / "model.json"),
                 "--data-manifest", str(workspace / "manifest.json"),
                 "--target", "1,1,1", "--alpha", "0.2", "--seed", "1",
                 "--hidden", "0"]) == 2
    assert "hidden width" in capsys.readouterr().err


@pytest.mark.parametrize("label, flag", [("fit", "--bins"), ("fit", "--hidden"),
                                         ("sample", "--n"), ("estimate_direct", "--nsamples"),
                                         ("conformal", "--hidden")])
def test_an_integer_flag_above_maxsize_is_rejected_input(workspace, tmp_path, capsys, label,
                                                         flag):
    argv = {**workflow_argv(workspace, tmp_path),
            "sample": ["sample", "--model", workspace / "model.json", "--regime", "1,1,1",
                       "--n", "5", "--seed", "1", "--out", tmp_path / "s.csv"]}[label]
    # no numpy size can hold it; refused before the command runs, with exit code 2
    assert main([str(a) for a in argv] + [flag, str(10 ** 24)]) == 2
    err = capsys.readouterr().err
    assert f"{flag} must be <= {sys.maxsize}, got {10 ** 24}" in err
    assert "internal error" not in err
    assert not (tmp_path / "model.json").exists() and not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("command", ["validate", "identify", "fit"])
def test_a_cardinality_above_maxsize_is_rejected_input(workspace, tmp_path, capsys, command):
    spec = json.loads((workspace / "graph.json").read_text())
    spec["interventions"][0]["cardinality"] = 1e30
    (tmp_path / "graph.json").write_text(json.dumps(spec))
    argv = {**workflow_argv(workspace, tmp_path),
            "fit": ["fit", "--data-manifest", workspace / "manifest.json",
                    "--out", tmp_path / "model.json", "--seed", "1"]}[command]
    argv = [str(a) for a in argv] + ["--graph", str(tmp_path / "graph.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"intervention 's1' cardinality must be <= {sys.maxsize}, got 1e+30" in err
    assert "internal error" not in err
    assert not (tmp_path / "model.json").exists()


def test_minibatch_fit_follows_the_seed(workspace, tmp_path):
    # --seed sets the initial nets and the minibatch order alike
    assert main(["fit", "--graph", str(workspace / "graph.json"),
                 "--data-manifest", str(workspace / "manifest.json"),
                 "--out", str(tmp_path / "cli.json"), "--bins", "6", "--hidden", "4",
                 "--steps", "8", "--batch", "10", "--seed", "7"]) == 0
    ifm = load_graph(workspace / "graph.json")
    datasets = load_manifest(workspace / "manifest.json", ifm)
    model0 = new_model(ifm, discretize(datasets, bins=6), hidden=4, seed=7)
    model, _ = fit(model0, datasets, steps=8, lr=1e-3, batch=10)
    save_model(tmp_path / "lib.json", model)
    assert (tmp_path / "cli.json").read_bytes() == (tmp_path / "lib.json").read_bytes()


@pytest.mark.parametrize("batch", [[], ["--batch", "10"]])
def test_fit_reports_the_start_and_the_written_models_objective(workspace, tmp_path, capsys,
                                                                 batch):
    assert main(["fit", "--graph", str(workspace / "graph.json"),
                 "--data-manifest", str(workspace / "manifest.json"),
                 "--out", str(tmp_path / "m.json"), "--bins", "6", "--hidden", "4",
                 "--steps", "5", "--lr", "1e-2", "--seed", "3"] + batch) == 0
    summary = json.loads(capsys.readouterr().out)
    ifm = load_graph(workspace / "graph.json")
    datasets = load_manifest(workspace / "manifest.json", ifm)
    start = new_model(ifm, discretize(datasets, bins=6), hidden=4, seed=3)
    assert summary["steps"] == 5
    assert summary["objective_start"] == pseudo_loglik(start, datasets)
    assert summary["objective_end"] == pseudo_loglik(load_model(tmp_path / "m.json"), datasets)


def test_a_fit_that_diverges_on_its_last_step_writes_nothing(workspace, tmp_path, capsys):
    # each step's objective is taken before its update, so only the final
    # parameters show that the second step of this fit diverged
    with np.errstate(all="ignore"):
        rc = main(["fit", "--graph", str(workspace / "graph.json"),
                   "--data-manifest", str(workspace / "manifest.json"),
                   "--out", str(tmp_path / "m.json"), "--bins", "6", "--hidden", "4",
                   "--seed", "1", "--steps", "2", "--lr", "1e300"])
    assert rc == 2
    assert "pseudo-log-likelihood parameters are not finite after step 1" in \
        capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_a_diverging_fit_prints_no_numpy_warning(workspace, tmp_path, capsys):
    # the overflow inside the Adam update is reported only as NonFinite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["fit", "--graph", str(workspace / "graph.json"),
                   "--data-manifest", str(workspace / "manifest.json"),
                   "--out", str(tmp_path / "m.json"), "--bins", "6", "--hidden", "4",
                   "--seed", "1", "--steps", "2", "--lr", "1e300"])
    assert rc == 2
    assert "parameters are not finite after step 1" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("lo, hi", [(-1e308, 1e308), (1 - 1e-15, 1 + 1e-15)],
                         ids=["span-overflows", "too-narrow-for-the-bins"])
def test_a_variable_that_cannot_be_binned_is_named(workspace, tmp_path, capsys, lo, hi):
    x = np.array([[lo], [hi], [lo]])
    write_dataset_csv(tmp_path / "data.csv", chain_ifm(),
                      RegimeDataset(RegimeVector((0, 0, 0)), x, np.zeros(3)))
    (tmp_path / "manifest.json").write_text(json.dumps({"data.csv": [0, 0, 0]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["fit", "--graph", str(workspace / "graph.json"),
                   "--data-manifest", str(tmp_path / "manifest.json"),
                   "--out", str(tmp_path / "m.json"), "--bins", "20", "--steps", "1",
                   "--seed", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert f"variable 0 (x1) spans [{lo!r}, {hi!r}]" in err
    assert not (tmp_path / "m.json").exists()


def test_unexpected_failure_is_an_internal_error(workspace, monkeypatch, capsys):
    def boom(args):
        raise RuntimeError("unexpected")

    monkeypatch.setattr(cli, "_cmd_validate", boom)
    assert main(["validate", "--graph", str(workspace / "graph.json")]) == 3
    assert "internal error: RuntimeError" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["{not json", '{"regimes": 5}', '[["x"]]', "[5]",
                                  "[[0.9, 1, 0]]", "[[true, 0, 0]]"])
def test_malformed_train_file_is_rejected_input(workspace, tmp_path, capsys, text):
    bad = tmp_path / "train.json"
    bad.write_text(text)
    assert main(["identify", "--graph", str(workspace / "graph.json"),
                 "--train", str(bad), "--target", "1,1,1"]) == 2
    assert "internal error" not in capsys.readouterr().err


@pytest.mark.parametrize("text", ["{not json", "5", '{"n_problems": "1"}',
                                  '{"signal_range": ["a", "b"]}'])
def test_malformed_benchmark_config_is_rejected_input(tmp_path, capsys, text):
    bad = tmp_path / "config.json"
    bad.write_text(text)
    assert main(["benchmark", "--config", str(bad), "--out", str(tmp_path / "r.json")]) == 2
    assert "internal error" not in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_benchmark_jobs_below_one_is_rejected_input(tmp_path, capsys, jobs):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"structure": "chain3", "n_problems": 1, "methods": ["ridge"],
                               "n_baseline": 50, "n_regime": 20, "mc_samples": 50,
                               "fit_steps": 1, "gibbs_n": 10, "gibbs_burn": 2}))
    assert main(["benchmark", "--config", str(cfg), "--out", str(tmp_path / "r.json"),
                 "--jobs", jobs]) == 2
    assert f"jobs must be >= 1, got {jobs}" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_model_file_without_graph_is_rejected_input(workspace, tmp_path, capsys):
    obj = json.loads((workspace / "model.json").read_text())
    del obj["graph"]
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(obj))
    assert main(["sample", "--model", str(bad), "--regime", "1,1,1", "--n", "3",
                 "--seed", "0", "--out", str(tmp_path / "draws.csv")]) == 2
    assert "internal error" not in capsys.readouterr().err


def test_model_with_a_stale_fingerprint_is_rejected_input(workspace, tmp_path, capsys):
    obj = json.loads((workspace / "model.json").read_text())
    obj["graph"]["variables"] = ["x9"]
    obj["graph"]["factors"] = [{**f, "variables": ["x9"]} for f in obj["graph"]["factors"]]
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(obj))
    assert main(["sample", "--model", str(bad), "--regime", "1,1,1", "--n", "3",
                 "--seed", "0", "--out", str(tmp_path / "draws.csv")]) == 2
    err = capsys.readouterr().err
    assert "internal error" not in err and "fingerprint" in err
    assert not (tmp_path / "draws.csv").exists()


@pytest.mark.parametrize("kind", ["graph", "manifest", "model", "outcome"])
def test_malformed_field_is_rejected_input(workspace, tmp_path, capsys, kind):
    files = {k: workspace / f"{k}.json" for k in ("graph", "manifest", "model", "outcome")}
    obj = json.loads(files[kind].read_text())
    if kind == "graph":
        obj["interventions"][0]["cardinality"] = 2.5
        named = "cardinality"
    elif kind == "manifest":
        # absolute CSV paths, so the copy need not sit beside the data
        obj = {str(workspace / rel): levels for rel, levels in obj.items()}
        obj[str(workspace / "data_0.csv")] = [0.9, 0, 0]
        named = "data_0.csv"
    elif kind == "model":
        obj["seed"] = 1.5
        named = "model seed"
    else:
        obj["m"] = "x"
        named = "outcome m"
    files[kind] = tmp_path / f"{kind}.json"
    files[kind].write_text(json.dumps(obj))
    argv = {
        "graph": ["validate", "--graph", files["graph"]],
        "manifest": ["validate", "--graph", files["graph"], "--data-manifest", files["manifest"]],
        "model": ["sample", "--model", files["model"], "--regime", "1,1,1", "--n", "3",
                  "--seed", "0", "--out", tmp_path / "draws.csv"],
        "outcome": ["estimate", "--model", files["model"], "--data-manifest", files["manifest"],
                    "--target", "1,1,1", "--outcome", files["outcome"], "--seed", "0",
                    "--nsamples", "10", "--burn", "2"],
    }[kind]
    assert main([str(a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert "internal error" not in err and named in err


def test_manifest_with_a_repeated_key_is_rejected_input(workspace, tmp_path, capsys):
    manifest = json.loads((workspace / "manifest.json").read_text())
    pairs = [(str(workspace / rel), levels) for rel, levels in manifest.items()]
    # the baseline file listed again under another regime
    pairs.insert(1, (pairs[0][0], [0, 1, 0]))
    bad = tmp_path / "manifest.json"
    bad.write_text("{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in pairs) + "}")
    assert main(["validate", "--graph", str(workspace / "graph.json"),
                 "--data-manifest", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert str(bad) in err and f"duplicate key {pairs[0][0]!r}" in err


@pytest.mark.parametrize("data", [b"x1,y\n0.5,\xff\n", b"x1,y\n\xe9,0.5\n",
                                  b"x1,y\n" + b"1" * 200_000 + b",0.5\n"],
                         ids=["byte-0xff", "byte-0xe9", "oversized-field"])
def test_unreadable_csv_is_rejected_input(workspace, tmp_path, capsys, data):
    manifest = json.loads((workspace / "manifest.json").read_text())
    manifest = {str(workspace / rel): levels for rel, levels in manifest.items()}
    bad = tmp_path / "data_0.csv"
    bad.write_bytes(data)
    manifest[str(bad)] = manifest.pop(str(workspace / "data_0.csv"))
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    assert main(["validate", "--graph", str(workspace / "graph.json"),
                 "--data-manifest", str(tmp_path / "manifest.json")]) == 2
    err = capsys.readouterr().err
    assert "internal error" not in err and str(bad) in err


@pytest.mark.parametrize("graph, data, manifest, named", [
    (lambda g: [g], None, None, "graph spec must be a JSON object"),
    (lambda g: {k: v for k, v in g.items() if k != "factors"}, None, None,
     "graph spec missing 'factors'"),
    (lambda g: {**g, "variables": ["x1", "x1"]}, None, None, "variable names must be unique"),
    (lambda g: {**g, "interventions": [{"cardinality": 2}, *g["interventions"][1:]]}, None,
     None, "each intervention needs 'name' and 'cardinality'"),
    (lambda g: {**g, "factors": [["x1"], *g["factors"][1:]]}, None, None,
     "each factor must be a JSON object"),
    (lambda g: {**g, "factors": [{**g["factors"][0], "color": 1}, *g["factors"][1:]]}, None,
     None, "unknown factor keys ['color']"),
    (lambda g: {**g, "interventions": [{**g["interventions"][0], "cardinality": 1},
                                       *g["interventions"][1:]]}, None, None,
     "needs an integer level count >= 2, got 1"),
    (lambda g: {**g, "factors": [{**g["factors"][0], "variables": []}, *g["factors"][1:]]},
     None, None, "factor must read at least one variable"),
    (lambda g: {**g, "variables": [*g["variables"], "x2"]}, None, None,
     "variables not read by any factor: [1]"),
    (None, "", None, "data.csv: empty file"),
    (None, "x1,y\n0.5,abc\n", None, "data.csv: could not convert string to float: 'abc'"),
    (None, "x1,y\n", None, "data.csv: no data rows"),
    (None, "x1,y\n0.5\n1.5\n", None, "data.csv: rows have 1 fields, header has 2"),
    (None, "x1,y\n0.5,1.0\n1e400,2.0\n", None,
     "data.csv: line 3, column 'x1': '1e400' is not a finite number"),
    (None, "x1,y\n-inf,1.0\n", None,
     "data.csv: line 2, column 'x1': '-inf' is not a finite number"),
    (None, "x1,y\n0.5,1.0\n\n0.7, nan\n", None,
     "data.csv: line 4, column 'y': 'nan' is not a finite number"),
    (None, None, "{}", "must be a non-empty JSON object"),
    (None, None, "[]", "must be a non-empty JSON object"),
], ids=["graph-not-an-object", "graph-missing-key", "repeated-variable",
        "nameless-intervention", "factor-not-an-object", "unknown-factor-key",
        "one-level-intervention", "factor-without-variables", "unread-variable", "empty-csv",
        "non-numeric-field", "header-without-rows", "rows-of-the-wrong-width",
        "overflowing-field", "infinite-field", "nan-outcome", "empty-manifest",
        "manifest-not-an-object"])
def test_every_input_check_is_rejected_input(workspace, tmp_path, capsys, graph, data,
                                            manifest, named):
    spec = json.loads((workspace / "graph.json").read_text())
    if graph is not None:
        spec = graph(spec)
    (tmp_path / "graph.json").write_text(json.dumps(spec))
    (tmp_path / "data.csv").write_text("x1,y\n0.5,1.0\n" if data is None else data)
    (tmp_path / "manifest.json").write_text(
        json.dumps({"data.csv": [0, 0, 0]}) if manifest is None else manifest)
    argv = ["validate", "--graph", str(tmp_path / "graph.json")]
    if graph is None:
        argv += ["--data-manifest", str(tmp_path / "manifest.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "internal error" not in err and named in err
    if graph is not None:
        assert str(tmp_path / "graph.json") in err
    elif manifest is None:
        assert str(tmp_path / "data.csv") in err
    else:
        assert str(tmp_path / "manifest.json") in err


def test_model_with_a_repeated_net_is_rejected_input(workspace, tmp_path, capsys):
    obj = json.loads((workspace / "model.json").read_text())
    obj["nets"].append({**obj["nets"][0], "b2": obj["nets"][0]["b2"] + 1.0})
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(obj))
    assert main(["estimate", "--model", str(bad),
                 "--data-manifest", str(workspace / "manifest.json"),
                 "--target", "1,1,1", "--method", "ipw"]) == 2
    err = capsys.readouterr().err
    assert "internal error" not in err and "appears more than once" in err


@pytest.mark.parametrize("kind", ["model", "outcome"])
def test_a_boolean_format_version_is_rejected_input(workspace, tmp_path, capsys, kind):
    # True == 1, so only a type check keeps a boolean from passing as version 1
    obj = json.loads((workspace / f"{kind}.json").read_text())
    obj["format_version"] = True
    bad = tmp_path / f"{kind}.json"
    bad.write_text(json.dumps(obj))
    argv = ["estimate", "--model", str(bad if kind == "model" else workspace / "model.json"),
            "--data-manifest", str(workspace / "manifest.json"), "--target", "1,1,1"]
    if kind == "model":
        argv += ["--method", "ipw"]
    else:
        argv += ["--method", "direct", "--outcome", str(bad), "--seed", "0",
                 "--nsamples", "10", "--burn", "2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unsupported format_version True" in captured.err


def test_fit_output_matches_the_model_schema(workspace):
    obj = json.loads((workspace / "model.json").read_text())
    jsonschema.validate(obj, schema("energy_model"))
    assert obj["format"] == "regimecast-energy-model"
    outcome = json.loads((workspace / "outcome.json").read_text())
    assert outcome["format"] == "regimecast-outcome-model"


def test_sample_writes_deterministic_csv(workspace, tmp_path):
    argv = ["sample", "--model", str(workspace / "model.json"),
            "--regime", "1,1,1", "--n", "25", "--burn", "20", "--thin", "1",
            "--seed", "7"]
    assert main(argv + ["--out", str(tmp_path / "a.csv")]) == 0
    assert main(argv + ["--out", str(tmp_path / "b.csv")]) == 0
    a = (tmp_path / "a.csv").read_text()
    assert a == (tmp_path / "b.csv").read_text()
    lines = a.strip().split("\n")
    assert lines[0] == "x1" and len(lines) == 26


def test_estimate_direct_and_ipw(workspace, capsys):
    base = ["estimate", "--model", str(workspace / "model.json"),
            "--data-manifest", str(workspace / "manifest.json"),
            "--target", "1,1,1"]

    rc = main(base + ["--method", "direct", "--outcome", str(workspace / "outcome.json"),
                      "--seed", "3", "--nsamples", "200", "--burn", "20", "--thin", "1"])
    assert rc == 0
    direct = json.loads(capsys.readouterr().out)
    jsonschema.validate(direct, schema("estimate"))
    assert direct["method"] == "direct" and direct["per_regime"] is None
    assert np.isfinite(direct["mu_hat"])

    # ipw needs no seed and reports its per-regime pieces
    assert main(base + ["--method", "ipw"]) == 0
    ipw = json.loads(capsys.readouterr().out)
    jsonschema.validate(ipw, schema("estimate"))
    assert len(ipw["per_regime"]) == 6

    # direct without a seed is a usage error
    assert main(base + ["--method", "direct"]) == 1
    assert "--seed is required unless the method is ipw" in capsys.readouterr().err


def test_estimate_outcome_file_is_for_the_direct_method_only(workspace, capsys):
    base = ["estimate", "--model", str(workspace / "model.json"),
            "--data-manifest", str(workspace / "manifest.json"),
            "--target", "1,1,1", "--outcome", str(workspace / "outcome.json"),
            "--seed", "3", "--nsamples", "50", "--burn", "10", "--thin", "1"]
    assert main(base + ["--method", "direct"]) == 0
    assert json.loads(capsys.readouterr().out)["method"] == "direct"
    for method in ("ipw", "covshift"):
        assert main(base + ["--method", method]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--outcome needs --method direct" in captured.err


def test_estimate_covshift_is_the_weighted_refit(workspace, capsys):
    rc = main(["estimate", "--model", str(workspace / "model.json"),
               "--data-manifest", str(workspace / "manifest.json"),
               "--target", "1,1,1", "--method", "covshift",
               "--seed", "7", "--nsamples", "60", "--burn", "10", "--thin", "1"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    jsonschema.validate(out, schema("estimate"))
    assert out["method"] == "covshift" and out["per_regime"] is None

    # the library composition; --seed draws the refit's seed first, then the draws'
    model = load_model(workspace / "model.json")
    datasets = load_manifest(workspace / "manifest.json", model.ifm)
    target = RegimeVector((1, 1, 1))
    rng = np.random.default_rng(7)
    fit_seed, draw_seed = int(rng.integers(2 ** 63)), int(rng.integers(2 ** 63))
    refit = fit_outcome(datasets, seed=fit_seed,
                        weights=regime_weights(model, datasets, [target])[0])
    want = estimate_direct(refit, sample(model, target, 60, burn=10, thin=1, seed=draw_seed))
    assert out["mu_hat"] == want.mu and out["se"] == want.se


def test_estimate_direct_fits_the_outcome_when_none_is_given(workspace, capsys):
    rc = main(["estimate", "--model", str(workspace / "model.json"),
               "--data-manifest", str(workspace / "manifest.json"),
               "--target", "1,1,1", "--method", "direct",
               "--seed", "7", "--nsamples", "60", "--burn", "10", "--thin", "1"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    jsonschema.validate(out, schema("estimate"))
    assert out["method"] == "direct" and out["per_regime"] is None

    # the library composition; --seed seeds both the outcome fit and the draws
    model = load_model(workspace / "model.json")
    datasets = load_manifest(workspace / "manifest.json", model.ifm)
    target = RegimeVector((1, 1, 1))
    want = estimate_direct(fit_outcome(datasets, seed=7),
                           sample(model, target, 60, burn=10, thin=1, seed=7))
    assert out["mu_hat"] == want.mu and out["se"] == want.se


@pytest.mark.parametrize("method", ["direct", "ipw", "covshift"])
def test_estimate_prints_the_estimator_table_entry(workspace, capsys, method):
    argv = ["estimate", "--model", str(workspace / "model.json"),
            "--data-manifest", str(workspace / "manifest.json"),
            "--target", "1,1,1", "--method", method]
    if method != "ipw":
        argv += ["--seed", "7", "--nsamples", "60", "--burn", "10", "--thin", "1"]
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)

    # the same datasets, draws and weights, with the seeds the command documents
    model = load_model(workspace / "model.json")
    datasets = load_manifest(workspace / "manifest.json", model.ifm)
    target = RegimeVector((1, 1, 1))
    fit_seed = draw_seed = 7
    if method == "covshift":
        rng = np.random.default_rng(7)
        fit_seed, draw_seed = int(rng.integers(2 ** 63)), int(rng.integers(2 ** 63))
    draws = {target: sample(model, target, 60, burn=10, thin=1, seed=draw_seed)}
    weights = {target: regime_weights(model, datasets, [target])[0]}
    inputs = EstimatorInputs(datasets, draws.__getitem__, weights.__getitem__,
                             outcome=lambda: fit_outcome(datasets, seed=7),
                             refit=lambda w: fit_outcome(datasets, seed=fit_seed, weights=w))
    want = ESTIMATORS[method](inputs, target)
    assert out["method"] == method
    assert out["mu_hat"] == want.mu and out["se"] == want.se


def test_estimate_method_choices_are_the_estimator_table():
    # a literal in the parser, since --help loads no numpy; it must name every entry
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    method = next(a for a in commands.choices["estimate"]._actions if a.dest == "method")
    assert method.choices == tuple(ESTIMATORS)


def test_out_writes_the_json_stdout_would_show(workspace, tmp_path, capsys):
    argv = ["identify", "--graph", str(workspace / "graph.json"),
            "--train", str(workspace / "train.json"), "--target", "1,1,1"]
    assert main(argv) == 0
    shown = capsys.readouterr().out
    assert main(argv + ["--out", str(tmp_path / "cert.json")]) == 0
    assert capsys.readouterr().out == ""
    assert (tmp_path / "cert.json").read_text() == shown
    assert shown.endswith("}\n")


def test_bands_come_from_conformal_only(workspace, capsys):
    base = ["estimate", "--model", str(workspace / "model.json"),
            "--data-manifest", str(workspace / "manifest.json"),
            "--target", "1,1,1", "--method", "ipw"]
    assert main(base + ["--alpha", "0.2", "--seed", "5"]) == 1
    assert "unrecognized arguments: --alpha 0.2" in capsys.readouterr().err
    # ipw needs no seed, and its estimate carries no band
    assert main(base) == 0
    out = json.loads(capsys.readouterr().out)
    jsonschema.validate(out, schema("estimate"))
    assert "band" not in out
    assert "band" not in schema("estimate")["properties"]


def scaled_manifest(workspace, tmp_path, factor):
    """The workspace's datasets with every outcome multiplied by `factor`."""
    manifest = {}
    for i, ds in enumerate(load_manifest(workspace / "manifest.json", chain_ifm())):
        name = f"data_{i}.csv"
        write_dataset_csv(tmp_path / name, chain_ifm(), ds.with_y(ds.y * factor))
        manifest[name] = list(ds.regime.levels)
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    return tmp_path / "manifest.json"


@pytest.mark.parametrize("factor, message", [
    (1e157, "IPW moments of regime (0, 0, 0) are not finite"),
    (1e-154, "IPW inverse-variance pool is not finite"),
], ids=["moments-overflow", "proxy-too-small-to-invert"])
def test_an_ipw_estimate_outside_the_float_range_is_rejected(workspace, tmp_path, capsys,
                                                              factor, message):
    # finite, valid outcomes whose weighted moments leave the float range
    manifest = scaled_manifest(workspace, tmp_path, factor)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["estimate", "--model", str(workspace / "model.json"),
                   "--data-manifest", str(manifest), "--target", "1,1,1", "--method", "ipw"])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err and "internal error" not in err


@pytest.mark.parametrize("command", ["direct", "covshift", "conformal", "fit"])
def test_an_outcome_loss_past_the_float_range_prints_no_numpy_warning(workspace, tmp_path,
                                                                      capsys, command):
    manifest = scaled_manifest(workspace, tmp_path, 1e200)
    model = ["--model", str(workspace / "model.json"), "--data-manifest", str(manifest),
             "--target", "1,1,1", "--seed", "7"]
    chain = ["--nsamples", "20", "--burn", "5", "--thin", "1"]
    argv = {
        "direct": ["estimate", *model, "--method", "direct", *chain],
        "covshift": ["estimate", *model, "--method", "covshift", *chain],
        "conformal": ["conformal", *model, "--alpha", "0.1", "--hidden", "4", "--steps", "5",
                      *chain],
        "fit": ["fit", "--graph", str(workspace / "graph.json"), "--data-manifest",
                str(manifest), "--out", str(tmp_path / "m.json"), "--bins", "6",
                "--hidden", "4", "--steps", "2", "--seed", "1",
                "--outcome-out", str(tmp_path / "o.json"), "--outcome-steps", "5"],
    }[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv)
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "outcome loss is not finite (step 0)" in err
    assert not (tmp_path / "o.json").exists()


def test_conformal_band_command(workspace, capsys):
    rc = main(["conformal", "--model", str(workspace / "model.json"),
               "--data-manifest", str(workspace / "manifest.json"),
               "--target", "1,1,1", "--alpha", "0.1", "--seed", "9",
               "--nsamples", "100", "--burn", "20", "--thin", "1",
               "--hidden", "4", "--steps", "100"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["format"] == "regimecast-band"
    assert out["n_scores"] == 240
    assert out["lo"] < out["center"] < out["hi"]


def test_benchmark_command(workspace, tmp_path, capsys):
    cfg = {
        "structure": "chain3", "seed": 1, "n_problems": 1, "methods": ["ridge"],
        "n_baseline": 200, "n_regime": 80, "mc_samples": 400, "bins": 6,
        "hidden": 4, "fit_steps": 30, "gibbs_n": 100, "gibbs_burn": 20,
        "gibbs_thin": 1, "truth_burn": 20, "truth_thin": 1, "truth_bins": 6,
        "truth_hidden": 4,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["benchmark", "--config", str(cfg_path),
               "--out", str(tmp_path / "report.json"),
               "--csv", str(tmp_path / "report.csv")])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert "ridge" in summary

    report = json.loads((tmp_path / "report.json").read_text())
    jsonschema.validate(report, schema("benchmark_report"))
    rows = (tmp_path / "report.csv").read_text().strip().split("\n")
    assert len(rows) == 1 + 1 * 1 * len(report["scored_regimes"])


# ---- start-up: each process loads only what its command runs ----------------------

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

# `python -m regimecast.cli ARGV...`, then the exit code and every loaded module
STARTUP = """
import json, runpy, sys
sys.argv = ["regimecast", *sys.argv[1:]]
code = None
try:
    runpy.run_module("regimecast.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""
LIGHT = {"regimecast", "regimecast.cli", "regimecast.errors"}
MODEL_STACK = {"regimecast.energy", "regimecast.nets", "regimecast.sampling",
               "regimecast.estimators", "regimecast.simbench"}


def startup_modules(argv):
    """Exit code and loaded module names of one fresh command-line process."""
    out = run_python(STARTUP, *argv)
    return out["code"], set(out["modules"])


def workflow_argv(workspace, out_dir):
    """The benchmark's command-line path (validate, identify, fit, two
    estimates, a band), at tiny sizes on the workspace files."""
    graph = ["--graph", workspace / "graph.json"]
    data = ["--data-manifest", workspace / "manifest.json"]
    model = ["--model", workspace / "model.json", *data, "--target", "1,1,1"]
    chain = ["--nsamples", "50", "--burn", "5", "--thin", "1"]
    return {
        "validate": ["validate", *graph, *data],
        "identify": ["identify", *graph, "--train", workspace / "train.json",
                     "--target", "1,1,1"],
        "fit": ["fit", *graph, *data, "--out", out_dir / "model.json", "--seed", "1",
                "--bins", "6", "--hidden", "4", "--steps", "2", "--batch", "100",
                "--outcome-out", out_dir / "outcome.json", "--outcome-hidden", "4",
                "--outcome-steps", "2"],
        "estimate_ipw": ["estimate", *model, "--method", "ipw"],
        "estimate_direct": ["estimate", *model, "--method", "direct",
                            "--outcome", workspace / "outcome.json", "--seed", "1", *chain],
        "conformal": ["conformal", *model, "--alpha", "0.2", "--seed", "1",
                      "--hidden", "4", "--steps", "2", *chain],
    }


@pytest.mark.parametrize("argv, code", [(["--version"], 0), (["--help"], 0), (["bogus"], 1)],
                         ids=["version", "help", "usage-error"])
def test_version_help_and_usage_errors_load_no_numpy(argv, code):
    got, modules = startup_modules(argv)
    assert got == code
    assert {m for m in modules if m.startswith("regimecast")} <= LIGHT
    assert "numpy" not in modules


def test_each_command_loads_only_what_it_runs(workspace, tmp_path):
    for label, argv in workflow_argv(workspace, tmp_path).items():
        code, modules = startup_modules(argv)
        assert code == 0, label
        assert not {"regimecast.simbench", "concurrent.futures"} & modules, label
        if label in ("validate", "identify"):
            assert not MODEL_STACK & modules, label


def test_traced_commands_see_the_tracer_wrappers(workspace, tmp_path, capsys):
    # commands import at call time, so the benchmark tracer's swap of a module
    # attribute must reach them
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    argv = workflow_argv(workspace, tmp_path)
    tracer = spans.Tracer()
    with tracer.patch():
        assert cli.main([str(a) for a in argv["validate"]]) == 0
        assert cli.main([str(a) for a in argv["fit"]]) == 0
        assert cli.main([str(a) for a in argv["estimate_direct"]]) == 0
    capsys.readouterr()
    names = [s[spans.NAME] for s in tracer.spans]
    assert names.count("cli.main") == 3
    assert names.count("fileio.load_manifest") == 3
    assert names.count("energy.fit") == 1
    # the estimator table looks its estimator up when called
    assert names.count("estimators.estimate_direct") == 1
