"""End-to-end command-line workflow on a small three-switch problem."""

import json
import subprocess
import warnings
from importlib import resources

import jsonschema
import numpy as np
import pytest

from regimecast import cli
from regimecast.cli import main
from regimecast.energy import (discretize, fit, load_model, new_model, pseudo_loglik,
                               save_model)
from regimecast.estimators import estimate_direct, fit_outcome, regime_weights
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


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.startswith("regimecast ")


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


def test_minibatch_fit_follows_the_seed(workspace, tmp_path):
    # --seed sets the initial nets and the minibatch order alike
    assert main(["fit", "--graph", str(workspace / "graph.json"),
                 "--data-manifest", str(workspace / "manifest.json"),
                 "--out", str(tmp_path / "cli.json"), "--bins", "6", "--hidden", "4",
                 "--steps", "8", "--batch", "10", "--seed", "7"]) == 0
    ifm = load_graph(workspace / "graph.json")
    datasets = load_manifest(workspace / "manifest.json", ifm)
    model0 = new_model(ifm, discretize(datasets, bins=6), hidden=4, seed=7)
    model, _ = fit(model0, datasets, steps=8, lr=1e-3, batch=10, seed=7)
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
    assert np.isfinite(direct["mu_hat"]) and direct["band"] is None

    # ipw needs no seed and reports its per-regime pieces
    assert main(base + ["--method", "ipw"]) == 0
    ipw = json.loads(capsys.readouterr().out)
    jsonschema.validate(ipw, schema("estimate"))
    assert len(ipw["per_regime"]) == 6

    # direct without a seed is a usage error
    assert main(base + ["--method", "direct"]) == 1
    capsys.readouterr()


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
                        weights=[regime_weights(model, ds, target) for ds in datasets])
    want = estimate_direct(refit, sample(model, target, 60, burn=10, thin=1, seed=draw_seed))
    assert out["mu_hat"] == want.mu and out["se"] == want.se


def test_estimate_alpha_needs_a_seed_even_for_ipw(workspace, capsys):
    base = ["estimate", "--model", str(workspace / "model.json"),
            "--data-manifest", str(workspace / "manifest.json"),
            "--target", "1,1,1", "--method", "ipw"]
    # the band draws from the model, so it needs the seed that ipw alone does not
    assert main(base + ["--alpha", "0.2"]) == 1
    assert "--seed is required" in capsys.readouterr().err
    assert main(base) == 0
    assert json.loads(capsys.readouterr().out)["band"] is None


def test_estimate_with_alpha_attaches_a_band(workspace, capsys):
    rc = main(["estimate", "--model", str(workspace / "model.json"),
               "--data-manifest", str(workspace / "manifest.json"),
               "--target", "1,1,1", "--method", "ipw", "--alpha", "0.2",
               "--seed", "5", "--nsamples", "100", "--burn", "20", "--thin", "1"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    jsonschema.validate(out, schema("estimate"))
    band = out["band"]
    assert band["alpha"] == 0.2
    assert band["lo"] <= band["hi"]
    assert band["hi"] - band["lo"] == pytest.approx(2 * band["half_width"])


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
