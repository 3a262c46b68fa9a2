"""Benchmark structures, simulators, metrics, and the pipeline runner."""

import csv
import io
import json
import pickle
import weakref

import numpy as np
import pytest

from regimecast import junction, simbench
from regimecast.cli import main
from regimecast.errors import DomainError, InvalidSpec, NonFinite, UnknownStructure
from regimecast.fileio import graph_to_dict
from regimecast.model import RegimeDataset, RegimeVector
from regimecast.sampling import exact_density
from regimecast.simbench import (
    builtin_structure,
    fit_dag,
    make_dag_truth,
    make_ifm_truth,
    make_outcome,
    prmse,
    rcor,
    resolve_config,
    run_benchmark,
    DEFAULT_CONFIG,
    OutcomeTruth,
    REPORT_FORMAT,
    _ridge_fit,
)

from conftest import run_python

TINY_CONFIG = {
    "structure": "chain3",
    "truth": "ifm",
    "seed": 3,
    "n_problems": 2,
    "methods": ["ifm_direct", "ifm_ipw", "ridge"],
    "n_baseline": 300,
    "n_regime": 120,
    "mc_samples": 800,
    "bins": 8,
    "hidden": 6,
    "fit_steps": 60,
    "fit_lr": 5e-3,
    "outcome_hidden": 6,
    "outcome_steps": 80,
    "gibbs_n": 400,
    "gibbs_burn": 60,
    "gibbs_thin": 1,
    "truth_burn": 60,
    "truth_thin": 1,
    "truth_bins": 8,
    "truth_hidden": 6,
}


def test_builtin_single_variable_structures():
    chain = builtin_structure("chain3")
    assert chain.ifm.m == 1 and chain.ifm.space.d == 3
    assert [f.intv_scope for f in chain.ifm.factors] == [(0, 1), (1, 2)]
    assert len(chain.train) == 6 and len(chain.test) == 2
    assert chain.train[0].is_baseline()
    assert chain.dag is None

    tri = builtin_structure("triangle")
    assert [f.intv_scope for f in tri.ifm.factors] == [(0, 1), (1, 2), (0, 2)]
    assert len(tri.train) == 7 and len(tri.test) == 1
    assert tri.test[0].levels == (1, 1, 1)

    with pytest.raises(UnknownStructure):
        builtin_structure("chain4")


def test_builtin_sachs_structure():
    b = builtin_structure("sachs")
    assert b.ifm.m == 11 and b.ifm.space.d == 4
    assert b.ifm.space.names == ("u0126", "psitect", "aktinhib", "g0076")
    # one factor per node over itself and its parents
    assert len(b.ifm.factors) == 11
    assert b.ifm.factors[1].var_scope == (0, 1, 7, 8)
    assert b.ifm.factors[1].intv_scope == (0,)
    assert b.ifm.factors[3].var_scope == (2, 3, 4)
    assert b.ifm.factors[6].var_scope == (4, 5, 6, 7)
    assert b.ifm.factors[8].var_scope == (2, 3, 8)
    assert b.ifm.factors[0].intv_scope == ()
    assert b.dag.targets == (None, 0, None, 1, None, None, 2, None, 3, None, None)

    # baseline plus singletons train; everything else tests
    assert len(b.train) == 5 and len(b.test) == 11
    assert all(sum(r.levels) >= 2 for r in b.test)


def test_builtin_dream_structure():
    b = builtin_structure("dream")
    assert b.ifm.m == 10 and b.ifm.space.d == 10
    assert b.dag.targets == tuple(range(10))
    assert len(b.train) == 11 and len(b.test) == 45
    assert b.test[0].levels == (1, 1, 0, 0, 0, 0, 0, 0, 0, 0)
    assert b.test[-1].levels == (0, 0, 0, 0, 0, 0, 0, 0, 1, 1)
    assert b.ifm.factors[4].var_scope == (2, 4, 7, 8)


def test_dag_truth_flips_only_downstream_of_the_target():
    b = builtin_structure("sachs")
    truth = make_dag_truth(b, seed=7)
    base = truth.sample(RegimeVector((0, 0, 0, 0)), 40, seed=5)
    flip = truth.sample(RegimeVector((1, 0, 0, 0)), 40, seed=5)
    assert base.shape == (40, 11)

    # intervention 0 targets node 1; with shared noise only node 1 and its
    # descendants (5 then 6) can move
    changed = {j for j in range(11) if not np.array_equal(base[:, j], flip[:, j])}
    assert changed == {1, 5, 6}

    again = truth.sample(RegimeVector((0, 0, 0, 0)), 40, seed=5)
    assert np.array_equal(base, again)

    with pytest.raises(InvalidSpec):
        make_dag_truth(builtin_structure("chain3"))


def test_ifm_truth_sampling_is_seeded():
    b = builtin_structure("chain3")
    truth = make_ifm_truth(b, seed=11, bins=8, hidden=6, burn=20, thin=1)
    assert truth.m == 1 and (truth.burn, truth.thin) == (20, 1)
    assert truth.model.grid.edges[0][0] == -2.5 and truth.model.grid.edges[0][-1] == 2.5
    x = truth.sample(RegimeVector((0, 0, 0)), 30, seed=2)
    assert x.shape == (30, 1)
    assert np.array_equal(x, truth.sample(RegimeVector((0, 0, 0)), 30, seed=2))


def test_simulators_reject_unknown_keywords():
    # both truths are drawn with the same call and hold their own settings,
    # so a misspelt keyword fails instead of being dropped
    regime = RegimeVector((0, 0, 0, 0))
    sachs = builtin_structure("sachs")
    chain = builtin_structure("chain3")
    dag = make_dag_truth(sachs, seed=3)
    ifm = make_ifm_truth(chain, seed=3, bins=8, hidden=6, burn=20, thin=1)
    with pytest.raises(TypeError):
        dag.sample(regime, 5, sed=3)
    with pytest.raises(TypeError):
        ifm.sample(RegimeVector((0, 0, 0)), 5, seed=3, burn=20)


def test_make_outcome_calibrates_the_signal_variance():
    b = builtin_structure("chain3")
    truth = make_ifm_truth(b, seed=13, bins=8, hidden=6, burn=20, thin=1)
    rng = np.random.default_rng(17)
    x = rng.normal(size=(4000, 1))

    out = make_outcome(truth, seed=19, baseline_x=x)
    signal = float(np.var(x @ out.lam))
    assert 0.6 <= signal <= 0.8
    assert signal + out.noise_sd ** 2 == pytest.approx(1.0)

    ratio = make_outcome(truth, seed=19, baseline_x=x, preset="ratio")
    sig = float(np.var(x @ ratio.lam))
    assert sig + ratio.noise_sd ** 2 == pytest.approx(1.0)
    assert 1.5 <= sig / ratio.noise_sd ** 2 <= 4.0

    with pytest.raises(InvalidSpec):
        make_outcome(truth, baseline_x=x, preset="multiplicative")

    again = make_outcome(truth, seed=19, baseline_x=x)
    assert np.array_equal(again.lam, out.lam) and again.noise_sd == out.noise_sd

    # without baseline_x, as the benchmark calls it: calibrated on the truth's
    # own baseline draws, seeded from the outcome's stream after lam and the signal
    drawn = make_outcome(truth, seed=19)
    rng = np.random.default_rng(19)
    rng.standard_normal(truth.m)
    rng.uniform(0.6, 0.8)
    base = truth.sample(truth.baseline(), 20000, seed=int(rng.integers(2 ** 63)))
    signal = float(np.var(base @ drawn.lam))
    assert 0.6 <= signal <= 0.8
    assert signal + drawn.noise_sd ** 2 == pytest.approx(1.0)
    same = make_outcome(truth, seed=19, baseline_x=base)
    assert np.array_equal(same.lam, drawn.lam) and same.noise_sd == drawn.noise_sd


def test_monte_carlo_truth_edge_cases():
    # the runner's truth for a regime is the mean of out.mean over the truth's draws
    b = builtin_structure("chain3")
    truth = make_ifm_truth(b, seed=43, bins=8, hidden=6, burn=20, thin=1)
    regime = RegimeVector((0, 1, 1))

    zero = OutcomeTruth(np.zeros(1), 0.5)
    assert np.array_equal(zero.mean(truth.sample(regime, 200, seed=3)), np.zeros(200))

    # one variable, so the grid is enumerable and the draws are exact and iid
    out = OutcomeTruth(np.array([0.9]), 0.3)
    dens = exact_density(truth.model, regime)
    centers = truth.model.grid.centers[0]
    exact = float(dens @ np.tanh(out.lam[0] * centers))
    vals = out.mean(truth.sample(regime, 4000, seed=5))
    assert abs(vals.mean() - exact) <= 3.0 * vals.std(ddof=1) / np.sqrt(vals.size)

    # odd in lam, and exactly zero on a sign-symmetrized draw set
    flipped = OutcomeTruth(-out.lam, out.noise_sd)
    x = truth.sample(regime, 100, seed=7)
    assert np.array_equal(flipped.mean(x), -out.mean(x))
    mirrored = np.vstack([x, -x])
    assert float(out.mean(mirrored).mean()) == pytest.approx(0.0, abs=1e-15)


def test_prmse_and_rcor_hand_values():
    assert prmse([1.0, 2.0], [0.0, 0.0], [1.0, 4.0]) == pytest.approx(1.0)
    assert prmse([3.0], [3.0], [0.5]) == 0.0
    with pytest.raises(InvalidSpec):
        prmse([1.0], [1.0, 2.0], [1.0, 1.0])
    with pytest.raises(InvalidSpec):
        prmse([1.0], [1.0], [0.0])

    assert rcor([1.0, 2.0, 3.0], [2.0, 1.0, 3.0]) == pytest.approx(0.5)
    assert rcor([1.0, 2.0, 3.0], [10.0, 20.0, 30.0]) == pytest.approx(1.0)
    assert rcor([3.0, 2.0, 1.0], [10.0, 20.0, 30.0]) == pytest.approx(-1.0)
    # ties get average ranks
    assert rcor([1.0, 1.0, 2.0], [1.0, 2.0, 3.0]) == pytest.approx(np.sqrt(3) / 2)
    assert np.isnan(rcor([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]))
    assert np.isnan(rcor([1.0, np.nan, 2.0], [1.0, 2.0, 3.0]))
    with pytest.raises(InvalidSpec):
        rcor([1.0], [1.0])


def test_rcor_matches_scipy_spearmanr():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(59)
    for trial in range(300):
        n = int(rng.integers(2, 40))
        # integer draws give ties, normal draws none
        a = rng.integers(0, 4, n).astype(float) if trial % 2 else rng.normal(size=n)
        b = rng.integers(0, 4, n).astype(float) if trial % 3 else rng.normal(size=n)
        if np.ptp(a) == 0 or np.ptp(b) == 0:
            continue
        assert rcor(a, b) == pytest.approx(stats.spearmanr(a, b).statistic, rel=0, abs=1e-14)


def test_ridge_ranks_regimes_on_an_additive_truth():
    # when E[Y; regime] is linear in the levels, extrapolating to held-out
    # regimes is exact up to noise and the rank correlation is near 1
    b = builtin_structure("dream")
    rng = np.random.default_rng(53)
    beta = rng.normal(size=b.ifm.m)
    rows, y = [], []
    for regime in b.train:
        lv = np.array(regime.levels, dtype=float)
        rows.append(np.tile(lv, (40, 1)))
        y.append(0.3 + lv @ beta + 0.05 * rng.standard_normal(40))
    coef = _ridge_fit(np.vstack(rows), np.concatenate(y),
                      DEFAULT_CONFIG["ridge_penalty"])
    test_lv = np.array([r.levels for r in b.test], dtype=float)
    preds = np.column_stack([np.ones(len(test_lv)), test_lv]) @ coef
    assert rcor(preds, 0.3 + test_lv @ beta) > 0.9


def test_fit_dag_returns_a_working_simulator():
    b = builtin_structure("sachs")
    truth = make_dag_truth(b, seed=29)
    data = []
    for regime in list(b.train)[:3]:
        data.append(RegimeDataset(regime, truth.sample(regime, 60, seed=31)))
    fitted = fit_dag(b, data, hidden=4, steps=30, lr=1e-2, seed=37)
    x = fitted.sample(RegimeVector((1, 1, 0, 0)), 25, seed=41)
    assert x.shape == (25, 11) and np.all(np.isfinite(x))


def test_fit_dag_names_the_diverging_step():
    b = builtin_structure("sachs")
    truth = make_dag_truth(b, seed=1)
    data = [RegimeDataset(r, truth.sample(r, 30, seed=2)) for r in list(b.train)[:2]]
    with np.errstate(all="ignore"), pytest.raises(NonFinite, match=r"node 0 .*\(step 2\)"):
        fit_dag(b, data, hidden=3, steps=5, lr=1e200, seed=3)


def test_resolve_config_checks_keys_and_values():
    cfg = resolve_config({})
    assert cfg == DEFAULT_CONFIG
    assert resolve_config({"bins": 12})["bins"] == 12
    with pytest.raises(InvalidSpec):
        resolve_config({"binz": 12})
    with pytest.raises(InvalidSpec):
        resolve_config(5)
    with pytest.raises(InvalidSpec):
        resolve_config({"methods": ["gradient_boosting"]})
    with pytest.raises(InvalidSpec):
        resolve_config({"truth": "linear"})
    # values must have the type of the key's default (integral floats count as
    # integers) and lie in the key's range
    for bad in ({"n_problems": "1"}, {"bins": 2.5}, {"signal_range": 5}, {"seed": None},
                {"fit_lr": "x"}, {"structure": 5},
                {"signal_range": ["a", "b"]}, {"signal_range": [0.5]},
                {"signal_range": [0.8, 0.6]}, {"signal_range": [0.2, 1.0]},
                {"signal_range": [-0.1, 0.5]}, {"signal_range": [0.1, float("nan")]},
                {"n_problems": -1}, {"bins": 0}, {"mc_samples": 0}, {"hidden": 0},
                {"gibbs_thin": 0}, {"truth_thin": 0}, {"gibbs_burn": -1},
                {"fit_steps": -1}, {"seed": -1},
                {"fit_lr": 0.0}, {"outcome_lr": -1e-3}, {"dag_lr": 0},
                {"truth_scale": -1.0}):
        with pytest.raises(InvalidSpec, match=next(iter(bad))):
            resolve_config(bad)
    assert resolve_config({"bins": 12.0, "fit_lr": 1})["bins"] == 12
    edge = {"signal_range": [0.0, 0.0], "fit_steps": 0, "gibbs_burn": 0, "seed": 0,
            "ridge_penalty": 0.0, "variance_preset": "ratio", "truth_scale": 0.0}
    assert resolve_config(edge) == {**DEFAULT_CONFIG, **edge}
    with pytest.raises(InvalidSpec):
        run_benchmark({"structure": "chain3", "methods": ["dag_direct"]})


def test_benchmark_errors_name_the_failing_stage():
    # a span that passes the config check but whose bin edges overflow
    with np.errstate(all="ignore"), pytest.raises(DomainError, match="build truth"):
        run_benchmark({**TINY_CONFIG, "truth_span": 1e308})


@pytest.mark.parametrize("bad", [{"ridge_penalty": -1.0}, {"ridge_penalty": -2.0},
                                 {"ridge_penalty": -1e300}, {"methods": ["ridge", "ridge"]},
                                 {"variance_preset": "multiplicative"}, {"truth_span": 0.0},
                                 {"truth_span": -1.0}, {"truth_scale": -1.0}])
def test_benchmark_command_rejects_config_values_by_key(tmp_path, capsys, bad):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**TINY_CONFIG, "methods": ["ridge"], "n_problems": 1, **bad}))
    out = tmp_path / "r.json"
    assert main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert next(iter(bad)) in err and "internal error" not in err
    assert not out.exists()


def test_run_benchmark_is_deterministic(tmp_path):
    first = run_benchmark(TINY_CONFIG)
    # the shared per-run state is released with the run
    assert simbench._SHARED is None
    second = run_benchmark(TINY_CONFIG)

    assert first.data["format"] == REPORT_FORMAT
    assert first.data["structure"] == "chain3"
    assert first.data["scored_regimes"] == ["1,1,1", "1,0,1"]
    assert first.data["unidentifiable"] == []
    assert len(first.data["problems"]) == 2
    for pb in first.data["problems"]:
        for meth in TINY_CONFIG["methods"]:
            entry = pb["methods"][meth]
            assert set(entry["estimates"]) == {"1,1,1", "1,0,1"}
            assert entry["prmse"] >= 0.0
    assert set(first.data["summary"]) == set(TINY_CONFIG["methods"])

    a, b = dict(first.data), dict(second.data)
    a.pop("runtime_seconds"), b.pop("runtime_seconds")
    assert a == b
    first.write_csv(tmp_path / "run.csv")
    second.write_csv(tmp_path / "again.csv")
    assert (tmp_path / "run.csv").read_bytes() == (tmp_path / "again.csv").read_bytes()

    lines = (tmp_path / "run.csv").read_text().strip().split("\n")
    assert lines[0] == "problem,method,regime,mu_hat,mu_true,var_true"
    # problems x methods x scored regimes
    assert len(lines) == 1 + 2 * 3 * 2
    first.write_json(tmp_path / "run.json")
    assert (tmp_path / "run.json").read_text().startswith("{")


def test_csv_rows_match_the_json_estimates(tmp_path):
    report = run_benchmark({**TINY_CONFIG, "methods": ["ridge", "ifm_ipw"]})
    report.write_csv(tmp_path / "run.csv")
    report.write_json(tmp_path / "run.json")
    data = json.loads((tmp_path / "run.json").read_text())
    with open(tmp_path / "run.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))

    # problems, then methods in config order, then scored regimes in order
    assert [(int(r["problem"]), r["method"], r["regime"]) for r in rows] == [
        (pb["problem"], meth, key) for pb in data["problems"]
        for meth in ["ridge", "ifm_ipw"] for key in data["scored_regimes"]]
    for row in rows:
        pb = data["problems"][int(row["problem"])]
        truth = pb["truth"][row["regime"]]
        assert float(row["mu_hat"]) == pb["methods"][row["method"]]["estimates"][row["regime"]]
        assert (float(row["mu_true"]), float(row["var_true"])) == (truth["mu"], truth["var"])


def test_run_benchmark_weighs_each_target_once(monkeypatch):
    calls = []
    weigh = simbench.estimators._weights_toward

    def counted(model, ds, targets):
        calls.extend((ds.regime, target) for target in targets)
        return weigh(model, ds, targets)

    monkeypatch.setattr(simbench.estimators, "_weights_toward", counted)
    report = run_benchmark({**TINY_CONFIG, "methods": ["ifm_ipw", "ifm_covshift"],
                            "outcome_steps": 5})
    # one weight vector per (scored target, training regime), whatever the
    # number of problems and of estimators reading it
    n_targets, n_train = len(report.data["scored_regimes"]), len(report.data["train_regimes"])
    assert report.data["config"]["n_problems"] == 2
    assert len(calls) == len(set(calls)) == n_targets * n_train > 0

    calls.clear()
    run_benchmark({**TINY_CONFIG, "methods": ["ifm_direct", "ridge"]})
    assert calls == []


def test_identify_and_run_benchmark_make_one_certify_call(monkeypatch, tmp_path, capsys):
    calls = []
    certify = junction.certify

    def counted(ifm, train, targets, route="auto"):
        calls.append(route)
        return certify(ifm, train, targets, route)

    monkeypatch.setattr(junction, "certify", counted)
    bundle = builtin_structure("chain3")
    (tmp_path / "graph.json").write_text(json.dumps(graph_to_dict(bundle.ifm)))
    (tmp_path / "train.json").write_text(json.dumps([list(r.levels) for r in bundle.train]))
    assert main(["identify", "--graph", str(tmp_path / "graph.json"),
                 "--train", str(tmp_path / "train.json"), "--target", "1,1,1"]) == 0
    assert json.loads(capsys.readouterr().out)["identifiable"]
    assert calls == ["auto"]

    calls.clear()
    report = run_benchmark({**TINY_CONFIG, "methods": ["ridge"]})
    # every test regime goes through the one call, on identify's default route
    assert calls == ["auto"]
    assert report.data["scored_regimes"] == ["1,1,1", "1,0,1"]


def test_the_ifm_simulator_is_freed_before_the_density_fit(monkeypatch):
    refs, alive_at_fit = [], []
    make, fit = simbench.make_ifm_truth, simbench.fit_energy

    def kept(*args, **kwargs):
        truth = make(*args, **kwargs)
        refs.append(weakref.ref(truth.model))
        return truth

    def checked(*args, **kwargs):
        alive_at_fit.append([ref() is not None for ref in refs])
        return fit(*args, **kwargs)

    monkeypatch.setattr(simbench, "make_ifm_truth", kept)
    monkeypatch.setattr(simbench, "fit_energy", checked)
    run_benchmark({**TINY_CONFIG, "methods": ["ifm_direct", "ridge"]})
    # the truth's model, with its cached factor tables and messages, is gone
    assert alive_at_fit == [[False]]


class _Spy(pickle.Pickler):
    """Pickles like a worker's initargs and keeps every object it meets."""

    def __init__(self):
        super().__init__(io.BytesIO())
        self.seen = []

    def persistent_id(self, obj):
        self.seen.append(obj)


@pytest.mark.parametrize("config", [
    {**TINY_CONFIG, "methods": ["ifm_direct", "ifm_ipw", "ridge"]},
    {**TINY_CONFIG, "structure": "sachs", "truth": "dag", "methods": ["dag_direct", "ridge"],
     "n_baseline": 100, "n_regime": 40, "mc_samples": 100, "dag_hidden": 3, "dag_steps": 2,
     "fit_steps": 2, "gibbs_n": 20, "outcome_steps": 2},
], ids=["ifm", "dag"])
def test_the_shared_state_holds_no_simulator(monkeypatch, config):
    truths, drawn, states = [], [], []
    make_ifm, make_dag, set_shared = (simbench.make_ifm_truth, simbench.make_dag_truth,
                                      simbench._set_shared)

    def kept(make):
        def build(*args, **kwargs):
            truths.append(make(*args, **kwargs))
            return truths[-1]
        return build

    def recorded(shared):
        if shared is not None:
            spy = _Spy()
            spy.dump(shared)
            states.append(spy.seen)
        set_shared(shared)

    def counted(draw):
        # `fit_dag` returns a DagTruth too; only the simulator's rows count
        def sample(self, *args, **kwargs):
            x = draw(self, *args, **kwargs)
            if self is truths[0]:
                drawn.append(x)
            return x
        return sample

    monkeypatch.setattr(simbench, "make_ifm_truth", kept(make_ifm))
    monkeypatch.setattr(simbench, "make_dag_truth", kept(make_dag))
    monkeypatch.setattr(simbench.IfmTruth, "sample", counted(simbench.IfmTruth.sample))
    monkeypatch.setattr(simbench.DagTruth, "sample", counted(simbench.DagTruth.sample))
    monkeypatch.setattr(simbench, "_set_shared", recorded)
    run_benchmark(config)
    assert len(truths) == len(states) == 1
    banned = {id(truths[0]), id(getattr(truths[0], "model", truths[0]))} | set(map(id, drawn))
    # what a worker receives: the fitted state and copies of the training
    # rows; no simulator, and none of its calibration or Monte Carlo rows
    assert not [obj for obj in states[0]
                if isinstance(obj, (simbench.IfmTruth, simbench.DagTruth)) or id(obj) in banned]


class _SerialPool:
    """Stand-in for ProcessPoolExecutor: records its size, maps in-process."""

    sizes = []

    def __init__(self, max_workers, initializer, initargs):
        self.sizes.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        simbench._set_shared(None)

    def map(self, fn, tasks):
        return map(fn, tasks)


def test_run_benchmark_pool_never_outnumbers_the_problems(monkeypatch):
    # run_benchmark imports the pool class only when it pools
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _SerialPool)
    _SerialPool.sizes.clear()
    # no process is started: the pool is a serial stand-in
    pooled = run_benchmark({**TINY_CONFIG, "methods": ["ridge"]}, jobs=8)
    assert _SerialPool.sizes == [2]
    assert len(pooled.data["problems"]) == 2


def test_run_benchmark_merge_does_not_depend_on_jobs(tmp_path):
    solo = run_benchmark(TINY_CONFIG, jobs=1)
    pooled = run_benchmark(TINY_CONFIG, jobs=2)
    a, b = dict(solo.data), dict(pooled.data)
    a.pop("runtime_seconds"), b.pop("runtime_seconds")
    assert a == b
    solo.write_csv(tmp_path / "solo.csv")
    pooled.write_csv(tmp_path / "pooled.csv")
    assert (tmp_path / "solo.csv").read_bytes() == (tmp_path / "pooled.csv").read_bytes()


# what the in-process benchmark does: import simbench, then time runs; a
# serial run loads no package module and no process-pool machinery
RUN_IMPORTS = """
import json, sys
import regimecast.simbench
before = {m for m in sys.modules if m.startswith("regimecast")}
regimecast.simbench.run_benchmark(json.loads(sys.argv[1]), jobs=1)
pool = {m for m in sys.modules if m == "concurrent.futures.process"
        or m.split(".")[0] == "multiprocessing"}
print(json.dumps(sorted({m for m in sys.modules if m.startswith("regimecast")} - before | pool)))
"""


def test_a_run_imports_no_package_module():
    config = {**TINY_CONFIG, "n_problems": 1,
              "methods": ["ifm_direct", "ifm_ipw", "ifm_covshift", "ridge"]}
    assert run_python(RUN_IMPORTS, json.dumps(config)) == []
