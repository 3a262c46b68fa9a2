"""Synthetic ground truths, built-in benchmark structures, and the runner.

Two simulator families share each structure: a DAG truth with per-node
location/scale nets (intervention levels switch the parameters of their
target node's equation) and a product-of-potentials truth with randomly
seeded nets over the same factors. Outcomes are y = tanh(lam . x) + noise
with the signal variance calibrated under the baseline regime. The runner
certifies every test regime before scoring it, draws every truth row it
needs in one stage and then drops the simulator, fits the estimators, and
reports per-problem errors plus summaries.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import estimators, junction
from .algebraic import PrTransformation, Unidentifiable
from .energy import EnergyModel, Grid, discretize, fit as fit_energy, new_model
from .errors import DegenerateVariable, InvalidSpec, UnknownStructure
from .fileio import read_int, read_list, regime_text
from .model import (
    FactorSpec,
    IfmStructure,
    InterventionSpace,
    RegimeDataset,
    RegimeSet,
    RegimeVector,
)
from .nets import init_mlp, mlp_backward, mlp_forward, train
from .sampling import sample

REPORT_FORMAT = "regimecast-benchmark-report"
REPORT_FORMAT_VERSION = 1

_SCALE_FLOOR = 1e-3


@dataclass(frozen=True)
class DagSpec:
    """Parent sets, per-node intervention target (or None), topological order."""

    parents: tuple
    targets: tuple
    order: tuple


@dataclass(frozen=True)
class StructureBundle:
    """A named benchmark problem: structure, optional DAG, regime split."""

    name: str
    ifm: IfmStructure
    dag: DagSpec | None
    train: RegimeSet
    test: RegimeSet


def _topological_order(parents) -> tuple:
    m = len(parents)
    remaining = set(range(m))
    order = []
    while remaining:
        ready = sorted(k for k in remaining if all(p not in remaining for p in parents[k]))
        if not ready:
            raise InvalidSpec("parent sets contain a cycle")
        order.append(ready[0])
        remaining.discard(ready[0])
    return tuple(order)


def _dag_bundle(name, var_names, intv_names, edges, target_nodes, test_regimes) -> StructureBundle:
    m = len(var_names)
    parents = [set() for _ in range(m)]
    for a, b in edges:
        parents[b].add(a)
    parents = tuple(tuple(sorted(p)) for p in parents)

    node_of_intv = dict(enumerate(target_nodes))
    targets = [None] * m
    for j, node in node_of_intv.items():
        targets[node] = j

    factors = []
    for k in range(m):
        scope = tuple(sorted({k, *parents[k]}))
        intv = (targets[k],) if targets[k] is not None else ()
        factors.append(FactorSpec(scope, intv))

    space = InterventionSpace(tuple(intv_names), (2,) * len(intv_names))
    ifm = IfmStructure(m, space, tuple(factors), tuple(var_names))
    dag = DagSpec(parents, tuple(targets), _topological_order(parents))

    d = space.d
    train = [RegimeVector((0,) * d)]
    for j in range(d):
        levels = [0] * d
        levels[j] = 1
        train.append(RegimeVector(tuple(levels)))
    return StructureBundle(name, ifm, dag, RegimeSet(tuple(train)), RegimeSet.of(test_regimes))


def builtin_structure(name: str) -> StructureBundle:
    """Named benchmark structures with their train/test regime splits.

    "chain3" and "triangle" are single-variable problems with three binary
    interventions whose pairwise factor overlaps form a path and a cycle;
    "sachs" and "dream" are DAG-backed problems whose factors are each
    node together with its parents, switched by the node's intervention.
    """
    if name == "chain3":
        space = InterventionSpace(("s1", "s2", "s3"), (2, 2, 2))
        ifm = IfmStructure(
            1, space,
            (FactorSpec((0,), (0, 1)), FactorSpec((0,), (1, 2))),
            ("x1",),
        )
        train = RegimeSet.of([
            (0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0), (0, 0, 1), (0, 1, 1),
        ])
        test = RegimeSet.of([(1, 1, 1), (1, 0, 1)])
        return StructureBundle(name, ifm, None, train, test)

    if name == "triangle":
        space = InterventionSpace(("s1", "s2", "s3"), (2, 2, 2))
        ifm = IfmStructure(
            1, space,
            (FactorSpec((0,), (0, 1)), FactorSpec((0,), (1, 2)), FactorSpec((0,), (0, 2))),
            ("x1",),
        )
        train = RegimeSet.of([
            (0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0), (0, 0, 1), (0, 1, 1), (1, 0, 1),
        ])
        test = RegimeSet.of([(1, 1, 1)])
        return StructureBundle(name, ifm, None, train, test)

    if name == "sachs":
        var_names = [f"x{i}" for i in range(1, 12)]
        edges = [
            (0, 1), (1, 5), (2, 3), (2, 8), (3, 8), (4, 2), (4, 3), (4, 6),
            (5, 6), (7, 0), (7, 1), (7, 5), (7, 6), (7, 9), (7, 10),
            (8, 0), (8, 1), (8, 7), (8, 9), (8, 10),
        ]
        intv_names = ["u0126", "psitect", "aktinhib", "g0076"]
        target_nodes = [1, 3, 6, 8]
        all_regimes = list(itertools.product((0, 1), repeat=4))
        train = {(0, 0, 0, 0)} | {tuple(int(i == j) for i in range(4)) for j in range(4)}
        test = [r for r in all_regimes if r not in train]
        return _dag_bundle(name, var_names, intv_names, edges, target_nodes, test)

    if name == "dream":
        var_names = [f"x{i}" for i in range(1, 11)]
        edges = [
            (1, 0), (1, 2), (2, 3), (2, 4), (2, 5), (2, 6),
            (7, 4), (7, 6), (8, 3), (8, 4), (9, 6),
        ]
        intv_names = [f"ko{i}" for i in range(1, 11)]
        target_nodes = list(range(10))
        test = []
        for i in range(10):
            for j in range(i + 1, 10):
                levels = [0] * 10
                levels[i] = 1
                levels[j] = 1
                test.append(tuple(levels))
        return _dag_bundle(name, var_names, intv_names, edges, target_nodes, test)

    raise UnknownStructure(f"no built-in structure named {name!r}")


def _softplus(z):
    return np.logaddexp(0.0, z)


@dataclass(eq=False)
class DagTruth:
    """Location/scale equations along a DAG, switched by intervention levels.

    Per node there is one (mean, scale) net pair per level of the node's
    intervention (a single pair when untargeted); a level flip changes only
    its target node's conditional. Serves both as a simulator and as the
    fitted form of the DAG-based estimator.
    """

    ifm: IfmStructure
    dag: DagSpec
    mean_nets: tuple
    scale_nets: tuple

    @property
    def m(self) -> int:
        return self.ifm.m

    def baseline(self) -> RegimeVector:
        return self.ifm.space.baseline()

    def sample(self, regime: RegimeVector, n: int, seed: int = 0) -> np.ndarray:
        """Ancestral draws; tanh-bounded means keep every moment finite."""
        self.ifm.space.check_regime(regime)
        rng = np.random.default_rng(seed)
        x = np.zeros((n, self.m))
        for k in self.dag.order:
            level = regime[self.dag.targets[k]] if self.dag.targets[k] is not None else 0
            feats = x[:, self.dag.parents[k]]
            mean, _ = mlp_forward(self.mean_nets[k][level], feats)
            raw, _ = mlp_forward(self.scale_nets[k][level], feats)
            scale = _softplus(raw) + _SCALE_FLOOR
            x[:, k] = mean + scale * rng.standard_normal(n)
        return x


def make_dag_truth(bundle: StructureBundle, seed: int = 0, hidden: int = 10) -> DagTruth:
    """Randomly seeded DAG simulator for a bundle that carries a DAG."""
    if bundle.dag is None:
        raise InvalidSpec(f"structure {bundle.name!r} has no DAG")
    rng = np.random.default_rng(seed)
    space = bundle.ifm.space
    mean_nets, scale_nets = [], []
    for k in range(bundle.ifm.m):
        t = bundle.dag.targets[k]
        n_sets = space.cardinalities[t] if t is not None else 1
        fan_in = len(bundle.dag.parents[k])
        mean_nets.append(tuple(init_mlp(fan_in, hidden, rng, out_scale=1.0) for _ in range(n_sets)))
        scale_nets.append(tuple(init_mlp(fan_in, hidden, rng, out_scale=0.5) for _ in range(n_sets)))
    return DagTruth(bundle.ifm, bundle.dag, tuple(mean_nets), tuple(scale_nets))


@dataclass(eq=False)
class IfmTruth:
    """A randomly seeded potential model used as a simulator, with the Gibbs
    `burn` and `thin` its draws use when the grid is too large to enumerate."""

    model: EnergyModel
    burn: int
    thin: int

    @property
    def m(self) -> int:
        return self.model.ifm.m

    def baseline(self) -> RegimeVector:
        return self.model.ifm.space.baseline()

    def sample(self, regime: RegimeVector, n: int, seed: int = 0) -> np.ndarray:
        return sample(self.model, regime, n, burn=self.burn, thin=self.thin, seed=seed)


def make_ifm_truth(bundle: StructureBundle, seed: int = 0, bins: int = 20,
                   span: float = 2.5, hidden: int = 15, scale: float = 1.0,
                   burn: int = 500, thin: int = 5) -> IfmTruth:
    """Potential-model simulator over the bundle's own factors.

    The grid is fixed at `bins` uniform bins on [-span, span] per variable;
    `scale` sets the spread of the random output layers, and with it how
    strongly level patterns interact. `burn` and `thin` are the simulator's
    Gibbs settings.
    """
    edges = tuple(np.linspace(-span, span, bins + 1) for _ in range(bundle.ifm.m))
    model = new_model(bundle.ifm, Grid(edges), hidden=hidden, seed=seed, out_scale=scale)
    return IfmTruth(model, burn, thin)


@dataclass(eq=False)
class OutcomeTruth:
    """y = tanh(lam . x) + noise with a fixed noise standard deviation."""

    lam: np.ndarray
    noise_sd: float

    def mean(self, x) -> np.ndarray:
        return np.tanh(np.atleast_2d(np.asarray(x, dtype=float)) @ self.lam)

    def draw(self, x, rng: np.random.Generator) -> np.ndarray:
        mu = self.mean(x)
        return mu + self.noise_sd * rng.standard_normal(mu.shape[0])


def make_outcome(truth, seed: int = 0, baseline_x=None, n_calib: int = 20000,
                 signal_range=(0.6, 0.8), preset: str = "additive") -> OutcomeTruth:
    """Random outcome with the signal variance calibrated under baseline.

    The direction lam is standard normal, then rescaled so Var(lam . x) on
    baseline draws hits a target: a uniform draw from `signal_range` with
    noise variance 1 minus the target ("additive" preset), or a uniform
    signal-to-noise ratio in [1.5, 4] with total variance 1 ("ratio").
    Scaling lam by c scales the signal variance by c^2, so one Monte Carlo
    variance estimate calibrates it in closed form.
    """
    rng = np.random.default_rng(seed)
    lam0 = rng.standard_normal(truth.m)
    if preset == "additive":
        signal = rng.uniform(*signal_range)
        v_noise = 1.0 - signal
    elif preset == "ratio":
        ratio = rng.uniform(1.5, 4.0)
        signal = ratio / (1.0 + ratio)
        v_noise = 1.0 / (1.0 + ratio)
    else:
        raise InvalidSpec(f"unknown variance preset {preset!r}")
    if not 0.0 < v_noise:
        raise InvalidSpec("noise variance must be positive")

    if baseline_x is None:
        baseline_x = truth.sample(truth.baseline(), n_calib, seed=int(rng.integers(2 ** 63)))
    s = np.asarray(baseline_x) @ lam0
    var_s = float(s.var())
    if var_s <= 1e-12:
        raise DegenerateVariable("baseline signal variance is zero; cannot calibrate")
    lam = lam0 * np.sqrt(signal / var_s)
    return OutcomeTruth(lam, float(np.sqrt(v_noise)))


def prmse(estimates, truths, truth_variances) -> float:
    """Mean squared estimation error, each entry scaled by the true Var(Y)."""
    est = np.asarray(estimates, dtype=float)
    tru = np.asarray(truths, dtype=float)
    var = np.asarray(truth_variances, dtype=float)
    if not (est.shape == tru.shape == var.shape) or est.ndim != 1 or est.size == 0:
        raise InvalidSpec("need equal-length non-empty 1-D inputs")
    if np.any(var <= 0):
        raise InvalidSpec("true variances must be positive")
    return float(np.mean((est - tru) ** 2 / var))


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the average of their ranks."""
    order = np.argsort(v, kind="stable")
    _, first, counts = np.unique(v[order], return_index=True, return_counts=True)
    ranks = np.empty(v.size)
    ranks[order] = np.repeat(first + (counts + 1) / 2.0, counts)
    return ranks


def rcor(estimates, truths) -> float:
    """Spearman rank correlation with average ranks on ties; nan when an
    input is constant or holds a nan."""
    est = np.asarray(estimates, dtype=float)
    tru = np.asarray(truths, dtype=float)
    if est.shape != tru.shape or est.ndim != 1 or est.size < 2:
        raise InvalidSpec("need two equal-length vectors of length >= 2")
    if np.isnan(est).any() or np.isnan(tru).any():
        return float("nan")
    with np.errstate(invalid="ignore"):  # a constant input has no spread
        return float(np.corrcoef(_average_ranks(est), _average_ranks(tru))[0, 1])


def fit_dag(bundle: StructureBundle, datasets, hidden: int = 10, steps: int = 1500,
            lr: float = 1e-2, seed: int = 0) -> DagTruth:
    """Fit DAG location/scale nets by Gaussian likelihood, per local level.

    Each node's parameter set for level v trains on the pooled rows of the
    regimes whose target intervention sits at v; untargeted nodes train on
    everything. Scales go through the same softplus floor used in sampling.
    """
    if bundle.dag is None:
        raise InvalidSpec(f"structure {bundle.name!r} has no DAG")
    rng = np.random.default_rng(seed)
    space = bundle.ifm.space
    mean_nets, scale_nets = [], []
    for k in range(bundle.ifm.m):
        t = bundle.dag.targets[k]
        n_sets = space.cardinalities[t] if t is not None else 1
        fan_in = len(bundle.dag.parents[k])
        means, scales = [], []
        for level in range(n_sets):
            rows_x, rows_t = [], []
            for ds in datasets:
                local = ds.regime[t] if t is not None else 0
                if local == level:
                    rows_x.append(ds.x[:, bundle.dag.parents[k]])
                    rows_t.append(ds.x[:, k])
            mnet = init_mlp(fan_in, hidden, rng, out_scale=0.0)
            snet = init_mlp(fan_in, hidden, rng, out_scale=0.0)
            if rows_x:
                feats = np.asfortranarray(np.vstack(rows_x))  # column-major once; no copy if already
                tvals = np.concatenate(rows_t)

                def nll_and_grad():
                    mu, hm = mlp_forward(mnet, feats)
                    raw, hs = mlp_forward(snet, feats)
                    g = _softplus(raw) + _SCALE_FLOOR
                    resid = tvals - mu
                    nll = float(np.sum(np.log(g) + 0.5 * (resid / g) ** 2))
                    dmu = -(resid / g ** 2) / len(tvals)
                    dsoft = 1.0 / (1.0 + np.exp(-raw))  # softplus' = logistic
                    draw_ = (1.0 / g - resid ** 2 / g ** 3) * dsoft / len(tvals)
                    grads = mlp_backward(mnet, feats, hm, dmu) + mlp_backward(snet, feats, hs, draw_)
                    return nll, grads
                train([mnet, snet], nll_and_grad, steps, lr, f"node {k} likelihood")
            means.append(mnet)
            scales.append(snet)
        mean_nets.append(tuple(means))
        scale_nets.append(tuple(scales))
    return DagTruth(bundle.ifm, bundle.dag, tuple(mean_nets), tuple(scale_nets))


def _ridge_fit(levels_rows: np.ndarray, y: np.ndarray, penalty: float) -> np.ndarray:
    """Closed-form ridge of y on intervention levels, intercept unpenalized."""
    phi = np.column_stack([np.ones(len(y)), levels_rows])
    reg = penalty * np.eye(phi.shape[1])
    reg[0, 0] = 0.0
    return np.linalg.solve(phi.T @ phi + reg, phi.T @ y)


DEFAULT_CONFIG = {
    "structure": "chain3",
    "truth": "ifm",
    "seed": 0,
    "n_problems": 100,
    "methods": ["ifm_direct", "ifm_ipw", "ifm_covshift", "ridge"],
    "n_baseline": 5000,
    "n_regime": 500,
    "mc_samples": 25000,
    "bins": 20,
    "hidden": 15,
    "fit_steps": 1500,
    "fit_lr": 1e-3,
    "outcome_hidden": 15,
    "outcome_steps": 1500,
    "outcome_lr": 1e-2,
    "gibbs_n": 5000,
    "gibbs_burn": 500,
    "gibbs_thin": 5,
    "truth_burn": 500,
    "truth_thin": 5,
    "ridge_penalty": 1.0,
    "dag_hidden": 10,
    "dag_steps": 1500,
    "dag_lr": 1e-2,
    "signal_range": [0.6, 0.8],
    "variance_preset": "additive",
    "truth_scale": 1.0,
    "truth_hidden": 15,
    "truth_bins": 20,
    "truth_span": 2.5,
}

_METHODS = ("ifm_direct", "ifm_ipw", "ifm_covshift", "ridge", "dag_direct")

# smallest value of each integer key: sizes, widths and thinning need one,
# seeds and step or burn counts may be zero
_AT_LEAST = {
    **dict.fromkeys(("n_problems", "n_baseline", "n_regime", "mc_samples", "bins",
                     "truth_bins", "hidden", "truth_hidden", "outcome_hidden", "dag_hidden",
                     "gibbs_n", "gibbs_thin", "truth_thin"), 1),
    **dict.fromkeys(("seed", "fit_steps", "outcome_steps", "dag_steps", "gibbs_burn",
                     "truth_burn"), 0),
}
# float keys that must be > 0
_POSITIVE = ("fit_lr", "outcome_lr", "dag_lr", "truth_span")


def _finite_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def resolve_config(config: dict) -> dict:
    """Overlay user settings on the defaults, rejecting unknown keys, values
    whose type differs from the default's, and values out of range."""
    if not isinstance(config, dict):
        raise InvalidSpec("benchmark config must be a JSON object")
    unknown = set(config) - set(DEFAULT_CONFIG)
    if unknown:
        raise InvalidSpec(f"unknown benchmark config keys: {sorted(unknown)}")
    cfg = dict(DEFAULT_CONFIG)
    for key, value in config.items():
        default, what = DEFAULT_CONFIG[key], f"benchmark config {key!r}"
        if isinstance(default, int):
            value = read_int(value, what)
            if value < _AT_LEAST[key]:
                raise InvalidSpec(f"{what} must be >= {_AT_LEAST[key]}, got {value}")
        elif isinstance(default, float):
            if not _finite_number(value):
                raise InvalidSpec(f"{what} must be a finite number, got {value!r}")
            if key in _POSITIVE and value <= 0:
                raise InvalidSpec(f"{what} must be > 0, got {value!r}")
            if key in ("ridge_penalty", "truth_scale") and value < 0:
                raise InvalidSpec(f"{what} must be >= 0, got {value!r}")
        elif isinstance(default, list):
            read_list(value, what)
        elif not isinstance(value, str):
            raise InvalidSpec(f"{what} must be a string, got {value!r}")
        cfg[key] = value
    lo_hi = cfg["signal_range"]
    if not (len(lo_hi) == 2 and all(map(_finite_number, lo_hi))
            and 0 <= lo_hi[0] <= lo_hi[1] < 1):
        raise InvalidSpec("benchmark config 'signal_range' must be two finite numbers "
                          f"with 0 <= lo <= hi < 1, got {lo_hi!r}")
    cfg["methods"] = list(cfg["methods"])
    for i, meth in enumerate(cfg["methods"]):
        if meth not in _METHODS:
            raise InvalidSpec(f"unknown method {meth!r}; choose from {_METHODS}")
        if meth in cfg["methods"][:i]:
            raise InvalidSpec(f"benchmark config 'methods' lists {meth!r} more than once")
    if cfg["variance_preset"] not in ("additive", "ratio"):
        raise InvalidSpec("benchmark config 'variance_preset' must be 'additive' or 'ratio', "
                          f"got {cfg['variance_preset']!r}")
    if cfg["truth"] not in ("ifm", "dag"):
        raise InvalidSpec("truth must be 'ifm' or 'dag'")
    return cfg


@dataclass
class BenchmarkReport:
    """Full run record; `data` is JSON-ready and holds every estimate once."""

    data: dict

    def to_json(self) -> str:
        return json.dumps(self.data, indent=2, sort_keys=True)

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["problem", "method", "regime", "mu_hat", "mu_true", "var_true"])
            # methods in config order, then scored regimes in target order
            for pb in self.data["problems"]:
                for meth in self.data["config"]["methods"]:
                    for key in self.data["scored_regimes"]:
                        values = (pb["methods"][meth]["estimates"][key],
                                  pb["truth"][key]["mu"], pb["truth"][key]["var"])
                        writer.writerow([pb["problem"], meth, key] + [repr(float(v)) for v in values])


@contextmanager
def _stage(name: str):
    """Prefix escaping errors with the pipeline stage that raised them."""
    try:
        yield
    except Exception as exc:
        exc.args = (f"{name}: {exc}",) + exc.args[1:]
        raise


_SHARED = None


def _set_shared(shared):
    global _SHARED
    _SHARED = shared


def _true_moments(truth, regime, n, seed, outcomes):
    """Each outcome's true mean and variance of y under `regime`, from n of
    the truth's draws; the draws are freed on return."""
    x = truth.sample(regime, n, seed=seed)
    moments = []
    for outcome in outcomes:
        vals = outcome.mean(x)
        moments.append((float(vals.mean()), float(vals.var()) + outcome.noise_sd ** 2))
    return moments


def _run_problem(args):
    """One outcome problem end to end, from its outcome truth, each scored
    regime's true (mean, variance) and the shared fitted state."""
    p, seeds, outcome, true = args
    sh = _SHARED
    cfg = sh["cfg"]
    targets = sh["targets"]

    with _stage(f"problem {p}: draw outcomes"):
        rng_y = np.random.default_rng(seeds["noise"])
        datasets_y = []
        for ds in sh["datasets"]:
            datasets_y.append(ds.with_y(outcome.draw(ds.x, rng_y)))

    methods = {}
    onet = None
    if {"ifm_direct", "dag_direct"} & set(cfg["methods"]):
        with _stage(f"problem {p}: fit outcome net"):
            onet = estimators.fit_outcome(
                datasets_y, hidden=cfg["outcome_hidden"], steps=cfg["outcome_steps"],
                lr=cfg["outcome_lr"], seed=seeds["outcome_fit"],
            )
    for meth in cfg["methods"]:
        est = {}
        with _stage(f"problem {p}: estimate with {meth}"):
            if meth == "ifm_direct":
                for t in targets:
                    est[t] = estimators.estimate_direct(onet, sh["draws_fit"][t]).mu
            elif meth == "ifm_ipw":
                for t in targets:
                    est[t] = estimators.estimate_ipw(datasets_y, sh["weights"][t]).mu
            elif meth == "ifm_covshift":
                shift_rng = np.random.default_rng(seeds["covshift"])
                for t in targets:
                    refit = estimators.fit_outcome(
                        datasets_y, hidden=cfg["outcome_hidden"], steps=cfg["outcome_steps"],
                        lr=cfg["outcome_lr"], seed=int(shift_rng.integers(2 ** 63)),
                        weights=sh["weights"][t],
                    )
                    est[t] = estimators.estimate_direct(refit, sh["draws_fit"][t]).mu
            elif meth == "ridge":
                rows = np.vstack([
                    np.tile(np.asarray(ds.regime.levels, dtype=float), (ds.n, 1))
                    for ds in datasets_y
                ])
                beta = _ridge_fit(rows, np.concatenate([ds.y for ds in datasets_y]),
                                  cfg["ridge_penalty"])
                for t in targets:
                    est[t] = float(beta[0] + np.asarray(t.levels, dtype=float) @ beta[1:])
            elif meth == "dag_direct":
                for t in targets:
                    est[t] = estimators.estimate_direct(onet, sh["draws_dag"][t]).mu

        entry = {"estimates": {regime_text(t): est[t] for t in targets}}
        if targets:
            ests = [est[t] for t in targets]
            trus = [true[t][0] for t in targets]
            entry["prmse"] = prmse(ests, trus, [true[t][1] for t in targets])
            entry["rcor"] = rcor(ests, trus) if len(targets) >= 2 else None
        else:
            entry["prmse"] = None
            entry["rcor"] = None
        methods[meth] = entry

    return {
        "problem": p,
        "truth": {
            regime_text(t): {"mu": mu, "var": var} for t, (mu, var) in true.items()
        },
        "methods": methods,
    }


def run_benchmark(config: dict, jobs: int = 1) -> BenchmarkReport:
    """Run the full pipeline for a config; deterministic given the config.

    Stages: build the structure, seed the truth, certify every test regime
    (unidentifiable ones are reported, never scored), then simulate: draw
    every row the truth gives (training X, baseline calibration rows and
    each scored regime's Monte Carlo rows), calibrate each problem's
    outcome truth on the calibration rows and take each scored regime's
    true mean and variance under it from the Monte Carlo rows. The
    simulator and its rows are dropped there, so its factor tables are
    freed before the density model is fitted once. Then draw the fitted
    model's samples, weigh the training rows toward each scored regime once
    (when `ifm_ipw` or `ifm_covshift` is asked for; both read these
    weights), and score `n_problems` independent outcome problems. With
    jobs > 1 problems run in at most that many worker processes, never more
    than there are problems; workers receive the fitted state, the training
    rows and, per problem, one outcome truth with its true means and
    variances, never the simulator. The merge is by problem index so the
    report does not depend on jobs. A jobs below 1 raises InvalidSpec.
    """
    if jobs < 1:
        raise InvalidSpec(f"jobs must be >= 1, got {jobs}")
    cfg = resolve_config(config)
    t_start = time.perf_counter()
    bundle = builtin_structure(cfg["structure"])
    if "dag_direct" in cfg["methods"] and bundle.dag is None:
        raise InvalidSpec(f"dag_direct needs a DAG; {bundle.name!r} has none")

    seeder = np.random.default_rng(cfg["seed"])

    def draw_seed() -> int:
        return int(seeder.integers(2 ** 63))

    # seeds are drawn in one fixed order so runs are reproducible
    truth_seed = draw_seed()
    data_seeds = [draw_seed() for _ in bundle.train]
    fit_seed = draw_seed()
    calib_seed = draw_seed()
    mc_seeds = [draw_seed() for _ in bundle.test]
    gibbs_seeds = [draw_seed() for _ in bundle.test]
    dag_fit_seed = draw_seed()
    problem_seeds = [
        {
            "outcome": draw_seed(),
            "noise": draw_seed(),
            "outcome_fit": draw_seed(),
            "covshift": draw_seed(),
        }
        for _ in range(cfg["n_problems"])
    ]

    with _stage("build truth"):
        if cfg["truth"] == "ifm":
            truth = make_ifm_truth(
                bundle, truth_seed, bins=cfg["truth_bins"], span=cfg["truth_span"],
                hidden=cfg["truth_hidden"], scale=cfg["truth_scale"],
                burn=cfg["truth_burn"], thin=cfg["truth_thin"],
            )
        else:
            truth = make_dag_truth(bundle, truth_seed, hidden=cfg["dag_hidden"])

    with _stage("certify test regimes"):
        _, results = junction.certify(bundle.ifm, bundle.train, bundle.test)
        targets = [r.target for r in results if isinstance(r, PrTransformation)]
        unidentifiable = [{"regime": regime_text(r.target), "reason": r.reason}
                          for r in results if isinstance(r, Unidentifiable)]

    with _stage("simulate from the truth"):
        datasets = []
        for regime, dseed in zip(bundle.train, data_seeds):
            n = cfg["n_baseline"] if regime.is_baseline() else cfg["n_regime"]
            datasets.append(RegimeDataset(regime, truth.sample(regime, n, seed=dseed)))
        calib_x = truth.sample(truth.baseline(), cfg["mc_samples"], seed=calib_seed)
    outcomes = []
    for p, seeds in enumerate(problem_seeds):
        with _stage(f"problem {p}: draw outcomes"):
            outcomes.append(make_outcome(
                truth, seeds["outcome"], baseline_x=calib_x,
                signal_range=tuple(cfg["signal_range"]), preset=cfg["variance_preset"],
            ))
    with _stage("simulate from the truth"):
        moments = {t: _true_moments(truth, t, cfg["mc_samples"], ms, outcomes)
                   for t, ms in zip(targets, mc_seeds)}
    # nothing reads the simulator or its rows after this, so its factor
    # tables and messages are freed before the fit
    del truth, calib_x

    with _stage("fit density model"):
        grid = discretize(datasets, bins=cfg["bins"], names=bundle.ifm.var_names)
        model0 = new_model(bundle.ifm, grid, hidden=cfg["hidden"], seed=fit_seed)
        model, _fitlog = fit_energy(model0, datasets, steps=cfg["fit_steps"], lr=cfg["fit_lr"])

    with _stage("draw evaluation samples"):
        draws_fit, draws_dag = {}, {}
        for t, gs in zip(targets, gibbs_seeds):
            draws_fit[t] = sample(
                model, t, cfg["gibbs_n"], burn=cfg["gibbs_burn"],
                thin=cfg["gibbs_thin"], seed=gs,
            )
        if "dag_direct" in cfg["methods"]:
            fitted_dag = fit_dag(
                bundle, datasets, hidden=cfg["dag_hidden"], steps=cfg["dag_steps"],
                lr=cfg["dag_lr"], seed=dag_fit_seed,
            )
            for t, gs in zip(targets, gibbs_seeds):
                draws_dag[t] = fitted_dag.sample(t, cfg["gibbs_n"], seed=gs)

    weights = {}
    if {"ifm_ipw", "ifm_covshift"} & set(cfg["methods"]):
        with _stage("weigh training rows"):
            # one pass over each dataset's rows for every target
            per_dataset = [estimators._weights_toward(model, ds, targets) for ds in datasets]
            weights = {t: list(ws) for t, ws in zip(targets, zip(*per_dataset))}

    shared = {
        "cfg": cfg,
        "targets": targets,
        "datasets": datasets,
        "draws_fit": draws_fit,
        "draws_dag": draws_dag,
        "weights": weights,
    }
    tasks = [(p, seeds, outcome, {t: moments[t][p] for t in targets})
             for p, (seeds, outcome) in enumerate(zip(problem_seeds, outcomes))]
    if jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks)), initializer=_set_shared,
                                 initargs=(shared,)) as pool:
            problems = list(pool.map(_run_problem, tasks))
    else:
        _set_shared(shared)
        try:
            problems = [_run_problem(task) for task in tasks]
        finally:
            _set_shared(None)
    problems.sort(key=lambda entry: entry["problem"])

    summary = {}
    for meth in cfg["methods"]:
        pr = [pb["methods"][meth]["prmse"] for pb in problems if pb["methods"][meth]["prmse"] is not None]
        rc = [pb["methods"][meth]["rcor"] for pb in problems if pb["methods"][meth]["rcor"] is not None]
        summary[meth] = {
            "prmse_mean": float(np.mean(pr)) if pr else None,
            "prmse_median": float(np.median(pr)) if pr else None,
            "rcor_mean": float(np.mean(rc)) if rc else None,
        }

    data = {
        "format": REPORT_FORMAT,
        "format_version": REPORT_FORMAT_VERSION,
        "config": cfg,
        "structure": bundle.name,
        "train_regimes": [regime_text(r) for r in bundle.train],
        "test_regimes": [regime_text(r) for r in bundle.test],
        "scored_regimes": [regime_text(t) for t in targets],
        "unidentifiable": unidentifiable,
        "problems": problems,
        "summary": summary,
        "runtime_seconds": time.perf_counter() - t_start,
    }
    return BenchmarkReport(data)
