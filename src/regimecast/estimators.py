"""Outcome-mean estimators for a target regime, built on a fitted model.

Three routes to E[Y; target]: average a regression net over model draws
under the target (direct, `estimate_direct`), reweight observed outcomes by
density ratios toward the target (IPW, `estimate_ipw`), or refit the
regression under those weights and average the refit over the draws
(covariate shift: `estimate_direct` of `fit_outcome(..., weights=...)`).
Each estimator takes the draws or weights it reads; callers make them once
with `sampling.sample` and `regime_weights`. A weighted split conformal
procedure turns the direct estimate into a band whose coverage holds when
the model's density ratios are exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .energy import EnergyModel, _log_ratios, log_ratio_rows
from .errors import (
    InsufficientData,
    InvalidSpec,
    MissingOutcome,
    ModelFormatError,
    require_keys,
)
from .fileio import check_format, read_int, read_json
from .model import RegimeDataset, RegimeVector
from .nets import init_mlp, mlp_backward, mlp_forward, mlp_from_dict, mlp_to_dict, train
from .sampling import sample

OUTCOME_FORMAT = "regimecast-outcome-model"
OUTCOME_FORMAT_VERSION = 1


@dataclass(eq=False)
class OutcomeModel:
    """Regression net x -> y over raw (unbinned) variable values."""

    net: object
    m: int
    seed: int


def predict_outcome(outcome: OutcomeModel, x) -> np.ndarray:
    xm = np.atleast_2d(np.asarray(x, dtype=float))
    if xm.shape[1] != outcome.m:
        raise InvalidSpec(f"rows have {xm.shape[1]} columns, model expects {outcome.m}")
    return mlp_forward(outcome.net, xm)[0]


def _check_outcome_data(datasets) -> None:
    """InsufficientData for no datasets, MissingOutcome for one without y."""
    if not datasets:
        raise InsufficientData("no datasets")
    for ds in datasets:
        if ds.y is None:
            raise MissingOutcome(f"dataset for regime {ds.regime.levels} has no y column")


def fit_outcome(datasets, hidden: int = 15, steps: int = 2000, lr: float = 1e-2,
                seed: int = 0, weights=None) -> OutcomeModel:
    """Fit the regression net by (optionally weighted) squared error.

    Rows pool across regimes; `weights`, when given, is one nonnegative
    array per dataset and the loss normalizes by the total weight. The
    output layer starts at zero, so zero steps means the constant 0. A
    hidden width below 1, negative steps, a learning rate that is not
    finite and positive, or weights whose total is 0 or overflows raise
    InvalidSpec.

    Each step runs the net once per distinct row of each dataset (see
    `RegimeDataset.distinct`), not once per row: with W_u the summed weight
    and S_u the summed weight times y of the rows equal to distinct row u,
    the loss is sum_u (W_u f_u - 2 S_u) f_u + sum w y^2, the raw-row
    weighted squared error up to rounding, and its gradient in f_u is
    2 (W_u f_u - S_u).
    """
    _check_outcome_data(datasets)
    m = datasets[0].x.shape[1]
    y = np.concatenate([ds.y for ds in datasets])
    if weights is None:
        w = np.ones(len(y))
    else:
        if len(weights) != len(datasets):
            raise InvalidSpec("need one weight array per dataset")
        w = [np.asarray(wi, dtype=float).reshape(-1) for wi in weights]
        for i, (wi, ds) in enumerate(zip(w, datasets)):
            if wi.shape[0] != ds.n:
                raise InvalidSpec(f"weights for dataset {i} have {wi.shape[0]} entries, "
                                  f"need one per row ({ds.n})")
        w = np.concatenate(w)
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise InvalidSpec("weights must be finite and nonnegative")
    with np.errstate(over="ignore"):  # an overflowing total is rejected next
        total = w.sum()
    if not np.isfinite(total):
        raise InvalidSpec("weights must have a finite sum")
    if total <= 0:
        raise InvalidSpec("weights sum to zero")
    w = w / total

    x = np.asfortranarray(np.vstack([ds.distinct[0] for ds in datasets]))  # laid out once
    offsets = np.cumsum([0] + [ds.distinct[0].shape[0] for ds in datasets[:-1]])
    row = np.concatenate([ds.distinct[1] + off for ds, off in zip(datasets, offsets)])
    wsum = np.bincount(row, weights=w, minlength=x.shape[0])
    wysum = np.bincount(row, weights=w * y, minlength=x.shape[0])
    const = float(np.sum(w * y * y))

    rng = np.random.default_rng(seed)
    net = init_mlp(m, hidden, rng, out_scale=0.0)

    def loss_and_grad():
        pred, h = mlp_forward(net, x)
        half = wsum * pred - wysum  # half the loss gradient in each output
        return float(np.sum((half - wysum) * pred)) + const, mlp_backward(net, x, h, 2.0 * half)
    train([net], loss_and_grad, steps, lr, "outcome loss")
    return OutcomeModel(net, m, seed)


@dataclass(frozen=True)
class RegimeEstimate:
    """One training regime's reweighted mean and its variance proxy."""

    regime: RegimeVector
    mu: float
    var_proxy: float


@dataclass(frozen=True)
class Estimate:
    """Point estimate of E[Y; target] with a rough standard error."""

    mu: float
    se: float
    per_regime: tuple | None = None


def estimate_direct(outcome: OutcomeModel, draws) -> Estimate:
    """Average the outcome net over draws from the target regime.

    The draws are rows as `sampling.sample` gives them. The standard error
    is the plain iid Monte Carlo one: exact for the iid draws of variable
    elimination (every elimination clique within `energy.CELL_CAP`), and
    optimistic under the autocorrelation of the Gibbs fallback, which is
    acceptable for its reporting role.
    """
    preds = predict_outcome(outcome, draws)
    se = float(preds.std(ddof=1) / np.sqrt(len(preds))) if len(preds) > 1 else 0.0
    return Estimate(float(preds.mean()), se)


def regime_weights(model: EnergyModel, ds, target: RegimeVector) -> np.ndarray:
    """Self-normalized density-ratio weights for one dataset's rows. When
    the target is the dataset's own regime, they are uniform."""
    return _weights_toward(model, ds, [target])[0]


def _weights_toward(model: EnergyModel, ds, targets) -> list:
    """`regime_weights` of one dataset toward each target, from one
    `energy._log_ratios` call: its rows are binned once for all targets."""
    out = []
    for logr in _log_ratios(model, ds.x, targets, ds.regime):
        logr = logr - logr.max()
        w = np.exp(logr)
        out.append(w / w.sum())
    return out


def estimate_ipw(datasets, weights) -> Estimate:
    """Pool per-regime self-normalized importance-weighted outcome means.

    `weights` holds one array per dataset, each summing to 1, as
    regime_weights gives them. Each regime contributes mu_i = sum_j y_j w_j
    and a variance proxy v_i = sum_j y_j^2 w_j^2; regimes pool by inverse
    variance. Regimes with a zero proxy (all-zero outcomes) are left out of
    the pool; if every regime is left out the unweighted mean of the mu_i is
    returned.
    """
    _check_outcome_data(datasets)
    per = []
    for ds, w in zip(datasets, weights, strict=True):
        mu_i = float(np.sum(ds.y * w))
        v_i = float(np.sum((ds.y * w) ** 2))
        per.append(RegimeEstimate(ds.regime, mu_i, v_i))

    usable = [p for p in per if p.var_proxy > 0.0]
    if usable:
        r = np.array([1.0 / p.var_proxy for p in usable])
        mus = np.array([p.mu for p in usable])
        mu = float(np.sum(r * mus) / np.sum(r))
        se = float(np.sqrt(1.0 / np.sum(r)))
    else:
        mu = float(np.mean([p.mu for p in per]))
        se = 0.0
    return Estimate(mu, se, per_regime=tuple(per))


@dataclass(frozen=True)
class ConformalBand:
    """Symmetric band center +- half_width at miscoverage level alpha."""

    center: float
    half_width: float
    alpha: float
    n_scores: int

    @property
    def lo(self) -> float:
        return self.center - self.half_width

    @property
    def hi(self) -> float:
        return self.center + self.half_width

    def covers(self, value: float) -> bool:
        return self.lo <= value <= self.hi


def conformal_band(model: EnergyModel, datasets, target: RegimeVector, alpha: float,
                   seed: int = 0, nsamples: int = 2000, burn: int = 500, thin: int = 5,
                   hidden: int = 15, steps: int = 2000, lr: float = 1e-2) -> ConformalBand:
    """Weighted split conformal band for a new outcome under the target regime.

    Rows split in half at random within each regime. The first half fits the
    outcome net, giving one model-based mean per regime and the band center
    for the target. Scores on the second half are absolute residuals against
    their own regime's mean. Each score carries a density-ratio weight toward
    the target, rescaled to sum to the number of scores; the half width is
    the smallest score whose cumulative weight reaches ceil((n2+1)(1-alpha)),
    or infinity when the weights never get there. With uniform weights this
    is the usual split conformal quantile. Coverage is >= 1 - alpha when the
    model's ratios are exact.

    Unnormalized ratios are pooled across regimes before one rescaling, so
    each regime's weights also carry its own Z_target / Z_regime; the band
    assumes these partition-function ratios are equal across training regimes.

    Args:
        model: fitted energy model supplying density ratios and samples.
        datasets: training data with outcomes.
        target: regime the band should cover.
        alpha: miscoverage level in (0, 1).
        seed: drives the split and every sampling step.

    Raises:
        InsufficientData: fewer than 4 pooled rows.
        MissingOutcome: some dataset has no y.
    """
    model.ifm.space.check_regime(target)
    if not 0.0 < alpha < 1.0:
        raise InvalidSpec("alpha must be strictly between 0 and 1")
    _check_outcome_data(datasets)
    if sum(ds.n for ds in datasets) < 4:
        raise InsufficientData("need at least 4 pooled rows")

    rng = np.random.default_rng(seed)
    fit_parts, score_parts = [], []
    for ds in datasets:
        perm = rng.permutation(ds.n)
        k = ds.n // 2
        if k >= 1:
            score_parts.append((ds.regime, ds.x[perm[:k]], ds.y[perm[:k]]))
        fit_parts.append(RegimeDataset(ds.regime, ds.x[perm[k:]], ds.y[perm[k:]]))

    fit_seed = int(rng.integers(2 ** 63))
    outcome = fit_outcome(fit_parts, hidden=hidden, steps=steps, lr=lr, seed=fit_seed)

    def center(regime):
        draws = sample(model, regime, nsamples, burn=burn, thin=thin,
                       seed=int(rng.integers(2 ** 63)))
        return estimate_direct(outcome, draws).mu

    centers = {ds.regime: center(ds.regime) for ds in datasets}
    target_mu = center(target)

    if not score_parts:
        raise InsufficientData("every regime has a single row; nothing left to score")
    scores = []
    logr = []
    for regime, xs, ys in score_parts:
        scores.append(np.abs(ys - centers[regime]))
        logr.append(log_ratio_rows(model, xs, target, regime))
    scores = np.concatenate(scores)
    logr = np.concatenate(logr)
    n2 = len(scores)

    logr = logr - logr.max()
    w = np.exp(logr)
    w = w / w.sum() * n2

    q = math.ceil((n2 + 1) * (1.0 - alpha))
    order = np.argsort(scores, kind="stable")
    cum = np.cumsum(w[order])
    # tolerance so uniform weights hit integer thresholds despite rounding
    hit = np.nonzero(cum >= q - 1e-9)[0]
    tau = float(scores[order[hit[0]]]) if hit.size else float("inf")
    return ConformalBand(float(target_mu), tau, float(alpha), n2)


def outcome_to_dict(outcome: OutcomeModel) -> dict:
    obj = {
        "format": OUTCOME_FORMAT,
        "format_version": OUTCOME_FORMAT_VERSION,
        "m": outcome.m,
        "seed": outcome.seed,
    }
    obj.update(mlp_to_dict(outcome.net))
    return obj


def outcome_from_dict(obj: dict) -> OutcomeModel:
    check_format(obj, OUTCOME_FORMAT, OUTCOME_FORMAT_VERSION)
    require_keys(obj, ("m", "seed"), "outcome file")
    m = read_int(obj["m"], "outcome m", ModelFormatError)
    seed = read_int(obj["seed"], "outcome seed", ModelFormatError)
    net = mlp_from_dict(obj)
    if net.in_dim != m:
        raise ModelFormatError("net width does not match the variable count")
    return OutcomeModel(net, m, seed)


def save_outcome(path, outcome: OutcomeModel) -> None:
    with open(path, "w") as fh:
        json.dump(outcome_to_dict(outcome), fh)


def load_outcome(path) -> OutcomeModel:
    return outcome_from_dict(read_json(path, ModelFormatError))
