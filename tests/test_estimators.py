"""Outcome regression, importance weighting, and conformal bands."""

import math

import numpy as np
import pytest

from regimecast import estimators
from regimecast.energy import Grid, log_ratio_rows, new_model
from regimecast.errors import (
    InsufficientData,
    InvalidSpec,
    MissingOutcome,
    ModelFormatError,
    NonFinite,
)
from regimecast.estimators import (
    ConformalBand,
    conformal_band,
    estimate_direct,
    estimate_ipw,
    fit_outcome,
    load_outcome,
    outcome_from_dict,
    outcome_to_dict,
    predict_outcome,
    regime_weights,
    save_outcome,
)
from regimecast.model import (
    FactorSpec,
    IfmStructure,
    InterventionSpace,
    RegimeDataset,
    RegimeVector,
    distinct_rows,
)
from regimecast.nets import mlp_forward
from regimecast.sampling import exact_density, sample


def make_model(seed=0, out_scale=0.8):
    sp = InterventionSpace(("a", "b"), (2, 2))
    ifm = IfmStructure(2, sp, (FactorSpec((0,), (0,)), FactorSpec((0, 1), (1,))))
    grid = Grid((np.linspace(-1.0, 1.0, 4), np.linspace(0.0, 2.0, 3)))
    return new_model(ifm, grid, hidden=5, seed=seed, out_scale=out_scale)


def make_data(rng, regimes, n=40, fn=None):
    out = []
    for levels in regimes:
        x = np.column_stack([rng.uniform(-1.0, 1.0, n), rng.uniform(0.0, 2.0, n)])
        y = fn(x) if fn is not None else rng.normal(size=n)
        out.append(RegimeDataset(RegimeVector(levels), x, y))
    return out


def weights_toward(model, data, target):
    return [regime_weights(model, ds, target) for ds in data]


def test_fit_outcome_learns_a_smooth_function():
    rng = np.random.default_rng(0)
    data = make_data(rng, [(0, 0), (1, 0)], n=150,
                     fn=lambda x: np.tanh(x[:, 0]) + 0.25 * x[:, 1])
    outcome = fit_outcome(data, hidden=10, steps=600, lr=3e-2, seed=1)
    x = np.column_stack([rng.uniform(-1.0, 1.0, 200), rng.uniform(0.0, 2.0, 200)])
    want = np.tanh(x[:, 0]) + 0.25 * x[:, 1]
    err = predict_outcome(outcome, x) - want
    assert float(np.mean(err ** 2)) < 0.01


def test_fit_outcome_validation():
    rng = np.random.default_rng(1)
    with pytest.raises(InsufficientData):
        fit_outcome([])
    no_y = RegimeDataset(RegimeVector((0, 0)), rng.uniform(size=(5, 2)))
    with pytest.raises(MissingOutcome):
        fit_outcome([no_y])

    data = make_data(rng, [(0, 0), (1, 0)], n=5)
    with pytest.raises(InvalidSpec):
        fit_outcome(data, weights=[np.ones(5)])
    with pytest.raises(InvalidSpec):
        fit_outcome(data, weights=[np.ones(5), np.ones(4)])
    with pytest.raises(InvalidSpec):
        fit_outcome(data, weights=[np.ones(5), -np.ones(5)])
    with pytest.raises(InvalidSpec):
        fit_outcome(data, weights=[np.zeros(5), np.zeros(5)])
    # finite weights whose total overflows would normalize to all zeros
    with pytest.raises(InvalidSpec, match="finite sum"):
        fit_outcome(make_data(rng, [(0, 0)], n=4), weights=[np.array([1e308, 1e308, 1.0, 1.0])])
    # the right total is not enough: each array must match its own dataset
    four = make_data(rng, [(0, 0), (1, 0)], n=4)
    with pytest.raises(InvalidSpec, match="dataset 0 have 3 entries"):
        fit_outcome(four, weights=[np.ones(3), np.ones(5)])


def test_fit_outcome_rejects_bad_width_steps_and_rate():
    data = make_data(np.random.default_rng(3), [(0, 0)], n=5)
    for kwargs in ({"hidden": 0}, {"steps": -2}, {"lr": float("nan")},
                   {"lr": float("inf")}, {"lr": 0.0}, {"lr": -1e-2}):
        with pytest.raises(InvalidSpec):
            fit_outcome(data, **{"steps": 1, **kwargs})


def test_fit_outcome_weights_select_the_data():
    rng = np.random.default_rng(2)
    data = make_data(rng, [(0, 0)], n=60, fn=lambda x: np.full(len(x), 1.0))
    data += make_data(rng, [(1, 0)], n=60, fn=lambda x: np.full(len(x), -1.0))
    outcome = fit_outcome(data, hidden=4, steps=400, lr=5e-2,
                          weights=[np.ones(60), np.zeros(60)])
    preds = predict_outcome(outcome, data[1].x)
    assert np.all(np.abs(preds - 1.0) < 0.05)


def test_fit_outcome_on_repeated_rows_is_the_count_weighted_fit():
    rng = np.random.default_rng(21)
    distinct = make_data(rng, [(0, 0), (1, 0)], n=12)
    repeats = [rng.integers(1, 7, size=ds.n) for ds in distinct]
    repeated = []
    for ds, k in zip(distinct, repeats):
        order = rng.permutation(k.sum())
        repeated.append(RegimeDataset(ds.regime, np.repeat(ds.x, k, axis=0)[order],
                                      np.repeat(ds.y, k)[order]))
    a = fit_outcome(repeated, hidden=4, steps=60, lr=3e-2, seed=2)
    b = fit_outcome(distinct, hidden=4, steps=60, lr=3e-2, seed=2,
                    weights=[k.astype(float) for k in repeats])
    for p, q in zip(a.net.params(), b.net.params()):
        assert np.allclose(p, q, rtol=1e-12, atol=0.0)


def test_fit_outcome_on_shared_rows_is_bitwise_the_fresh_fit():
    rng = np.random.default_rng(23)
    data = make_data(rng, [(0, 0), (1, 0), (0, 1)], n=40)
    ys = [rng.normal(size=ds.n) for ds in data]
    shared = [RegimeDataset(ds.regime, ds.x).with_y(y) for ds, y in zip(data, ys)]
    fresh = [RegimeDataset(ds.regime, ds.x, y) for ds, y in zip(data, ys)]
    for weights in (None, [rng.uniform(0.1, 2.0, size=ds.n) for ds in data]):
        a = fit_outcome(shared, hidden=4, steps=30, lr=3e-2, seed=5, weights=weights)
        b = fit_outcome(fresh, hidden=4, steps=30, lr=3e-2, seed=5, weights=weights)
        for p, q in zip(a.net.params(), b.net.params(), strict=True):
            assert p.tobytes() == q.tobytes()


def test_fit_outcome_steps_see_each_distinct_row_once(monkeypatch):
    rng = np.random.default_rng(22)
    data = []
    for levels in [(0, 0), (1, 0)]:
        values = np.column_stack([rng.uniform(-1.0, 1.0, 8), rng.uniform(0.0, 2.0, 8)])
        x = rng.permutation(np.repeat(values, 500, axis=0))
        data.append(RegimeDataset(RegimeVector(levels), x, rng.normal(size=4000)))
    rows = []
    searches = []

    def counting_forward(net, x):
        rows.append(x.shape[0])
        return mlp_forward(net, x)

    def counting_distinct(a):
        searches.append(a.shape[0])
        return distinct_rows(a)
    monkeypatch.setattr(estimators, "mlp_forward", counting_forward)
    monkeypatch.setattr("regimecast.model.distinct_rows", counting_distinct)
    fit_outcome(data, hidden=3, steps=7)
    fit_outcome(data, hidden=3, steps=7, weights=[np.ones(4000), np.full(4000, 2.0)])
    assert rows == [16] * 14
    # distinct rows are found once per dataset object, not once per fit
    assert searches == [4000, 4000]


def test_fit_outcome_names_the_diverging_step():
    rng = np.random.default_rng(4)
    data = make_data(rng, [(0, 0)], n=20)
    with np.errstate(all="ignore"), pytest.raises(NonFinite, match=r"\(step 1\)"):
        fit_outcome(data, hidden=3, steps=5, lr=1e200)


def test_predict_outcome_checks_width():
    rng = np.random.default_rng(3)
    data = make_data(rng, [(0, 0)], n=10)
    outcome = fit_outcome(data, hidden=3, steps=5)
    with pytest.raises(InvalidSpec):
        predict_outcome(outcome, np.zeros((2, 3)))


def test_estimate_direct_matches_exact_expectation():
    model = make_model(seed=4)
    rng = np.random.default_rng(5)
    data = make_data(rng, [(0, 0)], n=120, fn=lambda x: x[:, 0] + 0.5 * x[:, 1])
    outcome = fit_outcome(data, hidden=8, steps=500, lr=3e-2)

    target = RegimeVector((1, 1))
    dens = exact_density(model, target)
    cells = np.indices(model.grid.nbins).reshape(2, -1).T
    centers = model.grid.center_rows(cells)
    mu_exact = float(np.sum(dens.reshape(-1) * predict_outcome(outcome, centers)))

    est = estimate_direct(outcome, sample(model, target, 8000, burn=200, thin=1, seed=6))
    assert abs(est.mu - mu_exact) < 0.05
    assert est.se > 0.0

    # untrained net is identically zero, so the average is exactly zero
    zero = fit_outcome(data, hidden=3, steps=0)
    flat = estimate_direct(zero, sample(model, target, 50, burn=10, thin=1, seed=7))
    assert flat.mu == 0.0 and flat.se == 0.0


def test_regime_weights_are_normalized_and_uniform_on_target():
    model = make_model(seed=8)
    rng = np.random.default_rng(9)
    ds = make_data(rng, [(1, 0)], n=30)[0]
    w = regime_weights(model, ds, RegimeVector((0, 1)))
    assert w.shape == (30,)
    assert np.all(w >= 0) and w.sum() == pytest.approx(1.0)
    uniform = regime_weights(model, ds, RegimeVector((1, 0)))
    assert np.allclose(uniform, np.full(30, 1.0 / 30))


def test_weights_toward_many_targets_are_each_targets_regime_weights():
    model = make_model(seed=8)
    rng = np.random.default_rng(10)
    ds = make_data(rng, [(1, 0)], n=30)[0]
    targets = [RegimeVector(levels) for levels in [(0, 1), (1, 0), (1, 1), (0, 0), (0, 1)]]
    got = estimators._weights_toward(model, ds, targets)
    assert len(got) == len(targets)
    for w, target in zip(got, targets):
        logr = log_ratio_rows(model, ds.x, target, ds.regime)
        want = np.exp(logr - logr.max())
        assert np.array_equal(w, want / want.sum())
        assert np.array_equal(w, regime_weights(model, ds, target))


def test_estimate_ipw_on_target_regime_is_the_sample_mean():
    model = make_model(seed=10)
    rng = np.random.default_rng(11)
    ds = make_data(rng, [(0, 1)], n=25)[0]
    est = estimate_ipw([ds], weights_toward(model, [ds], RegimeVector((0, 1))))
    assert est.mu == pytest.approx(float(ds.y.mean()))
    assert est.se == pytest.approx(math.sqrt(float(np.sum((ds.y / 25) ** 2))))
    assert len(est.per_regime) == 1
    assert est.per_regime[0].regime == ds.regime


def test_estimate_ipw_pools_by_inverse_variance():
    model = make_model(seed=12)
    rng = np.random.default_rng(13)
    data = make_data(rng, [(0, 0), (1, 0), (0, 1)], n=20)
    target = RegimeVector((1, 1))
    est = estimate_ipw(data, weights_toward(model, data, target))

    mus, inv = [], []
    for ds in data:
        w = regime_weights(model, ds, target)
        mus.append(float(np.sum(ds.y * w)))
        inv.append(1.0 / float(np.sum((ds.y * w) ** 2)))
    want = sum(m * r for m, r in zip(mus, inv)) / sum(inv)
    assert est.mu == pytest.approx(want)
    assert est.se == pytest.approx(math.sqrt(1.0 / sum(inv)))
    assert [p.regime.levels for p in est.per_regime] == [(0, 0), (1, 0), (0, 1)]
    with pytest.raises(ValueError):
        estimate_ipw(data, weights_toward(model, data, target)[:2])


def test_estimate_ipw_skips_zero_variance_regimes():
    model = make_model(seed=14)
    rng = np.random.default_rng(15)
    zeros = make_data(rng, [(0, 0)], n=10, fn=lambda x: np.zeros(len(x)))
    ones = make_data(rng, [(1, 0)], n=10, fn=lambda x: np.ones(len(x)))
    target = RegimeVector((1, 1))
    est = estimate_ipw(zeros + ones, weights_toward(model, zeros + ones, target))
    assert est.mu == pytest.approx(1.0)

    only_zeros = estimate_ipw(zeros, weights_toward(model, zeros, target))
    assert only_zeros.mu == 0.0 and only_zeros.se == 0.0

    with pytest.raises(InsufficientData):
        estimate_ipw([], [])
    no_y = RegimeDataset(RegimeVector((0, 0)), rng.uniform(size=(5, 2)))
    with pytest.raises(MissingOutcome):
        estimate_ipw([no_y], weights_toward(model, [no_y], target))


def test_estimate_covshift_recovers_a_constant_outcome():
    model = make_model(seed=16)
    rng = np.random.default_rng(17)
    data = make_data(rng, [(0, 0), (1, 0)], n=50, fn=lambda x: np.full(len(x), 0.7))
    target = RegimeVector((1, 1))
    refit = fit_outcome(data, hidden=4, steps=300, lr=3e-2, seed=18,
                        weights=weights_toward(model, data, target))
    est = estimate_direct(refit, sample(model, target, 200, burn=50, thin=1, seed=19))
    assert est.mu == pytest.approx(0.7, abs=0.05)


def test_conformal_band_reduces_to_split_quantile_on_target_data():
    # zero-step outcome net pins every center at exactly 0, so scores are
    # |y| on the held-out half and target-regime weights are uniform
    model = make_model(seed=19)
    rng = np.random.default_rng(20)
    n = 41
    ds = make_data(rng, [(1, 0)], n=n)[0]
    alpha, seed = 0.2, 77
    band = conformal_band(model, [ds], RegimeVector((1, 0)), alpha, seed=seed,
                          nsamples=20, burn=5, thin=1, hidden=3, steps=0)

    split = np.random.default_rng(seed).permutation(n)
    held = np.abs(ds.y[split[: n // 2]])
    q = math.ceil((len(held) + 1) * (1.0 - alpha))
    assert band.center == 0.0
    assert band.half_width == pytest.approx(float(np.sort(held)[q - 1]))
    assert band.n_scores == n // 2
    assert band.lo == -band.half_width and band.hi == band.half_width
    assert band.covers(0.0) and not band.covers(band.hi + 1.0)


def test_conformal_band_widens_as_alpha_drops_and_can_blow_up():
    model = make_model(seed=21)
    rng = np.random.default_rng(22)
    data = make_data(rng, [(0, 0), (1, 0)], n=30)
    target = RegimeVector((1, 1))
    kw = dict(seed=5, nsamples=30, burn=10, thin=1, hidden=3, steps=0)
    tight = conformal_band(model, data, target, 0.30, **kw)
    wide = conformal_band(model, data, target, 0.05, **kw)
    assert wide.half_width >= tight.half_width
    again = conformal_band(model, data, target, 0.30, **kw)
    assert again.half_width == tight.half_width and again.center == tight.center

    # 5 scores cannot reach the level-0.01 threshold of 6
    small = make_data(rng, [(0, 0)], n=10)
    blown = conformal_band(model, small, target, 0.01, **kw)
    assert math.isinf(blown.half_width)
    assert not blown.covers(float("nan"))


def test_conformal_band_data_requirements():
    model = make_model(seed=23)
    rng = np.random.default_rng(24)
    target = RegimeVector((1, 1))
    tiny = make_data(rng, [(0, 0)], n=3)
    with pytest.raises(InsufficientData):
        conformal_band(model, tiny, target, 0.1)
    with pytest.raises(InsufficientData):
        conformal_band(model, [], target, 0.1)

    # four regimes of one row pool enough rows but leave nothing to score
    singles = [make_data(rng, [lv], n=1)[0]
               for lv in [(0, 0), (1, 0), (0, 1), (1, 1)]]
    with pytest.raises(InsufficientData):
        conformal_band(model, singles, target, 0.1, steps=0)

    data = make_data(rng, [(0, 0)], n=10)
    for bad in (0.0, 1.0, -0.2):
        with pytest.raises(InvalidSpec):
            conformal_band(model, data, target, bad)
    no_y = RegimeDataset(RegimeVector((0, 0)), rng.uniform(size=(6, 2)))
    with pytest.raises(MissingOutcome):
        conformal_band(model, [no_y], target, 0.1)


def test_outcome_model_round_trip(tmp_path):
    rng = np.random.default_rng(25)
    data = make_data(rng, [(0, 0)], n=30)
    outcome = fit_outcome(data, hidden=6, steps=100, lr=2e-2, seed=3)
    x = rng.uniform(size=(12, 2))

    back = outcome_from_dict(outcome_to_dict(outcome))
    assert np.array_equal(predict_outcome(outcome, x), predict_outcome(back, x))

    path = tmp_path / "outcome.json"
    save_outcome(path, outcome)
    loaded = load_outcome(path)
    assert np.array_equal(predict_outcome(outcome, x), predict_outcome(loaded, x))

    obj = outcome_to_dict(outcome)
    with pytest.raises(ModelFormatError):
        outcome_from_dict({**obj, "format": "nope"})
    with pytest.raises(ModelFormatError):
        outcome_from_dict({**obj, "format_version": 9})
    with pytest.raises(ModelFormatError):
        outcome_from_dict({**obj, "m": 3})


def test_outcome_from_dict_rejects_missing_keys_and_nonfinite_weights():
    rng = np.random.default_rng(27)
    obj = outcome_to_dict(fit_outcome(make_data(rng, [(0, 0)], n=20), hidden=3, steps=5))
    for drop in ("m", "seed", "w1"):
        with pytest.raises(ModelFormatError):
            outcome_from_dict({k: v for k, v in obj.items() if k != drop})
    with pytest.raises(ModelFormatError):
        outcome_from_dict({**obj, "b2": float("nan")})
    for key, value in (("m", "x"), ("seed", 1.5)):
        with pytest.raises(ModelFormatError, match=f"outcome {key} must be an integer"):
            outcome_from_dict({**obj, key: value})
