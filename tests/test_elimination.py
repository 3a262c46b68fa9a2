"""Exact draws and log Z by variable elimination over the factor tables."""

import numpy as np
import pytest

from regimecast import energy, sampling, simbench
from regimecast.energy import Grid, factor_table, new_model
from regimecast.errors import GridTooLarge
from regimecast.model import FactorSpec, IfmStructure, InterventionSpace, RegimeVector
from regimecast.sampling import exact_density, gibbs_sample, log_partition, sample

from conftest import random_table_instance


def grid_for(nbins) -> Grid:
    return Grid(tuple(np.linspace(-1.0, 1.0, b + 1) for b in nbins))


def random_models(count, seed=0):
    """Seeded random structures (m 1-4, bins 2-4) with non-uniform nets."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        tm = random_table_instance(rng, max_m=4, max_bins=4)
        yield new_model(tm.ifm, grid_for(tm.nbins), hidden=5, seed=i, out_scale=1.5)


def pairwise_model(m, pairs, bins=3, seed=0):
    """m variables, one pairwise factor per pair, the first one switched."""
    space = InterventionSpace(("s",), (2,))
    factors = tuple(FactorSpec(p, (0,) if k == 0 else ()) for k, p in enumerate(pairs))
    return new_model(IfmStructure(m, space, factors), grid_for((bins,) * m), hidden=5,
                     seed=seed, out_scale=1.5)


# a triangle: every clique table joins three pairwise factors
TRIANGLE = [(0, 1), (1, 2), (0, 2)]
# a four-cycle: eliminating its first vertex adds the fill edge (1, 3)
FOUR_CYCLE = [(0, 1), (1, 2), (2, 3), (0, 3)]


def fixed_models():
    yield pairwise_model(3, TRIANGLE, seed=1)
    yield pairwise_model(4, FOUR_CYCLE, seed=2)


def joint_log_table(model, regime):
    nbins = model.grid.nbins
    logp = np.zeros(nbins)
    for k, f in enumerate(model.ifm.factors):
        shape = [nbins[j] if j in f.var_scope else 1 for j in range(model.ifm.m)]
        logp = logp + factor_table(model, k, regime).reshape(shape)
    return logp


def test_log_partition_matches_brute_force_logsumexp():
    checked = 0
    for model in [*random_models(30), *fixed_models()]:
        for regime in model.ifm.space.all_regimes():
            logp = joint_log_table(model, regime)
            top = logp.max()
            want = top + np.log(np.exp(logp - top).sum())
            assert log_partition(model, regime) == pytest.approx(want, rel=1e-12, abs=0.0)
            checked += 1
    assert checked > 60


def test_elimination_draws_match_exact_density():
    n = 20_000
    for i, model in enumerate([*random_models(12, seed=1), *fixed_models()]):
        regimes = model.ifm.space.all_regimes()
        regime = regimes[i % len(regimes)]
        p = exact_density(model, regime).ravel()
        bins = model.grid.bin_rows(sample(model, regime, n, seed=i))
        cells = np.ravel_multi_index(tuple(bins.T), model.grid.nbins)
        emp = np.bincount(cells, minlength=p.size) / n
        # every cell count is binomial(n, p): allow five standard deviations
        assert np.all(np.abs(emp - p) <= 5 * np.sqrt(p * (1 - p) / n) + 1e-12), i


def test_the_cell_cap_applies_to_cliques_not_factors(monkeypatch):
    for m, pairs in ((3, TRIANGLE), (4, FOUR_CYCLE)):
        model = pairwise_model(m, pairs)
        r = RegimeVector((1,))
        exact = sample(model, r, 300, burn=20, thin=2, seed=5)
        # every factor has 3 x 3 cells, every elimination clique 27
        monkeypatch.setattr(energy, "CELL_CAP", 26)
        assert all(energy.tabulated(model, f.var_scope) for f in model.ifm.factors)
        drawn = sample(model, r, 300, burn=20, thin=2, seed=5)
        assert np.array_equal(drawn, gibbs_sample(model, r, 300, burn=20, thin=2, seed=5))
        assert not np.array_equal(drawn, exact)
        with pytest.raises(GridTooLarge):
            log_partition(model, r)
        monkeypatch.setattr(energy, "CELL_CAP", 27)
        assert np.array_equal(sample(model, r, 300, burn=20, thin=2, seed=5), exact)


def test_one_variable_draws_keep_the_whole_grid_inverse_cdf_stream():
    """With one variable the single clique is the whole grid, and the draws
    are those of inverse CDF over `exact_density` from `rng.random(n)`."""
    bundle = simbench.builtin_structure("chain3")
    for nb in (2, 5, 16):
        model = new_model(bundle.ifm, grid_for((nb,)), hidden=6, seed=nb, out_scale=2.0)
        for regime in bundle.train:
            cum = np.cumsum(exact_density(model, regime).ravel())
            u = np.random.default_rng(nb).random(4000) * cum[-1]
            cells = np.minimum(np.searchsorted(cum, u, side="right"), cum.size - 1)
            want = model.grid.center_rows(cells[:, None])
            assert np.array_equal(sample(model, regime, 4000, seed=nb), want)


def test_sachs_benchmark_draws_make_no_gibbs_calls(monkeypatch):
    calls = []
    real = sampling.gibbs_sample
    monkeypatch.setattr(sampling, "gibbs_sample", lambda *a, **k: calls.append(1) or real(*a, **k))
    config = {
        "structure": "sachs", "truth": "ifm", "seed": 3,
        "n_baseline": 200, "n_regime": 60, "bins": 20, "truth_bins": 20,
        "hidden": 6, "truth_hidden": 6, "outcome_hidden": 8,
        "methods": ["ifm_direct", "ifm_ipw", "ridge"],
        "fit_steps": 2, "n_problems": 1, "outcome_steps": 30,
        "mc_samples": 200, "gibbs_n": 200, "gibbs_burn": 30, "gibbs_thin": 1,
        "truth_burn": 30, "truth_thin": 1,
    }
    report = simbench.run_benchmark(config, jobs=1)
    assert report.data["problems"] and calls == []


def sachs_truth_model(bins=5):
    bundle = simbench.builtin_structure("sachs")
    model = simbench.make_ifm_truth(bundle, seed=11, bins=bins, hidden=4).model
    return model, [*bundle.train.regimes, *bundle.test.regimes]


def count_messages(monkeypatch):
    """Wrap the builder of one elimination message; returns the call list."""
    calls = []
    real = sampling._message
    monkeypatch.setattr(sampling, "_message",
                        lambda *a: calls.append(a[1]) or real(*a))
    return calls


def outputs(model, regime):
    return repr(log_partition(model, regime)), sample(model, regime, 500, seed=4)


def test_the_message_memo_is_transparent(monkeypatch):
    model, regimes = sachs_truth_model(bins=6)
    calls = count_messages(monkeypatch)
    in_order = {r: outputs(model, r) for r in regimes}
    assert calls
    fresh = model.copy()
    reverse = {r: outputs(fresh, r) for r in reversed(regimes)}
    alone = {r: outputs(model.copy(), r) for r in regimes}
    for r in regimes:
        for other in (reverse[r], alone[r]):
            assert other[0] == in_order[r][0]
            assert np.array_equal(other[1], in_order[r][1])
    # a regime seen before recomputes no message
    calls.clear()
    for r in regimes:
        assert outputs(model, r)[0] == in_order[r][0]
    assert calls == []


def test_replacing_a_net_recomputes_exactly_the_messages_that_read_it():
    model, regimes = sachs_truth_model()
    before = {r: repr(log_partition(model, r)) for r in regimes}
    k = next(k for k, f in enumerate(model.ifm.factors) if f.intv_scope)
    key = (k, (1,) * len(model.ifm.factors[k].intv_scope))
    net = model.nets[key]
    model.nets[key] = type(net)(**{**net.__dict__, "w2": net.w2 + 0.5})
    fresh = model.copy()
    selects = [r for r in regimes if model.net_for(k, r) is model.nets[key]]
    assert 0 < len(selects) < len(regimes)
    for r in regimes:
        now = repr(log_partition(model, r))
        assert now == repr(log_partition(fresh, r))
        assert (now != before[r]) == (r in selects), r


def test_the_cell_cap_is_read_on_every_call_with_a_warm_plan(monkeypatch):
    model, regimes = sachs_truth_model()
    r = regimes[-1]
    exact = sample(model, r, 60, burn=5, thin=1, seed=2)
    nbins = model.grid.nbins
    largest = max(np.prod([nbins[j] for j in c]) for c in sampling._plan(model)[0])
    monkeypatch.setattr(energy, "CELL_CAP", int(largest) - 1)
    drawn = sample(model, r, 60, burn=5, thin=1, seed=2)
    assert np.array_equal(drawn, gibbs_sample(model, r, 60, burn=5, thin=1, seed=2))
    assert not np.array_equal(drawn, exact)
    with pytest.raises(GridTooLarge):
        log_partition(model, r)
    monkeypatch.setattr(energy, "CELL_CAP", int(largest))
    assert np.array_equal(sample(model, r, 60, burn=5, thin=1, seed=2), exact)


def oracle_draws(model, regime, n, seed):
    """Per-row backward sampling from the joint table: each variable, in
    reverse elimination order, from `exact_density` summed over the
    variables not yet drawn and sliced at those drawn, by the inverse-CDF
    rule on column v of the same `rng.random((n, m))`."""
    p = exact_density(model, regime)
    u = np.random.default_rng(seed).random((n, model.ifm.m))
    order = [step[0] for step in reversed(sampling._plan(model)[1])]
    bins = np.empty((n, model.ifm.m), dtype=int)
    for i in range(n):
        for pos, v in enumerate(order):
            drawn = order[:pos]
            cond = p.sum(axis=tuple(j for j in range(model.ifm.m) if j != v and j not in drawn))
            # the summed table keeps v and the drawn axes in variable order
            kept = sorted(drawn + [v])
            cond = cond[tuple(bins[i, j] if j != v else slice(None) for j in kept)]
            cum = np.cumsum(cond)
            bins[i, v] = min(np.searchsorted(cum, u[i, v] * cum[-1], side="right"), cum.size - 1)
    return model.grid.center_rows(bins)


def test_elimination_draws_equal_a_per_row_oracle_stream():
    """Exact draws are a fixed function of the seed: every row equals the
    per-row oracle, so a layout change that moves the stream shows here."""
    space = InterventionSpace(("s",), (2,))
    # a four-cycle with a fill edge plus a fifth variable alone in its clique
    factors = tuple(FactorSpec(p, (0,) if k == 0 else ())
                    for k, p in enumerate([*FOUR_CYCLE, (4,)]))
    chords = (IfmStructure(5, space, factors), grid_for((3, 4, 5, 2, 3)))
    triangle = pairwise_model(3, TRIANGLE, bins=4, seed=6)
    models = [new_model(*chords, hidden=5, seed=4, out_scale=1.5), triangle]
    for model in models:
        for level in (0, 1):
            r = RegimeVector((level,))
            want = oracle_draws(model, r, 400, seed=12 + level)
            assert np.array_equal(sample(model, r, 400, seed=12 + level), want)
