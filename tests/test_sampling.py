"""Exact enumeration and the Gibbs sampler."""

import numpy as np
import pytest

from regimecast.energy import Grid, factor_table, log_unnorm, new_model
from regimecast.errors import GridTooLarge, InvalidSpec
from regimecast.model import (
    FactorSpec,
    IfmStructure,
    InterventionSpace,
    RegimeVector,
)
from regimecast import energy, sampling
from regimecast.sampling import CHAINS, exact_density, gibbs_sample, sample

from conftest import tv


def make_model(seed=0, out_scale=0.8):
    sp = InterventionSpace(("a", "b"), (2, 2))
    ifm = IfmStructure(2, sp, (FactorSpec((0,), (0,)), FactorSpec((0, 1), (1,))))
    grid = Grid((np.linspace(-1.0, 1.0, 4), np.linspace(0.0, 2.0, 3)))
    return new_model(ifm, grid, hidden=5, seed=seed, out_scale=out_scale)


def all_cells(model):
    nbins = model.grid.nbins
    return np.indices(nbins).reshape(len(nbins), -1).T


def test_exact_density_matches_cellwise_softmax():
    model = make_model(seed=1)
    for regime in [(0, 0), (1, 0), (1, 1)]:
        r = RegimeVector(regime)
        dens = exact_density(model, r)
        assert dens.shape == model.grid.nbins
        assert dens.sum() == pytest.approx(1.0)

        logp = log_unnorm(model, all_cells(model), r)
        want = np.exp(logp - logp.max())
        want /= want.sum()
        assert np.allclose(dens.reshape(-1), want)


def test_exact_density_respects_cell_cap(monkeypatch):
    model = make_model()
    monkeypatch.setattr(energy, "CELL_CAP", 5)
    with pytest.raises(GridTooLarge):
        exact_density(model, RegimeVector((0, 0)))
    monkeypatch.setattr(energy, "CELL_CAP", 6)
    exact_density(model, RegimeVector((0, 0)))


def test_gibbs_argument_validation():
    model = make_model()
    r = RegimeVector((0, 0))
    with pytest.raises(InvalidSpec):
        gibbs_sample(model, r, 0)
    with pytest.raises(InvalidSpec):
        gibbs_sample(model, r, 5, thin=0)
    with pytest.raises(InvalidSpec):
        gibbs_sample(model, r, 5, burn=-1)


def test_gibbs_rows_are_bin_centers_and_seeded():
    model = make_model(seed=2)
    r = RegimeVector((1, 0))
    x = gibbs_sample(model, r, 50, burn=20, thin=2, seed=9)
    assert x.shape == (50, 2)
    for j, centers in enumerate(model.grid.centers):
        assert set(np.unique(x[:, j])) <= set(centers)

    again = gibbs_sample(model, r, 50, burn=20, thin=2, seed=9)
    other = gibbs_sample(model, r, 50, burn=20, thin=2, seed=10)
    assert np.array_equal(x, again)
    assert not np.array_equal(x, other)


def test_gibbs_table_and_direct_paths_agree(monkeypatch):
    model = make_model(seed=3)
    r = RegimeVector((0, 1))
    cached = gibbs_sample(model, r, 200, burn=50, thin=1, seed=4)
    # a cap of 0 cells forces per-update net evaluation
    monkeypatch.setattr(energy, "CELL_CAP", 0)
    direct = gibbs_sample(model, r, 200, burn=50, thin=1, seed=4)
    assert np.allclose(cached, direct)


def test_gibbs_approaches_exact_density():
    model = make_model(seed=5)
    r = RegimeVector((1, 1))
    dens = exact_density(model, r)
    x = gibbs_sample(model, r, 20_000, burn=300, thin=2, seed=6)
    bins = model.grid.bin_rows(x)
    emp = np.zeros(model.grid.nbins)
    np.add.at(emp, (bins[:, 0], bins[:, 1]), 1.0)
    emp /= emp.sum()
    assert tv(dens, emp) < 0.03


def empirical(model, x):
    bins = model.grid.bin_rows(x)
    emp = np.zeros(model.grid.nbins)
    np.add.at(emp, (bins[:, 0], bins[:, 1]), 1.0)
    return emp / emp.sum()


def test_sample_draws_exact_cells_on_tabulable_grids():
    model = make_model(seed=5)
    r = RegimeVector((1, 1))
    x = sample(model, r, 20_000, seed=6)
    assert x.shape == (20_000, 2)
    assert tv(exact_density(model, r), empirical(model, x)) < 0.02

    # no burn-in or thinning on the exact path, and the seed alone decides
    assert np.array_equal(x, sample(model, r, 20_000, burn=0, thin=1, seed=6))
    assert np.array_equal(x, sample(model, r, 20_000, burn=900, thin=7, seed=6))
    assert not np.array_equal(x, sample(model, r, 20_000, seed=7))


def test_sample_switches_to_gibbs_above_the_cell_cap(monkeypatch):
    model = make_model(seed=2)
    r = RegimeVector((1, 0))
    exact = sample(model, r, 60, burn=20, thin=2, seed=9)
    # the full grid has 3 x 2 cells
    monkeypatch.setattr(energy, "CELL_CAP", 5)
    drawn = sample(model, r, 60, burn=20, thin=2, seed=9)
    assert np.array_equal(drawn, gibbs_sample(model, r, 60, burn=20, thin=2, seed=9))
    assert not np.array_equal(drawn, exact)


def test_gibbs_returns_exactly_n_rows_scan_by_scan():
    model = make_model(seed=4)
    r = RegimeVector((0, 1))
    for n in (1, 3, CHAINS - 1, CHAINS, CHAINS + 1, 3 * CHAINS + 7):
        assert gibbs_sample(model, r, n, burn=5, thin=2, seed=1).shape == (n, 2)
    # with all CHAINS chains running, a longer run only appends kept scans
    full = gibbs_sample(model, r, 3 * CHAINS, burn=5, thin=2, seed=1)
    for n in (CHAINS, CHAINS + 1, 2 * CHAINS + 5):
        assert np.array_equal(gibbs_sample(model, r, n, burn=5, thin=2, seed=1), full[:n])


def reference_gibbs(model, regime, n, burn, thin, seed):
    """Chain-by-chain loop over the same uniforms as the lockstep sampler."""
    nbins = model.grid.nbins
    rng = np.random.default_rng(seed)
    chains = min(n, CHAINS)
    state = [[b // 2 for b in nbins] for _ in range(chains)]
    rows = []
    scan = 0
    while len(rows) < n:
        scan += 1
        for r in range(model.ifm.m):
            u = rng.random(chains)
            for c in range(chains):
                logits = np.zeros(nbins[r])
                for k, f in enumerate(model.ifm.factors):
                    if r in f.var_scope:
                        idx = tuple(slice(None) if j == r else state[c][j] for j in f.var_scope)
                        logits += factor_table(model, k, regime)[idx]
                logits -= logits.max()
                cum = np.cumsum(np.exp(logits))
                state[c][r] = min(int(np.searchsorted(cum, u[c] * cum[-1], side="right")),
                                  nbins[r] - 1)
        if scan > burn and (scan - burn) % thin == 0:
            rows.extend(list(s) for s in state)
    return model.grid.center_rows(np.array(rows[:n]))


def test_gibbs_chains_match_a_per_chain_reference():
    model = make_model(seed=8)
    r = RegimeVector((1, 1))
    for n in (5, 2 * CHAINS + 6):
        want = reference_gibbs(model, r, n, burn=4, thin=2, seed=3)
        assert np.array_equal(gibbs_sample(model, r, n, burn=4, thin=2, seed=3), want)


def test_sample_checks_its_arguments_on_the_exact_path():
    model = make_model()
    r = RegimeVector((0, 0))
    for kwargs in ({"n": 0}, {"n": 5, "burn": -1}, {"n": 5, "thin": 0}):
        with pytest.raises(InvalidSpec):
            sample(model, r, **kwargs)
    with pytest.raises(InvalidSpec):
        sample(model, RegimeVector((2, 0)), 5)


def reference_inverse_cdf(logits_row, u):
    """The per-row rule: the first bin whose cumulative mass exceeds u times
    the total, kept in range."""
    cum = np.cumsum(np.exp(logits_row - logits_row.max()))
    return min(int(np.searchsorted(cum, u * cum[-1], side="right")), logits_row.size - 1)


def test_bins_first_inverse_cdf_matches_the_per_row_rule():
    rng = np.random.default_rng(8)
    nbins, rows = 7, 400
    logits = rng.normal(scale=2.0, size=(nbins, rows))
    logits[3, ::2] = -60.0  # a bin of negligible mass in every other column
    u = rng.random(rows)
    u[:5] = np.nextafter(1.0, 0.0)  # as close to 1 as a uniform gets
    u[5:8] = 0.0
    want = [reference_inverse_cdf(logits[:, i], u[i]) for i in range(rows)]
    got = sampling._inverse_cdf(logits.copy(), u)
    assert got.tolist() == want
    assert got[:5].tolist() == [nbins - 1] * 5
    assert 3 not in got[::2]
    # one column for all rows: a variable with no other member in its clique
    column = logits[:, :1]
    want = [reference_inverse_cdf(column[:, 0], ui) for ui in u]
    assert sampling._inverse_cdf(column.copy(), u).tolist() == want


def test_message_is_the_logsumexp_of_the_brute_force_clique_table():
    rng = np.random.default_rng(9)
    nbins = (3, 4, 2, 5)
    v, others = 1, [0, 2, 3]
    scopes = [(0, 1), (1, 2, 3), (1,), (1, 3)]
    inputs = [(s, rng.normal(scale=3.0, size=[nbins[j] for j in s])) for s in scopes]
    clique = np.zeros(nbins)
    for scope, t in inputs:
        clique = clique + t.reshape([nbins[j] if j in scope else 1 for j in range(4)])
    msg = sampling._message(nbins, v, others, inputs)
    want = np.logaddexp.reduce(clique, axis=v)
    assert msg.shape == want.shape and not msg.flags.writeable
    assert np.allclose(msg, want, rtol=1e-12, atol=0.0)
    # a variable alone in its clique leaves a scalar
    alone = sampling._message(nbins, 2, [], [((2,), inputs[1][1][0, :, 0])])
    assert alone.shape == ()
    assert alone == pytest.approx(np.logaddexp.reduce(inputs[1][1][0, :, 0]), rel=1e-12)
