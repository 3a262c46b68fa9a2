"""Exact enumeration and the Gibbs sampler."""

import numpy as np
import pytest

from regimecast.energy import Grid, log_unnorm, new_model
from regimecast.errors import GridTooLarge, InvalidSpec
from regimecast.model import (
    FactorSpec,
    IfmStructure,
    InterventionSpace,
    RegimeVector,
)
from regimecast import energy
from regimecast.sampling import exact_density, gibbs_sample

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
