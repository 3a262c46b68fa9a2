"""Energy model: grids, pseudo-likelihood, fitting, and serialization."""

import hashlib
import json
import tracemalloc
import weakref

import numpy as np
import pytest

from regimecast import energy
from regimecast.energy import (
    Grid,
    _per_net,
    _pll_from_prep,
    _prepare,
    discretize,
    expected_net_keys,
    factor_table,
    fit,
    log_ratio_rows,
    log_unnorm,
    model_from_dict,
    model_to_dict,
    new_model,
    pll_gradient,
    pseudo_loglik,
    save_model,
    load_model,
)
from regimecast.errors import DegenerateVariable, InvalidSpec, ModelFormatError, NonFinite
from regimecast.model import (
    FactorSpec,
    IfmStructure,
    InterventionSpace,
    RegimeDataset,
    RegimeVector,
    distinct_rows,
)
from regimecast.nets import mlp_backward, mlp_forward
from regimecast.sampling import exact_density, log_partition
from regimecast.simbench import builtin_structure

from conftest import tv


def two_var_ifm():
    sp = InterventionSpace(("a", "b"), (2, 2))
    return IfmStructure(2, sp, (FactorSpec((0,), (0,)), FactorSpec((0, 1), (1,))))


def small_grid():
    return Grid((np.linspace(-1.0, 1.0, 4), np.linspace(0.0, 2.0, 3)))


def rand_model(seed=0, out_scale=0.8, hidden=4):
    return new_model(two_var_ifm(), small_grid(), hidden=hidden, seed=seed,
                     out_scale=out_scale)


def rand_datasets(model, rng, n=12):
    out = []
    for regime in [(0, 0), (1, 0), (0, 1)]:
        lo = np.array([e[0] for e in model.grid.edges])
        hi = np.array([e[-1] for e in model.grid.edges])
        x = rng.uniform(lo, hi, size=(n, model.ifm.m))
        out.append(RegimeDataset(RegimeVector(regime), x))
    return out


def test_grid_validation_and_binning():
    with pytest.raises(InvalidSpec):
        Grid((np.array([0.0]),))
    with pytest.raises(InvalidSpec):
        Grid((np.array([0.0, 0.0, 1.0]),))
    with pytest.raises(InvalidSpec):
        Grid((np.array([0.0, np.inf]),))
    g = Grid((np.array([0.0, 1.0, 2.0]),))
    assert g.m == 1 and g.nbins == (2,)
    # interior points, left edge, interior edge, right edge, out of range
    x = np.array([[0.5], [1.5], [0.0], [1.0], [2.0], [-3.0], [9.0]])
    assert g.bin_rows(x)[:, 0].tolist() == [0, 1, 0, 1, 1, 0, 1]
    centers = g.center_rows(np.array([[0], [1]]))
    assert centers[:, 0].tolist() == [0.5, 1.5]


def test_bin_rows_matches_the_clipped_search():
    rng = np.random.default_rng(0)
    for nb in (1, 2, 5, 16):
        edges = [np.cumsum(rng.uniform(0.05, 2.0, nb + 1)) - 3.0 for _ in range(3)]
        g = Grid(tuple(edges))
        # every edge, 1e-12 either side of it, interior points, and values
        # far outside the grid
        cols = [np.concatenate([e, e - 1e-12, e + 1e-12, rng.uniform(e[0], e[-1], 50),
                                [-1e300, -1e6, e[0] - 1.0, e[-1] + 1.0, 1e6, 1e300]])
                for e in g.edges]
        x = np.column_stack([rng.permutation(c) for c in cols])
        want = np.column_stack([
            np.clip(np.searchsorted(e, x[:, j], side="right") - 1, 0, e.size - 2)
            for j, e in enumerate(g.edges)
        ])
        assert np.array_equal(g.bin_rows(x), want)
        assert g.nbins == (nb, nb, nb)


def test_bin_rows_rejects_non_finite_values():
    g = Grid((np.linspace(0.0, 1.0, 5),))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidSpec):
            g.bin_rows([[bad]])
    model = rand_model(seed=1)
    with pytest.raises(InvalidSpec):
        log_ratio_rows(model, np.array([np.nan, 1.0]), RegimeVector((1, 0)), RegimeVector((0, 0)))


def test_discretize_pools_datasets_and_rejects_constants():
    sp = InterventionSpace(("a",), (2,))
    ifm = IfmStructure(1, sp, (FactorSpec((0,), (0,)),))
    d0 = RegimeDataset(RegimeVector((0,)), np.array([[0.0], [1.0]]))
    d1 = RegimeDataset(RegimeVector((1,)), np.array([[3.0], [2.0]]))
    g = discretize([d0, d1], bins=4)
    assert g.edges[0][0] == 0.0 and g.edges[0][-1] == 3.0
    assert g.nbins == (4,)
    flat = RegimeDataset(RegimeVector((0,)), np.full((5, 1), 2.0))
    with pytest.raises(DegenerateVariable, match=r"^variable 0 has zero observed range$"):
        discretize([flat], bins=4)
    with pytest.raises(DegenerateVariable, match=r"^variable 0 \(z\) has zero observed range$"):
        discretize([flat], bins=4, names=("z",))
    del ifm


def test_new_model_inventory_and_uniform_start():
    model = rand_model(out_scale=0.0)
    keys = expected_net_keys(model.ifm)
    # factor 0 switched by intervention 0 only, factor 1 by intervention 1
    assert set(keys) == {(0, (0,)), (0, (1,)), (1, (0,)), (1, (1,))}
    assert set(model.nets) == set(keys)

    for regime in [(0, 0), (1, 1)]:
        dens = exact_density(model, RegimeVector(regime))
        assert np.allclose(dens, 1.0 / dens.size)

    # all-zero nets: every conditional is uniform over that variable's bins
    rng = np.random.default_rng(3)
    data = rand_datasets(model, rng, n=7)
    expected = -sum(ds.n * sum(np.log(b) for b in model.grid.nbins) for ds in data)
    assert pseudo_loglik(model, data) == pytest.approx(expected, abs=1e-12)


def test_log_unnorm_matches_direct_net_sum():
    model = rand_model(seed=5)
    bins = np.array([[0, 1], [2, 0], [1, 1]])
    r = RegimeVector((1, 0))
    want = np.zeros(3)
    for k, f in enumerate(model.ifm.factors):
        net = model.net_for(k, r)
        want += mlp_forward(net, model.grid.center_rows(bins, f.var_scope))[0]
    got = log_unnorm(model, bins, r)
    assert np.allclose(got, want)
    assert log_unnorm(model, bins[0], r) == pytest.approx(want[0])
    with pytest.raises(InvalidSpec):
        log_unnorm(model, np.array([[0, 5]]), r)


def test_row_readers_accept_zero_rows():
    model = rand_model(seed=5)
    r, den = RegimeVector((1, 0)), RegimeVector((0, 1))
    empty = log_unnorm(model, np.zeros((0, 2), dtype=int), r)
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)
    assert log_ratio_rows(model, np.zeros((0, 2)), r, den).shape == (0,)


def test_factor_tables_are_cached_per_net_object():
    model = rand_model(seed=7)
    r = RegimeVector((1, 0))
    table = factor_table(model, 1, r)
    assert factor_table(model, 1, r) is table
    assert not table.flags.writeable
    log_partition(model, r)
    assert model.plan is not None and model.plan[3]
    # copies, loaded models and fitted models start with no tables, plan or messages
    data = rand_datasets(model, np.random.default_rng(8), n=4)
    for fresh in (model.copy(), model_from_dict(model_to_dict(model)),
                  fit(model, data, steps=1)[0]):
        assert fresh.tables == {} and fresh.plan is None

    # replacing a net rebuilds its table on the next read, and every reader follows
    cells = np.indices(model.grid.nbins).reshape(2, -1).T
    old_logp, old_dens = log_unnorm(model, cells, r), exact_density(model, r)
    key = (1, (0,))
    net = model.nets[key]
    model.nets[key] = type(net)(**{**net.__dict__, "w2": net.w2 + 0.5})
    rebuilt = factor_table(model, 1, r)
    assert not np.array_equal(rebuilt, table)
    assert np.array_equal(rebuilt, factor_table(model.copy(), 1, r))
    assert not np.allclose(log_unnorm(model, cells, r), old_logp)
    assert not np.allclose(exact_density(model, r), old_dens)


def test_row_lookups_match_on_the_table_and_net_paths(monkeypatch):
    model = rand_model(seed=9)
    x = np.random.default_rng(10).uniform([-1.0, 0.0], [1.0, 2.0], size=(40, 2))
    bins = model.grid.bin_rows(x)
    num, den = RegimeVector((1, 1)), RegimeVector((0, 0))
    tables = log_unnorm(model, bins, num), log_ratio_rows(model, x, num, den)
    assert model.tables
    # a cap of 0 cells sends every factor through its net on bin centers
    monkeypatch.setattr(energy, "CELL_CAP", 0)
    nets = log_unnorm(model, bins, num), log_ratio_rows(model, x, num, den)
    for a, b in zip(tables, nets):
        assert np.allclose(a, b, rtol=0.0, atol=1e-12)


def brute_pseudo_loglik(model, datasets):
    """Conditional log-likelihoods by enumerating each variable's bins."""
    total = 0.0
    for ds in datasets:
        bins = model.grid.bin_rows(ds.x)
        for i in range(ds.n):
            for r in range(model.ifm.m):
                cand = np.tile(bins[i], (model.grid.nbins[r], 1))
                cand[:, r] = np.arange(model.grid.nbins[r])
                logits = log_unnorm(model, cand, ds.regime)
                lse = np.log(np.sum(np.exp(logits - logits.max()))) + logits.max()
                total += logits[bins[i, r]] - lse
    return total


def test_pseudo_loglik_matches_brute_force():
    model = rand_model(seed=7)
    rng = np.random.default_rng(11)
    data = rand_datasets(model, rng, n=6)
    assert pseudo_loglik(model, data) == pytest.approx(
        brute_pseudo_loglik(model, data), rel=1e-10)


def random_structure_model(seed, duplicated=False):
    """Two or three variables, a 2-level and a 3-level switch, random scopes.

    Factor 0 is always switched by the 3-level intervention, so its level-2
    net is one no dataset below reaches. With `duplicated`, each dataset
    instead holds 40 rows drawn with replacement from its first three.
    """
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 4))
    space = InterventionSpace(("a", "b"), (2, 3))
    factors = [FactorSpec((0, 1), (1,))]
    for j in range(m):
        switched = tuple(sorted(rng.choice(2, size=int(rng.integers(0, 3)), replace=False)))
        factors.append(FactorSpec((j,), switched))
    if m == 3:
        factors.append(FactorSpec((0, 1, 2), (0,)))
    factors.append(FactorSpec((m - 1,), (0,)))
    ifm = IfmStructure(m, space, tuple(factors))
    grid = Grid(tuple(np.linspace(-1.0, 1.0, int(b) + 1) for b in rng.integers(2, 5, size=m)))
    model = new_model(ifm, grid, hidden=3, seed=seed, out_scale=0.9)
    data = [RegimeDataset(RegimeVector(levels), rng.uniform(-1.0, 1.0, size=(int(n), m)))
            for levels, n in zip([(0, 0), (1, 0), (0, 1), (1, 1)], rng.integers(3, 9, size=4))]
    if duplicated:
        data = [RegimeDataset(ds.regime, ds.x[rng.integers(0, 3, size=40)]) for ds in data]
    return model, data


def rowwise_gradient(model, datasets):
    """pll_gradient summed over one-row datasets, so no row is ever merged."""
    total = {key: [np.zeros_like(p) for p in net.params()] for key, net in model.nets.items()}
    for ds in datasets:
        for i in range(ds.n):
            for key, gs in pll_gradient(model, [RegimeDataset(ds.regime, ds.x[i:i + 1])]).items():
                for acc, g in zip(total[key], gs):
                    acc += g
    return total


def drawn_counts(prep, rows):
    """Per-dataset count vectors over the distinct rows for raw row draws."""
    return [np.bincount(inv[r], minlength=c.size) for c, inv, r in zip(prep[2], prep[3], rows)]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_cell_design_pll_matches_brute_force_full_and_minibatch(seed):
    model, data = random_structure_model(seed)
    prep = _prepare(model, data)
    full = brute_pseudo_loglik(model, data)
    got, grads = _pll_from_prep(model, prep)
    assert got == pytest.approx(full, rel=1e-10) and grads is None

    rng = np.random.default_rng(seed + 100)
    rows = [rng.choice(ds.n, size=2, replace=False) for ds in data]
    sub = [RegimeDataset(ds.regime, ds.x[r]) for ds, r in zip(data, rows)]
    # a minibatch step's objective is the full data's, its gradient the draw's
    got, grad = _pll_from_prep(model, prep, drawn_counts(prep, rows))
    assert got == pytest.approx(full, rel=1e-10)
    grads = _per_net(model, grad)
    want = pll_gradient(model, sub)
    for key in model.nets:
        for g, w in zip(grads[key], want[key]):
            assert np.allclose(g, w, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_pll_on_duplicated_rows_matches_the_raw_rows(seed):
    model, data = random_structure_model(seed, duplicated=True)
    prep = _prepare(model, data)
    assert all(counts.size <= 3 and counts.sum() == 40 for counts in prep[2])
    rng = np.random.default_rng(seed + 200)
    rows = [rng.choice(ds.n, size=10, replace=False) for ds in data]
    drawn = drawn_counts(prep, rows)
    # ten draws among at most three bin rows repeat one of them
    assert all(counts.max() > 1 and counts.sum() == 10 for counts in drawn)
    sub = [RegimeDataset(ds.regime, ds.x[r]) for ds, r in zip(data, rows)]
    full = brute_pseudo_loglik(model, data)
    for counts, raw in ((prep[2], data), (drawn, sub)):
        got, grad = _pll_from_prep(model, prep, counts)
        assert got == pytest.approx(full, rel=1e-10)
        grads = _per_net(model, grad)
        want = rowwise_gradient(model, raw)
        for key in model.nets:
            for g, w in zip(grads[key], want[key]):
                assert np.allclose(g, w, rtol=1e-10, atol=1e-12)


def test_fit_minibatches_draw_raw_row_indices(monkeypatch):
    model, data = random_structure_model(7, duplicated=True)
    calls = []
    real_pll = energy._pll_from_prep

    def recording_pll(model, prep, drawn=None):
        calls.append(drawn)
        return real_pll(model, prep, drawn)
    monkeypatch.setattr(energy, "_pll_from_prep", recording_pll)
    fit(model, data, steps=5, lr=1e-2, batch=6, seed=4)
    prep = _prepare(model, data)
    rng = np.random.default_rng(4)
    # one call per step, then one without draws for the returned model
    *drawn, last = calls
    assert len(drawn) == 5 and last is None
    for counts in drawn:
        want = drawn_counts(prep, [rng.choice(ds.n, size=6, replace=False) for ds in data])
        for got, w in zip(counts, want, strict=True):
            assert np.array_equal(got, w)


def test_gradient_of_an_unreached_net_is_exactly_zero():
    model, data = random_structure_model(5)
    unreached = (0, (2,))
    assert all(ds.regime.project((1,)) != (2,) for ds in data)
    grads = pll_gradient(model, data)
    assert all(np.array_equal(g, np.zeros_like(g)) for g in grads[unreached])
    assert any(np.any(g != 0.0) for g in grads[(0, (1,))])


FIT_SHA256 = "c55fb4ddda2dae0dfad3bfcbc53698efbdfb41768aa7e06a94b9174f0ecd75a7"


def test_fit_inputs_and_steps_are_pinned(monkeypatch):
    """One sha256 over `_prepare`'s output, the PLL and its gradient, and the
    objectives of a 3-step fit, full-batch and minibatch, on every random
    structure. Arrays are hashed in C order, so a change of memory layout
    alone does not move the digest; a change of any value, cell or key does.
    With CELL_CAP at 1 no scope is tabulated, so `_prepare` ranks every
    factor's codes by `np.unique` instead of by marks: the same digest."""
    for cell_cap in (energy.CELL_CAP, 1):
        monkeypatch.setattr(energy, "CELL_CAP", cell_cap)
        digest = hashlib.sha256()

        def update(*arrays):
            for a in arrays:
                digest.update(np.ascontiguousarray(a).tobytes())
        for seed in range(8):
            for duplicated in (False, True):
                model, data = random_structure_model(seed, duplicated)
                prep = _prepare(model, data)
                designs, sweeps, counts, inverses = prep
                for key, x in designs.items():
                    digest.update(repr(key).encode())
                    update(x)
                for observed, starts, index in sweeps:
                    digest.update(repr(starts).encode())
                    update(observed, *(np.asarray(ix, dtype=np.intp) for ix in index))
                update(*counts, *inverses)
                obj, grad = _pll_from_prep(model, prep, counts)
                digest.update(repr(obj).encode())
                update(grad)
                for batch in (None, 6):
                    _, log = fit(model, data, steps=3, lr=3e-2, batch=batch, seed=seed)
                    digest.update(repr(log.objectives).encode())
        assert digest.hexdigest() == FIT_SHA256, cell_cap


def test_codes_are_ranked_by_marks_up_to_the_cap_and_by_unique_above(monkeypatch):
    """A factor's codes are its level patterns times its scope cells. With
    CELL_CAP at 100, the 8 x 8 factor switched by the 3-level intervention
    has 192 codes and takes `np.unique`, though its 64-cell scope is
    tabulated; the two one-variable factors (16 and 8 codes) take marks.
    `_prepare` returns what it returns at the default cap, which marks all."""
    space = InterventionSpace(("a", "b"), (2, 3))
    ifm = IfmStructure(2, space, (FactorSpec((0, 1), (1,)), FactorSpec((0,), (0,)),
                                  FactorSpec((1,), ())))
    grid = Grid(tuple(np.linspace(-1.0, 1.0, 9) for _ in range(2)))
    model = new_model(ifm, grid, hidden=3, seed=4, out_scale=0.9)
    rng = np.random.default_rng(4)
    data = [RegimeDataset(RegimeVector(levels), rng.uniform(-1.0, 1.0, size=(30, 2)))
            for levels in [(0, 0), (1, 1), (0, 2)]]
    real_unique, sizes = np.unique, []

    def unique(a, *args, **kwargs):
        sizes.append(np.size(a))
        return real_unique(a, *args, **kwargs)
    monkeypatch.setattr(np, "unique", unique)
    marked = _prepare(model, data)
    assert sizes == []
    monkeypatch.setattr(energy, "CELL_CAP", 100)
    split = _prepare(model, data)
    # factor 0 is the first in both variables' sweeps
    assert sizes == [sum(index[0].size for _, _, index in marked[1])]
    assert marked[0].keys() == split[0].keys()
    for key, x in marked[0].items():
        assert np.array_equal(x, split[0][key])
    for (obs, starts, index), (obs2, starts2, index2) in zip(marked[1], split[1]):
        assert np.array_equal(obs, obs2) and starts == starts2
        assert all(np.array_equal(a, b) for a, b in zip(index, index2))


def reference_pll(model, datasets, drawn=None):
    """The per-(dataset, variable) sweep loop that `_pll_from_prep` replaced,
    kept as an oracle: (PLL, gradient per net or None), drawn[d] weighing
    dataset d's distinct rows as in `_pll_from_prep`."""
    nbins = model.grid.nbins
    flats, sweeps, counts = {}, [], []
    for ds in datasets:
        bins, _, cnt = distinct_rows(model.grid.bin_rows(ds.x))
        counts.append(cnt)
        per_var = []
        for r in range(model.ifm.m):
            entries = []
            for k, f in enumerate(model.ifm.factors):
                if r not in f.var_scope:
                    continue
                key = (k, ds.regime.project(f.intv_scope))
                dims = [nbins[j] for j in f.var_scope]
                pos = f.var_scope.index(r)
                cells = bins[:, f.var_scope]
                cells[:, pos] = 0
                stride = int(np.prod(dims[pos + 1:], dtype=int))
                flat = (np.ravel_multi_index(cells.T, dims)[:, None]
                        + stride * np.arange(nbins[r]))
                parts = flats.setdefault(key, [])
                entries.append((key, len(parts), flat.shape))
                parts.append(flat.ravel())
            per_var.append((r, bins[:, r].copy(), entries))
        sweeps.append(per_var)
    designs, inverse = {}, {}
    for key, parts in flats.items():
        cells, inv = np.unique(np.concatenate(parts), return_inverse=True)
        scope = model.ifm.factors[key[0]].var_scope
        coords = np.unravel_index(cells, [nbins[j] for j in scope])
        designs[key] = np.array([model.grid.centers[j][c] for j, c in zip(scope, coords)]).T
        inverse[key] = np.split(inv, np.cumsum([p.size for p in parts])[:-1])

    vals, hidden = {}, {}
    for key, x in designs.items():
        vals[key], hidden[key] = mlp_forward(model.nets[key], x)
    dvals = {key: np.zeros(v.shape[0]) for key, v in vals.items()}
    total = 0.0
    for d, (cnt, per_var) in enumerate(zip(counts, sweeps)):
        for r, obs, entries in per_var:
            n = obs.shape[0]
            entries = [(key, inverse[key][part].reshape(shape)) for key, part, shape in entries]
            logits = np.zeros((n, nbins[r]))
            for key, idx in entries:
                logits += vals[key][idx]
            top = logits.max(axis=1, keepdims=True)
            p = np.exp(logits - top)
            norm = p.sum(axis=1)
            lse = top[:, 0] + np.log(norm)
            rows = np.arange(n)
            total += float(np.sum(cnt * (logits[rows, obs] - lse)))
            if drawn is not None:
                dl = -p / norm[:, None]
                dl[rows, obs] += 1.0
                dl *= drawn[d][:, None]
                for key, idx in entries:
                    dvals[key] += np.bincount(idx.ravel(), weights=dl.ravel(),
                                              minlength=dvals[key].size)
    if drawn is None:
        return total, None
    grads = {key: [np.zeros_like(p) for p in net.params()] for key, net in model.nets.items()}
    for key, x in designs.items():
        grads[key] = mlp_backward(model.nets[key], x, hidden[key], dvals[key])
        grads[key][3] = np.zeros(())
    return total, grads


def builtin_model(name, seed, n=12, bins=4):
    """A random model on a built-in structure, with n rows on its grid per
    training regime; rows are drawn from 3n grid points, so some repeat."""
    bundle = builtin_structure(name)
    rng = np.random.default_rng(seed)
    grid = Grid(tuple(np.linspace(-1.0, 1.0, bins + 1) for _ in range(bundle.ifm.m)))
    model = new_model(bundle.ifm, grid, hidden=3, seed=seed, out_scale=0.9)
    data = []
    for regime in bundle.train.regimes:
        pool = rng.uniform(-1.0, 1.0, size=(3 * n, bundle.ifm.m))
        data.append(RegimeDataset(regime, pool[rng.integers(0, 3 * n, size=n)]))
    return model, data


def assert_same_gradients(got, want, rel):
    assert set(got) == set(want)
    for key in want:
        for g, w in zip(got[key], want[key], strict=True):
            assert g.shape == np.shape(w)
            assert np.allclose(g, w, rtol=rel, atol=rel * max(1.0, np.abs(w).max(initial=0.0)))


@pytest.mark.parametrize("name", ["chain3", "sachs", "dream"])
@pytest.mark.parametrize("seed", [0, 1])
def test_flat_sweeps_match_the_per_dataset_reference(name, seed):
    model, data = builtin_model(name, seed)
    prep = _prepare(model, data)
    rng = np.random.default_rng(seed + 300)
    rows = [rng.choice(ds.n, size=5, replace=False) for ds in data]
    for drawn in (prep[2], drawn_counts(prep, rows)):
        got, grad = _pll_from_prep(model, prep, drawn)
        want, want_grads = reference_pll(model, data, drawn)
        assert got == pytest.approx(want, rel=1e-12)
        assert_same_gradients(_per_net(model, grad), want_grads, rel=1e-12)
    assert _pll_from_prep(model, prep)[0] == pytest.approx(reference_pll(model, data)[0],
                                                          rel=1e-12)


@pytest.mark.parametrize("name", ["chain3", "sachs"])
def test_splitting_a_dataset_in_two_of_one_regime_changes_nothing(name):
    model, data = builtin_model(name, 4, n=20)
    split = [piece for ds in data
             for piece in (RegimeDataset(ds.regime, ds.x[:7]), RegimeDataset(ds.regime, ds.x[7:]))]
    assert pseudo_loglik(model, split) == pytest.approx(pseudo_loglik(model, data), rel=1e-12)
    assert_same_gradients(pll_gradient(model, split), pll_gradient(model, data), rel=1e-12)


def test_the_pll_needs_a_dataset():
    model, _ = builtin_model("sachs", 0)
    for call in (pseudo_loglik, pll_gradient):
        with pytest.raises(InvalidSpec, match="at least one dataset"):
            call(model, [])

def test_a_non_finite_net_gradient_is_named(monkeypatch):
    model, data = random_structure_model(5)
    bad = (0, (1,))
    real_backward = energy.mlp_backward

    def backward(net, x, h, dout):
        grads = real_backward(net, x, h, dout)
        if net is model.nets[bad]:
            grads[0][0, 0] = np.inf
        return grads
    monkeypatch.setattr(energy, "mlp_backward", backward)
    with pytest.raises(NonFinite, match=r"gradient for net \(0, \(1,\)\) is not finite"):
        pll_gradient(model, data)


@pytest.mark.parametrize("seed", [0, 3])
def test_each_hidden_layer_is_freed_after_its_backward_pass(monkeypatch, seed):
    """Weak references to the hidden arrays `mlp_forward` returns: with or
    without a gradient, none is alive when the next forward pass starts, and
    each is dead once its net's backward pass has run."""
    model, data = random_structure_model(seed)
    prep = _prepare(model, data)
    real_forward, real_backward = energy.mlp_forward, energy.mlp_backward
    hidden, done = {}, []

    def forward(net, x):
        out, h = real_forward(net, x)
        hidden[id(net)] = weakref.ref(h)
        return out, h

    def forward_keeping_none(net, x):
        assert all(ref() is None for ref in hidden.values())
        return forward(net, x)

    def backward(net, x, h, dout):
        assert all(hidden[id(n)]() is None for n in done)
        done.append(net)
        return real_backward(net, x, h, dout)
    monkeypatch.setattr(energy, "mlp_forward", forward_keeping_none)
    _pll_from_prep(model, prep)
    assert len(hidden) == len(prep[0]) >= 2

    hidden.clear()
    monkeypatch.setattr(energy, "mlp_backward", backward)
    _pll_from_prep(model, prep, prep[2])
    assert len(done) == len(prep[0])


def sachs_inputs():
    """`sachs` at 20 bins and hidden 6, 200 baseline rows and 60 per other
    training regime: about 100k design cells."""
    bundle = builtin_structure("sachs")
    rng = np.random.default_rng(0)
    m = bundle.ifm.m
    grid = Grid(tuple(np.linspace(-1.0, 1.0, 21) for _ in range(m)))
    model = new_model(bundle.ifm, grid, hidden=6, seed=1, out_scale=0.9)
    data = [RegimeDataset(r, rng.normal(0.0, 0.4, size=(200 if r.is_baseline() else 60, m)))
            for r in bundle.train.regimes]
    return model, data


def test_a_gradient_pass_on_sachs_inputs_stays_small_in_memory():
    """On `sachs_inputs` the 15 nets' hidden layers together take 4.7 MiB.
    Holding them all through the sweeps peaks at 7.5 MiB above the prepared
    inputs; holding one at a time, at 4.2 MiB."""
    model, data = sachs_inputs()
    prep = _prepare(model, data)
    assert sum(x.shape[0] for x in prep[0].values()) > 100_000
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        _pll_from_prep(model, prep, prep[2])
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20, peak


def test_preparing_sachs_inputs_keeps_narrow_indices_and_a_small_peak():
    """Every sweep index is below its factor's cell count (under 65,536
    here), so uint8 or uint16 indices hold it: 0.5 MiB in all, against
    2.1 MiB as intp. Writing each factor's sweep codes into one buffer, with
    no per-variable arrays and no concatenated copy, keeps the traced peak
    at 5.5 MiB (6.6 MiB with both)."""
    model, data = sachs_inputs()
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        prep = _prepare(model, data)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    indices = sum(ix.nbytes for _, _, index in prep[1] for ix in index)
    assert indices < 2 ** 20, indices
    assert peak < 6 * 2 ** 20, peak


def reference_sweep_positions(model, datasets, k, r):
    """For factor k and variable r in its scope: each distinct row's sweep
    over r's bins, as the position of its (level pattern, scope cell) among
    all cells any sweep of factor k reaches, sorted (an intp array)."""
    f = model.ifm.factors[k]
    rows = []
    for ds in datasets:
        pattern = ds.regime.project(f.intv_scope)
        rows += [(pattern, tuple(b)) for b in distinct_rows(model.grid.bin_rows(ds.x))[0]]

    def reach(row, v, b):
        cell = list(row[1])
        cell[v] = b
        return row[0], tuple(cell[j] for j in f.var_scope)
    cells = sorted({reach(row, v, b) for row in rows for v in f.var_scope
                    for b in range(model.grid.nbins[v])})
    where = {cell: i for i, cell in enumerate(cells)}
    return len(cells), np.array([[where[reach(row, r, b)] for b in range(model.grid.nbins[r])]
                                 for row in rows], dtype=np.intp)


@pytest.mark.parametrize("cell_cap", [energy.CELL_CAP, 1])
def test_sweep_indices_take_the_narrowest_unsigned_type(monkeypatch, cell_cap):
    """A 20 x 20 factor switched by a 2-level intervention reaches over 255
    cells and takes uint16; the one-variable factors take uint8. Marks
    (default cap) and `np.unique` (cap 1) give the same values, which equal
    an intp reference built from sorted (pattern, cell) tuples."""
    monkeypatch.setattr(energy, "CELL_CAP", cell_cap)
    space = InterventionSpace(("a", "b"), (2, 3))
    ifm = IfmStructure(2, space, (FactorSpec((0, 1), (0,)), FactorSpec((0,), (1,)),
                                  FactorSpec((1,), ())))
    grid = Grid(tuple(np.linspace(-1.0, 1.0, 21) for _ in range(2)))
    model = new_model(ifm, grid, hidden=3, seed=2, out_scale=0.9)
    rng = np.random.default_rng(2)
    data = [RegimeDataset(RegimeVector(levels), rng.uniform(-1.0, 1.0, size=(25, 2)))
            for levels in [(0, 0), (1, 1), (0, 2)]]
    designs, sweeps = _prepare(model, data)[:2]
    dtypes = set()
    for r, (_, starts, index) in enumerate(sweeps):
        on_r = [k for k, f in enumerate(ifm.factors) if r in f.var_scope]
        assert len(index) == len(on_r)
        for k, start, ix in zip(on_r, starts, index):
            ncells, want = reference_sweep_positions(model, data, k, r)
            assert ncells == sum(x.shape[0] for (kk, _), x in designs.items() if kk == k)
            assert start == sum(x.shape[0] for (kk, _), x in designs.items() if kk < k)
            assert ix.dtype == np.min_scalar_type(ncells), (k, r)
            assert np.array_equal(ix.astype(np.intp), want)
            dtypes.add(ix.dtype)
    assert dtypes == {np.dtype(np.uint8), np.dtype(np.uint16)}


# A constant offset of a factor cancels in every conditional, so the PLL
# gradient in each potential net's b2 is exactly 0 and fitting never moves it.
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_pll_gradient_in_the_output_bias_is_exactly_zero(seed):
    model, data = random_structure_model(seed)
    for gs in pll_gradient(model, data).values():
        assert gs[3].shape == () and gs[3] == 0.0


@pytest.mark.parametrize("batch", [None, 3])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_fit_leaves_the_output_bias_where_it_started(seed, batch):
    model, data = random_structure_model(seed)
    assert any(net.b2 != 0.0 for net in model.nets.values())
    trained, _ = fit(model, data, steps=6, lr=5e-2, batch=batch, seed=seed)
    assert any(not np.array_equal(trained.nets[k].w2, net.w2) for k, net in model.nets.items())
    for key, net in model.nets.items():
        assert np.array_equal(trained.nets[key].b2, net.b2)


def test_fit_objectives_are_bit_identical_across_calls():
    model, data = random_structure_model(6)
    for batch in (None, 3):
        _, first = fit(model, data, steps=12, lr=3e-2, batch=batch, seed=8)
        _, second = fit(model, data, steps=12, lr=3e-2, batch=batch, seed=8)
        assert first.objectives == second.objectives


def test_pll_gradient_matches_finite_differences():
    model = rand_model(seed=9, hidden=3)
    rng = np.random.default_rng(13)
    data = rand_datasets(model, rng, n=5)
    grads = pll_gradient(model, data)
    assert set(grads) == set(model.nets)

    eps = 1e-6
    for key in [(0, (0,)), (1, (1,))]:
        net = model.nets[key]
        # gradient lists follow params() order
        for slot, field in enumerate(("w1", "b1", "w2", "b2")):
            arr = np.asarray(getattr(net, field), dtype=float)
            idx = tuple(0 for _ in arr.shape)
            plus, minus = model.copy(), model.copy()
            for target, sign in ((plus, eps), (minus, -eps)):
                bumped = arr.copy()
                bumped[idx] += sign
                target.nets[key] = type(net)(**{**net.__dict__,
                                                field: bumped.reshape(arr.shape)})
            fd = (pseudo_loglik(plus, data) - pseudo_loglik(minus, data)) / (2 * eps)
            got = np.asarray(grads[key][slot])[idx]
            assert got == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_fit_improves_objective_and_is_deterministic():
    model = rand_model(seed=1, out_scale=0.0)
    rng = np.random.default_rng(17)
    data = rand_datasets(model, rng, n=40)

    trained, log = fit(model, data, steps=30, lr=5e-2)
    # the objective before each update, then the returned model's
    assert len(log.objectives) == 31
    assert log.objectives[0] == pseudo_loglik(model, data)
    assert log.objectives[-1] == pseudo_loglik(trained, data)
    assert log.objectives[-1] > log.objectives[-2] > log.objectives[0]
    # input model untouched
    assert all(np.all(model.nets[k].w2 == 0.0) for k in model.nets)

    again, _ = fit(model, data, steps=30, lr=5e-2)
    for key in trained.nets:
        assert np.array_equal(trained.nets[key].w1, again.nets[key].w1)
        assert np.array_equal(trained.nets[key].b2, again.nets[key].b2)


def test_fit_minibatch_logs_every_step_and_is_seeded():
    model = rand_model(seed=2, out_scale=0.0)
    rng = np.random.default_rng(19)
    data = rand_datasets(model, rng, n=24)

    # 24 rows, batch 8: 9 steps log the full objective before each update,
    # then the returned model's
    trained, log = fit(model, data, steps=9, lr=3e-2, batch=8, seed=4)
    assert len(log.objectives) == 10
    assert log.objectives[0] == pseudo_loglik(model, data)
    assert log.objectives[-1] == pseudo_loglik(trained, data)
    assert log.objectives[-1] > log.objectives[0]

    same, _ = fit(model, data, steps=9, lr=3e-2, batch=8, seed=4)
    other, _ = fit(model, data, steps=9, lr=3e-2, batch=8, seed=5)
    assert all(np.array_equal(trained.nets[k].w1, same.nets[k].w1) for k in trained.nets)
    assert any(not np.array_equal(trained.nets[k].w1, other.nets[k].w1)
               for k in trained.nets)


def test_fit_loop_edge_cases():
    model = rand_model(seed=2, out_scale=0.0)
    data = rand_datasets(model, np.random.default_rng(19), n=24)
    start = pseudo_loglik(model, data)
    for batch in (None, 8):
        _, log = fit(model, data, steps=0, batch=batch)
        assert log.objectives == (start,) and log.regressions == ()
    # 24 rows, batch 8: a step count that does not fill whole epochs
    trained, log = fit(model, data, steps=10, lr=3e-2, batch=8, seed=4)
    assert len(log.objectives) == 11
    assert log.objectives[-1] == pseudo_loglik(trained, data)
    with pytest.raises(InvalidSpec):
        fit(model, data, steps=1, batch=0)
    for batch in (None, 2):
        with pytest.raises(InvalidSpec, match="at least one dataset"):
            fit(model, [], steps=1, batch=batch)


@pytest.mark.parametrize("batch", [None, 3])
@pytest.mark.parametrize("steps", [0, 1, 7])
def test_fit_logs_the_start_before_each_step_and_the_returned_model(steps, batch):
    model, data = random_structure_model(4)
    trained, log = fit(model, data, steps=steps, lr=3e-2, batch=batch, seed=2)
    assert len(log.objectives) == steps + 1
    assert log.objectives[0] == pseudo_loglik(model, data)
    assert log.objectives[-1] == pseudo_loglik(trained, data)


@pytest.mark.parametrize("batch", [None, 8])
def test_fit_regressions_index_the_drops_of_the_objective(batch):
    model = rand_model(seed=2, out_scale=0.0)
    data = rand_datasets(model, np.random.default_rng(19), n=24)
    # a rate this large overshoots on the first step, and later ones
    _, log = fit(model, data, steps=12, lr=0.3, batch=batch, seed=4)
    obj = log.objectives
    assert 1 in log.regressions
    for i in range(1, len(obj)):
        assert (i in log.regressions) == (obj[i] < obj[i - 1] - 1e-3)


def test_fit_rejects_negative_steps_and_bad_rates():
    model = rand_model(seed=2)
    data = rand_datasets(model, np.random.default_rng(19), n=8)
    for kwargs in ({"steps": -1}, {"lr": float("nan")}, {"lr": float("inf")},
                   {"lr": 0.0}, {"lr": -1e-3}):
        with pytest.raises(InvalidSpec):
            fit(model, data, **{"steps": 1, **kwargs})


@pytest.mark.parametrize("batch", [None, 8])
def test_fit_names_the_step_of_a_non_finite_objective(batch):
    model = rand_model(seed=3)
    data = rand_datasets(model, np.random.default_rng(5), n=24)
    model.nets[(0, (0,))].w1[0, 0] = np.nan
    with pytest.raises(NonFinite, match=r"\(step 0\)"):
        fit(model, data, steps=3, lr=1e-2, batch=batch)


def test_fit_recovers_one_dim_histograms():
    sp = InterventionSpace(("shift",), (2,))
    ifm = IfmStructure(1, sp, (FactorSpec((0,), (0,)),))
    grid = Grid((np.linspace(0.0, 1.0, 5),))
    rng = np.random.default_rng(23)

    probs = {(0,): np.array([0.55, 0.25, 0.15, 0.05]),
             (1,): np.array([0.10, 0.20, 0.30, 0.40])}
    data = []
    for levels, p in probs.items():
        cells = rng.choice(4, size=600, p=p)
        x = grid.centers[0][cells][:, None]
        data.append(RegimeDataset(RegimeVector(levels), x))

    model = new_model(ifm, grid, hidden=6, seed=0)
    trained, _ = fit(model, data, steps=400, lr=5e-2)
    for ds, p in zip(data, probs.values()):
        emp = np.bincount(grid.bin_rows(ds.x)[:, 0], minlength=4) / ds.n
        dens = exact_density(trained, ds.regime)
        assert tv(dens, emp) < 0.05
        assert tv(dens, p) < 0.10


def test_log_ratio_rows_cancels_shared_factors():
    model = rand_model(seed=31)
    x = np.random.default_rng(37).uniform(-1.0, 1.0, size=(8, 2))
    x[:, 1] = np.abs(x[:, 1]) * 2.0

    same = log_ratio_rows(model, x, RegimeVector((1, 1)), RegimeVector((1, 1)))
    assert np.array_equal(same, np.zeros(8))

    # regimes differing only in intervention 0 leave factor 1 untouched, so
    # the ratio cannot depend on variable 1
    num, den = RegimeVector((1, 0)), RegimeVector((0, 0))
    base = log_ratio_rows(model, x, num, den)
    moved = x.copy()
    moved[:, 1] = 0.3
    assert np.allclose(log_ratio_rows(model, moved, num, den), base)

    # antisymmetry
    assert np.allclose(log_ratio_rows(model, x, den, num), -base)


def test_weighing_toward_many_targets_reads_each_dataset_once(monkeypatch):
    """`_log_ratios` toward every `dream` regime equals, bitwise, one
    `log_ratio_rows` per target and the sum it stands for: per factor whose
    level pattern differs, the numerator's potential added, then the
    denominator's subtracted. Each call bins its rows once."""
    model, data = builtin_model("dream", 3, n=20)
    targets = list(builtin_structure("dream").test.regimes) + [ds.regime for ds in data]
    binned = []
    bin_rows = Grid.bin_rows

    def counted(grid, x):
        binned.append(len(x))
        return bin_rows(grid, x)
    monkeypatch.setattr(Grid, "bin_rows", counted)
    for ds in data:
        binned.clear()
        got = energy._log_ratios(model, ds.x, targets, ds.regime)
        assert binned == [ds.n]
        bins = model.grid.bin_rows(ds.x)
        for row, target in zip(got, targets, strict=True):
            want = np.zeros(ds.n)
            for k, f in enumerate(model.ifm.factors):
                if target.project(f.intv_scope) != ds.regime.project(f.intv_scope):
                    want += energy.potentials(model, k, target, bins)
                    want -= energy.potentials(model, k, ds.regime, bins)
            assert np.array_equal(row, want)
            assert np.array_equal(row, log_ratio_rows(model, ds.x, target, ds.regime))
        same = energy._log_ratios(model, ds.x, [ds.regime], ds.regime)
        assert np.array_equal(same, np.zeros((1, ds.n)))
    assert energy._log_ratios(model, np.zeros((0, model.ifm.m)), targets,
                              data[0].regime).shape == (len(targets), 0)


def test_pseudo_loglik_and_density_ignore_output_bias():
    model = rand_model(seed=41)
    rng = np.random.default_rng(43)
    data = rand_datasets(model, rng, n=6)
    base_pll = pseudo_loglik(model, data)
    base_dens = exact_density(model, RegimeVector((1, 0)))

    shifted = model.copy()
    key = (1, (0,))
    net = shifted.nets[key]
    shifted.nets[key] = type(net)(**{**net.__dict__, "b2": net.b2 + 7.5})
    assert pseudo_loglik(shifted, data) == pytest.approx(base_pll, rel=1e-12)
    assert np.allclose(exact_density(shifted, RegimeVector((1, 0))), base_dens)


def test_model_round_trip_is_exact(tmp_path):
    model = rand_model(seed=47)
    obj = model_to_dict(model)
    assert obj["format"] == "regimecast-energy-model"
    assert obj["format_version"] == 1
    assert len(obj["fingerprint"]) == 64

    back = model_from_dict(obj)
    bins = np.array([[0, 1], [2, 0]])
    for regime in [(0, 0), (1, 1), (0, 1)]:
        r = RegimeVector(regime)
        assert np.array_equal(log_unnorm(model, bins, r), log_unnorm(back, bins, r))

    path = tmp_path / "model.json"
    save_model(path, model)
    loaded = load_model(path)
    assert np.array_equal(log_unnorm(model, bins, RegimeVector((1, 0))),
                          log_unnorm(loaded, bins, RegimeVector((1, 0))))

    # the stored fingerprint is the one the reloaded graph gives
    for name in ("chain3", "triangle", "sachs", "dream"):
        ifm = builtin_structure(name).ifm
        grid = Grid(tuple(np.linspace(-1.0, 1.0, 4) for _ in range(ifm.m)))
        assert model_from_dict(model_to_dict(new_model(ifm, grid, hidden=2))).ifm == ifm


def test_model_from_dict_rejects_tampering():
    obj = model_to_dict(rand_model(seed=53))
    with pytest.raises(ModelFormatError):
        model_from_dict({**obj, "format": "something-else"})
    with pytest.raises(ModelFormatError):
        model_from_dict({**obj, "format_version": 2})
    with pytest.raises(ModelFormatError):
        model_from_dict({**obj, "nets": obj["nets"][:-1]})
    bad = {**obj, "nets": [dict(n) for n in obj["nets"]]}
    bad["nets"][0]["w1"] = [[0.0]]
    with pytest.raises(ModelFormatError):
        model_from_dict(bad)
    # a repeated (factor, value) entry would otherwise override the first
    twice = {**obj, "nets": obj["nets"] + [{**obj["nets"][0], "b2": 5.0}]}
    with pytest.raises(ModelFormatError, match="more than once"):
        model_from_dict(twice)
    # the fingerprint is required and must be the graph's own
    with pytest.raises(ModelFormatError, match="fingerprint"):
        model_from_dict({k: v for k, v in obj.items() if k != "fingerprint"})
    with pytest.raises(ModelFormatError, match="fingerprint"):
        model_from_dict({**obj, "fingerprint": "0" * 64})
    old = json.dumps(obj["graph"]["variables"][0])
    renamed = json.loads(json.dumps(obj["graph"]).replace(old, '"renamed"'))
    assert renamed["variables"][0] == "renamed"
    with pytest.raises(ModelFormatError, match="fingerprint"):
        model_from_dict({**obj, "graph": renamed})


def test_model_from_dict_rejects_missing_keys_nonfinite_weights_and_bad_shapes():
    obj = model_to_dict(rand_model(seed=59))

    def with_net(**changes):
        nets = [dict(n) for n in obj["nets"]]
        nets[1].update(changes)
        return {**obj, "nets": nets}

    missing = [{k: v for k, v in obj.items() if k != drop}
               for drop in ("graph", "grid", "nets", "hidden", "seed")]
    missing.append({**obj, "grid": {}})
    missing.append({**obj, "nets": [{k: v for k, v in n.items() if k != "b1"}
                                    for n in obj["nets"]]})
    net = obj["nets"][1]
    nonfinite = [with_net(w2=[float("nan")] + net["w2"][1:]),
                 with_net(b1=[float("inf")] + net["b1"][1:]),
                 with_net(b2=float("-inf"))]
    flat_w1 = np.ravel(net["w1"]).tolist()
    shapes = [with_net(w1=flat_w1[:-1]),  # size not a multiple of the width
              with_net(w1=[[0.0, 1.0], [2.0]]),  # ragged
              with_net(w2=net["w2"][:-1]),
              with_net(b2=[0.0, 0.0])]
    for bad in missing + nonfinite + shapes:
        with pytest.raises(ModelFormatError):
            model_from_dict(bad)
    # a flat w1 of the right size is still read row-major
    back = model_from_dict(with_net(w1=flat_w1))
    key = (obj["nets"][1]["factor"], tuple(obj["nets"][1]["value"]))
    assert np.array_equal(back.nets[key].w1, np.asarray(net["w1"]))


def grid_features(grid, scope):
    """Every cell of the scope grid in row-major order, one column per variable."""
    mesh = np.meshgrid(*[grid.centers[j] for j in scope], indexing="ij")
    return np.column_stack([g.reshape(-1) for g in mesh])


def test_factor_tables_lay_the_grid_out_in_scope_order():
    # unequal bin counts per variable, so a swapped or transposed axis shows
    sp = InterventionSpace(("a", "b"), (2, 2))
    ifm = IfmStructure(4, sp, (FactorSpec((0, 1, 3), (0,)), FactorSpec((0, 1, 2, 3), (1,))))
    grid = Grid(tuple(np.linspace(-1.0, 1.0 + j, n + 1) for j, n in enumerate((2, 3, 4, 5))))
    model = new_model(ifm, grid, hidden=6, seed=11, out_scale=0.9)
    for k, f in enumerate(ifm.factors):
        net = model.net_for(k, RegimeVector((1, 1)))
        ref = mlp_forward(net, grid_features(grid, f.var_scope))[0]
        table = factor_table(model, k, RegimeVector((1, 1)))
        assert table.shape == tuple(grid.nbins[j] for j in f.var_scope)
        assert np.array_equal(table, ref.reshape(table.shape))


def test_blocked_factor_tables_equal_the_whole_grid_forward_bitwise():
    # every grid spans more than two blocks and ends in a ragged one.
    # 30 x 30 x 25: a block holds 10.9 steps of the leading axis; 20^4: 1.02
    # (a period of 8,000 cells, so blocks straddle steps); 150 x 131: 62.5;
    # 17,000 bins of one variable: the period is one cell.
    for dims in ((30, 30, 25), (20, 20, 20, 20), (150, 131), (17_000,)):
        scope = tuple(range(len(dims)))
        sp = InterventionSpace(("a",), (2,))
        ifm = IfmStructure(len(dims), sp, (FactorSpec(scope, (0,)),))
        grid = Grid(tuple(np.linspace(-1.0, 1.0 + j, n + 1) for j, n in enumerate(dims)))
        model = new_model(ifm, grid, hidden=7, seed=3, out_scale=1.2)
        for level in (0, 1):
            r = RegimeVector((level,))
            table = factor_table(model, 0, r)
            assert table.size > 2 * energy.TABLE_BLOCK and table.size % energy.TABLE_BLOCK
            ref = mlp_forward(model.net_for(0, r), grid_features(grid, scope))[0]
            assert np.array_equal(table, ref.reshape(table.shape)), dims
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[(0,) * len(dims)] = 0.0


def test_a_cold_four_variable_table_build_stays_small_in_memory():
    """The net's hidden array is at most (hidden, TABLE_BLOCK) per block; on
    the whole 160,000-cell grid at hidden 15 it alone would be 19.2 MB. No
    feature array spans the grid either: one (160,000, 4) array is 5.1 MB."""
    bundle = builtin_structure("sachs")
    k = next(k for k, f in enumerate(bundle.ifm.factors) if len(f.var_scope) == 4)
    grid = Grid(tuple(np.linspace(-1.0, 1.0, 21) for _ in range(bundle.ifm.m)))
    model = new_model(bundle.ifm, grid, hidden=15, seed=1, out_scale=1.0)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        table = factor_table(model, k, bundle.test.regimes[-1])
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert table.size == 20 ** 4
    assert peak < 4 * 2 ** 20, peak
