"""Acceptance checks; one test per numbered criterion, timed and logged."""

import itertools
import time
import warnings

import numpy as np
import pytest

from regimecast import algebraic, junction
from regimecast.algebraic import PrTransformation, Unidentifiable
from regimecast.energy import Grid, new_model, pll_gradient, pseudo_loglik
from regimecast.estimators import conformal_band, estimate_ipw, regime_weights
from regimecast.model import (
    FactorSpec,
    IfmStructure,
    InterventionSpace,
    RegimeDataset,
    RegimeSet,
    RegimeVector,
    normalize_factors,
)
from regimecast.sampling import exact_density, gibbs_sample
from regimecast.simbench import builtin_structure, run_benchmark

from conftest import all_regimes, exact_iid_draws, random_table_instance, \
    reconstruct_density, tv


def truth_model(seed=0, out_scale=1.0):
    """Two variables on 3-bin grids, one shared factor per intervention."""
    sp = InterventionSpace(("a", "b"), (2, 2))
    ifm = IfmStructure(2, sp, (FactorSpec((0,), (0,)), FactorSpec((0, 1), (1,))))
    grid = Grid((np.linspace(-1.0, 1.0, 4), np.linspace(-1.0, 1.0, 4)))
    return new_model(ifm, grid, hidden=5, seed=seed, out_scale=out_scale)


def outcome_fn(x):
    return np.tanh(x[:, 0] + 0.7 * x[:, 1])


def cell_centers(model):
    return np.array(list(itertools.product(*model.grid.centers)))


def test_criterion_1_chain_certificate_on_both_routes(acceptance_log):
    bundle = builtin_structure("chain3")
    norm = normalize_factors(bundle.ifm)
    target = RegimeVector((1, 1, 1))
    want = np.zeros(6)
    want[bundle.train.index_of(RegimeVector((1, 1, 0)))] = 1.0
    want[bundle.train.index_of(RegimeVector((0, 1, 1)))] = 1.0
    want[bundle.train.index_of(RegimeVector((0, 1, 0)))] = -1.0

    t0 = time.perf_counter()
    tree = junction.message_passing_identify(norm, bundle.train, target)
    alg = algebraic.solve_pr(norm, bundle.train, target)
    elapsed = time.perf_counter() - t0

    ok_tree = np.array_equal(np.asarray(tree.exponents), want)
    ok_alg = isinstance(alg, PrTransformation) and np.allclose(alg.exponents, want,
                                                               atol=1e-9)
    ok = ok_tree and ok_alg and elapsed < 1.0
    acceptance_log(f"{'PASS' if ok else 'FAIL'} criterion 1: chain certificate "
                   f"+1/+1/-1 on both routes ({elapsed:.3f}s)")
    assert ok_tree and ok_alg
    assert elapsed < 1.0


def test_criterion_2_cycle_system_and_solver(acceptance_log):
    bundle = builtin_structure("triangle")
    norm = normalize_factors(bundle.ifm)
    target = RegimeVector((1, 1, 1))
    q_published = np.array([1.0, -1.0, -1.0, 1.0, -1.0, 1.0, 1.0])

    t0 = time.perf_counter()
    system = algebraic.build_system(norm, bundle.train, target)
    solved = algebraic.solve_pr(norm, bundle.train, target)
    elapsed = time.perf_counter() - t0

    exact = np.array_equal(system.a @ q_published, system.b)
    verified = isinstance(solved, PrTransformation) and algebraic.verify_pr(norm, solved)
    ok = exact and verified and elapsed < 1.0
    acceptance_log(f"{'PASS' if ok else 'FAIL'} criterion 2: cycle fixture system "
                   f"solved and certificate verified ({elapsed:.3f}s)")
    assert exact
    assert verified
    assert elapsed < 1.0


def test_criterion_3_every_leave_one_out_is_refused(acceptance_log):
    bundle = builtin_structure("triangle")
    norm = normalize_factors(bundle.ifm)
    target = RegimeVector((1, 1, 1))

    refused = 0
    for drop in range(len(bundle.train)):
        kept = RegimeSet.of([r.levels for i, r in enumerate(bundle.train) if i != drop])
        if isinstance(algebraic.solve_pr(norm, kept, target), Unidentifiable):
            refused += 1
    ok = refused == 7
    acceptance_log(f"{'PASS' if ok else 'FAIL'} criterion 3: {refused}/7 "
                   f"leave-one-out reductions unidentifiable")
    assert refused == 7


def test_criterion_4_certificates_reconstruct_exact_densities(acceptance_log):
    rng = np.random.default_rng(0)
    n_instances = 100
    checked = 0
    worst = 0.0

    t0 = time.perf_counter()
    for _ in range(n_instances):
        tm = random_table_instance(rng)
        norm = normalize_factors(tm.ifm)
        regimes = all_regimes(tm.ifm.space)
        n_train = int(rng.integers(2, len(regimes) + 1))
        idx = rng.choice(len(regimes), size=n_train, replace=False)
        train = RegimeSet.of([regimes[int(i)].levels for i in sorted(idx)])
        for target in regimes:
            result = algebraic.solve_pr(norm, train, target)
            if isinstance(result, PrTransformation):
                worst = max(worst, tv(reconstruct_density(tm, result),
                                      tm.density(target)))
                checked += 1
    elapsed = time.perf_counter() - t0

    ok = checked >= 100 and worst <= 1e-9 and elapsed < 30.0
    acceptance_log(f"{'PASS' if ok else 'FAIL'} criterion 4: {n_instances} instances, "
                   f"{checked} certificates, max TV {worst:.2e} ({elapsed:.1f}s)")
    assert checked >= 100
    assert worst <= 1e-9
    assert elapsed < 30.0


def test_criterion_5_gradient_matches_finite_differences(acceptance_log):
    rng = np.random.default_rng(1)
    worst = 0.0

    t0 = time.perf_counter()
    for trial in range(10):
        model = truth_model(seed=trial, out_scale=0.8)
        data = []
        for regime in [(0, 0), (1, 0), (0, 1)]:
            x = rng.uniform(-1.0, 1.0, size=(5, 2))
            data.append(RegimeDataset(RegimeVector(regime), x))
        grads = pll_gradient(model, data)

        eps = 1e-5
        g_vec, fd_vec = [], []
        for key in sorted(model.nets):
            net = model.nets[key]
            for slot, field in enumerate(("w1", "b1", "w2", "b2")):
                arr = np.asarray(getattr(net, field), dtype=float)
                for idx in np.ndindex(*arr.shape):
                    sides = []
                    for sign in (eps, -eps):
                        bumped = arr.copy()
                        bumped[idx] += sign
                        probe = model.copy()
                        probe.nets[key] = type(net)(**{**net.__dict__, field: bumped})
                        sides.append(pseudo_loglik(probe, data))
                    fd_vec.append((sides[0] - sides[1]) / (2 * eps))
                    g_vec.append(float(np.asarray(grads[key][slot])[idx]))
        g_vec, fd_vec = np.array(g_vec), np.array(fd_vec)
        rel = float(np.linalg.norm(g_vec - fd_vec) / np.linalg.norm(fd_vec))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0

    ok = worst < 1e-4 and elapsed < 10.0
    acceptance_log(f"{'PASS' if ok else 'FAIL'} criterion 5: gradient vs central "
                   f"differences, worst relative error {worst:.2e} ({elapsed:.1f}s)")
    assert worst < 1e-4
    assert elapsed < 10.0


def test_criterion_6_gibbs_matches_exact_density(acceptance_log):
    model = truth_model(seed=6)
    regime = RegimeVector((1, 1))
    dens = exact_density(model, regime)

    t0 = time.perf_counter()
    draws = gibbs_sample(model, regime, 50_000, burn=500, thin=2, seed=0)
    elapsed = time.perf_counter() - t0

    bins = model.grid.bin_rows(draws)
    emp = np.zeros(model.grid.nbins)
    np.add.at(emp, (bins[:, 0], bins[:, 1]), 1.0)
    emp /= emp.sum()
    dist = tv(dens, emp)

    ok = dist <= 0.02 and elapsed < 30.0
    acceptance_log(f"{'PASS' if ok else 'FAIL'} criterion 6: Gibbs TV {dist:.4f} "
                   f"at 50k draws ({elapsed:.1f}s)")
    assert dist <= 0.02
    assert elapsed < 30.0


def test_criterion_7_conformal_coverage_with_exact_ratios(acceptance_log):
    model = truth_model(seed=7)
    train_regime = RegimeVector((0, 0))
    target = RegimeVector((1, 0))
    alpha, reps, noise = 0.1, 200, 0.3

    t0 = time.perf_counter()
    hits = 0
    for rep in range(reps):
        rng = np.random.default_rng(1000 + rep)
        x = exact_iid_draws(model, train_regime, 80, rng)
        y = outcome_fn(x) + noise * rng.standard_normal(80)
        ds = RegimeDataset(train_regime, x, y)
        band = conformal_band(model, [ds], target, alpha, seed=rep,
                              nsamples=250, burn=50, thin=1, hidden=5,
                              steps=120, lr=3e-2)
        x_new = exact_iid_draws(model, target, 1, rng)
        y_new = float(outcome_fn(x_new)[0] + noise * rng.standard_normal())
        hits += band.covers(y_new)
    elapsed = time.perf_counter() - t0
    coverage = hits / reps

    ok = 0.85 <= coverage <= 1.0 and elapsed < 120.0
    acceptance_log(f"{'PASS' if ok else 'FAIL'} criterion 7: conformal coverage "
                   f"{coverage:.3f} at alpha {alpha} over {reps} reps ({elapsed:.1f}s)")
    assert 0.85 <= coverage <= 1.0
    assert elapsed < 120.0


def test_criterion_8_ipw_mean_within_three_standard_errors(acceptance_log):
    model = truth_model(seed=8)
    target = RegimeVector((1, 1))
    noise = 0.2
    rng = np.random.default_rng(42)

    t0 = time.perf_counter()
    data = []
    for regime in [(0, 0), (1, 0), (0, 1)]:
        r = RegimeVector(regime)
        x = exact_iid_draws(model, r, 5000, rng)
        y = outcome_fn(x) + noise * rng.standard_normal(5000)
        data.append(RegimeDataset(r, x, y))

    dens = exact_density(model, target).ravel()
    mu_exact = float(np.sum(dens * outcome_fn(cell_centers(model))))
    est = estimate_ipw(data, [regime_weights(model, ds, target) for ds in data])
    elapsed = time.perf_counter() - t0

    err = abs(est.mu - mu_exact)
    ok = err <= 3 * est.se and elapsed < 60.0
    acceptance_log(f"{'PASS' if ok else 'FAIL'} criterion 8: IPW error {err:.4f} "
                   f"vs 3 SE {3 * est.se:.4f} at n=5000/regime ({elapsed:.1f}s)")
    assert err <= 3 * est.se
    assert elapsed < 60.0


BENCH_CONFIG = {
    "structure": "chain3",
    "truth": "ifm",
    "seed": 7,
    "n_problems": 5,
    "methods": ["ifm_direct", "ifm_ipw", "ifm_covshift", "ridge"],
    "n_baseline": 800,
    "n_regime": 300,
    "mc_samples": 2000,
    "bins": 10,
    "hidden": 8,
    "fit_steps": 200,
    "fit_lr": 5e-3,
    "outcome_hidden": 8,
    "outcome_steps": 200,
    "gibbs_n": 800,
    "gibbs_burn": 200,
    "gibbs_thin": 1,
    "truth_burn": 200,
    "truth_thin": 1,
    "truth_bins": 10,
    "truth_hidden": 8,
}


def test_criterion_9_benchmark_runs_are_byte_identical(acceptance_log, tmp_path):
    t0 = time.perf_counter()
    first = run_benchmark(BENCH_CONFIG)
    second = run_benchmark(BENCH_CONFIG)
    elapsed = time.perf_counter() - t0

    first.write_csv(tmp_path / "a.csv")
    second.write_csv(tmp_path / "b.csv")
    same_csv = (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    a, b = dict(first.data), dict(second.data)
    a.pop("runtime_seconds"), b.pop("runtime_seconds")
    same_json = a == b

    ok = same_csv and same_json and elapsed < 300.0
    acceptance_log(f"{'PASS' if ok else 'FAIL'} criterion 9: repeated benchmark "
                   f"byte-identical ({elapsed:.1f}s)")
    assert same_csv
    assert same_json
    assert elapsed < 300.0


def test_criterion_10_density_estimator_vs_ridge_smoke(acceptance_log):
    # truth_scale 2.0 makes regime means non-additive in the levels, which
    # is the case the density route is for; a linear ridge on levels cannot
    # extrapolate it to the held-out patterns
    config = dict(BENCH_CONFIG)
    config.update({
        "seed": 11,
        "n_problems": 20,
        "methods": ["ifm_direct", "ridge"],
        "truth_scale": 2.0,
        "n_baseline": 3000,
        "n_regime": 1000,
        "mc_samples": 6000,
        "bins": 16,
        "fit_steps": 1000,
        "outcome_steps": 300,
        "gibbs_n": 3000,
        "gibbs_burn": 300,
        "truth_bins": 16,
        "hidden": 12,
        "truth_hidden": 10,
        "outcome_hidden": 10,
    })
    t0 = time.perf_counter()
    report = run_benchmark(config)
    elapsed = time.perf_counter() - t0

    direct = report.data["summary"]["ifm_direct"]["prmse_median"]
    ridge = report.data["summary"]["ridge"]["prmse_median"]
    ok = direct <= ridge
    acceptance_log(f"{'PASS' if ok else 'MISS'} criterion 10 (non-gating): "
                   f"median pRMSE direct {direct:.4f} vs ridge {ridge:.4f} "
                   f"over 20 problems ({elapsed:.1f}s)")
    if not ok:
        warnings.warn(f"smoke expectation missed: direct median pRMSE {direct:.4f} "
                      f"> ridge {ridge:.4f}")
    assert direct > 0 and ridge > 0
