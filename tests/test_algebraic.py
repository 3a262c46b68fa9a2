"""Exponent-system construction, solving, verification, reduction."""

import numpy as np
import pytest

from regimecast import (
    FactorSpec,
    IfmStructure,
    InterventionSpace,
    PrTransformation,
    RegimeSet,
    RegimeVector,
    Unidentifiable,
    build_system,
    builtin_structure,
    greedy_reduce,
    normalize_factors,
    solve_pr,
    verify_pr,
)

from conftest import random_table_instance, reconstruct_density, tv

TRIANGLE_TRAIN = [
    (0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0), (0, 0, 1), (0, 1, 1), (1, 0, 1),
]
TRIANGLE_Q = (1.0, -1.0, -1.0, 1.0, -1.0, 1.0, 1.0)


def triangle():
    b = builtin_structure("triangle")
    return normalize_factors(b.ifm), RegimeSet.of(TRIANGLE_TRAIN), RegimeVector((1, 1, 1))


def test_system_shape_and_rhs():
    ifm, train, target = triangle()
    sys = build_system(ifm, train, target)
    # 3 factors x 4 level patterns each = 12 constraint rows
    assert sys.a.shape == (12, 7)
    assert sys.b.shape == (12,)
    assert sys.b.sum() == 3
    ones = [sys.symbols[i] for i in np.flatnonzero(sys.b)]
    assert ones == [(0, (1, 1)), (1, (1, 1)), (2, (1, 1))]
    # each column's pattern memberships: one row per factor
    assert np.all(sys.a.sum(axis=0) == 3)


def test_known_exponent_vector_solves_exactly():
    ifm, train, target = triangle()
    sys = build_system(ifm, train, target)
    assert np.array_equal(sys.a @ np.array(TRIANGLE_Q), sys.b)


def test_solver_recovers_unique_solution():
    ifm, train, target = triangle()
    cert = solve_pr(ifm, train, target)
    assert isinstance(cert, PrTransformation)
    assert cert.solution_dim == 0
    assert cert.route == "algebraic"
    assert np.allclose(cert.exponents, TRIANGLE_Q, atol=1e-9)
    assert verify_pr(ifm, cert)


def test_every_leave_one_out_is_unidentifiable():
    ifm, train, target = triangle()
    for i in range(len(TRIANGLE_TRAIN)):
        sub = RegimeSet.of([r for j, r in enumerate(TRIANGLE_TRAIN) if j != i])
        res = solve_pr(ifm, sub, target)
        assert isinstance(res, Unidentifiable)
        assert res.target == target
        assert res.reason
        assert isinstance(res.factor, int)
        assert isinstance(res.value, tuple)


def test_empty_train_is_unidentifiable():
    ifm, _, target = triangle()
    res = solve_pr(ifm, RegimeSet(()), target)
    assert isinstance(res, Unidentifiable)


def test_target_in_train_is_one_hot():
    ifm, train, _ = triangle()
    cert = solve_pr(ifm, train, RegimeVector((1, 1, 0)))
    assert isinstance(cert, PrTransformation)
    assert np.allclose(
        cert.exponents, [0, 0, 0, 1, 0, 0, 0], atol=1e-9)


def test_solution_dim_counts_redundancy():
    space = InterventionSpace(("s1", "s2", "s3"), (2, 2, 2))
    ifm = normalize_factors(IfmStructure(
        1, space, (FactorSpec((0,), (0, 1)), FactorSpec((0,), (1, 2))),
    ))
    base = [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0), (0, 0, 1), (0, 1, 1)]
    target = RegimeVector((1, 1, 1))
    cert = solve_pr(ifm, RegimeSet.of(base), target)
    assert cert.solution_dim == 0
    # (1,0,1) adds no new factor pattern, only a dependent column
    cert2 = solve_pr(ifm, RegimeSet.of(base + [(1, 0, 1)]), target)
    assert cert2.solution_dim == 1
    assert verify_pr(ifm, cert2)


def test_greedy_reduce_keeps_minimal_support():
    space = InterventionSpace(("s1", "s2", "s3"), (2, 2, 2))
    ifm = normalize_factors(IfmStructure(
        1, space, (FactorSpec((0,), (0, 1)), FactorSpec((0,), (1, 2))),
    ))
    train = RegimeSet.of([
        (0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0), (0, 0, 1), (0, 1, 1),
    ])
    kept = greedy_reduce(ifm, train, RegimeVector((1, 1, 1)))
    assert [r.levels for r in kept] == [(0, 1, 0), (1, 1, 0), (0, 1, 1)]
    cert = solve_pr(ifm, kept, RegimeVector((1, 1, 1)))
    assert isinstance(cert, PrTransformation)


def test_exponents_always_sum_to_one():
    # summing the constraint rows of any single factor forces sum(q) = 1
    rng = np.random.default_rng(5)
    found = 0
    for _ in range(60):
        tm = random_table_instance(rng)
        norm = normalize_factors(tm.ifm)
        regimes = list(norm.space.all_regimes())
        n_train = int(rng.integers(1, len(regimes) + 1))
        idx = rng.choice(len(regimes), size=n_train, replace=False)
        train = RegimeSet.of([regimes[i].levels for i in sorted(idx)])
        target = regimes[int(rng.integers(0, len(regimes)))]
        cert = solve_pr(norm, train, target)
        if isinstance(cert, PrTransformation):
            found += 1
            assert sum(cert.exponents) == pytest.approx(1.0, abs=1e-8)
            assert verify_pr(norm, cert)
    assert found >= 10


def test_certificates_reconstruct_oracle_densities():
    rng = np.random.default_rng(9)
    checked = 0
    for _ in range(40):
        tm = random_table_instance(rng)
        norm = normalize_factors(tm.ifm)
        tm_norm = type(tm)(norm, tm.nbins, _tables_for(norm, tm, rng))
        regimes = list(norm.space.all_regimes())
        for i, target in enumerate(regimes):
            train = RegimeSet.of([r.levels for j, r in enumerate(regimes) if j != i])
            cert = solve_pr(norm, train, target)
            if not isinstance(cert, PrTransformation):
                continue
            assert tv(reconstruct_density(tm_norm, cert), tm_norm.density(target)) <= 1e-9
            checked += 1
    assert checked >= 30


def _tables_for(norm, tm, rng):
    import itertools

    tables = {}
    for k, f in enumerate(norm.factors):
        shape = tuple(tm.nbins[v] for v in f.var_scope)
        cards = [norm.space.cardinalities[j] for j in f.intv_scope]
        for pattern in itertools.product(*[range(c) for c in cards]):
            tables[(k, pattern)] = rng.uniform(0.2, 2.0, size=shape)
    return tables
