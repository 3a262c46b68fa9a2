"""Property tests: the junction-tree and algebraic routes agree on random
structures, and the exponent system matches a per-target construction."""

import numpy as np
import pytest

from regimecast import (
    FactorSpec,
    IfmStructure,
    InterventionSpace,
    PrTransformation,
    RegimeSet,
    Unidentifiable,
    build_system,
    check_conditions,
    message_passing_identify,
    normalize_factors,
    sigma_graph,
    sigma_zero_set,
    solve_pr,
    verify_pr,
)
from regimecast.junction import _eliminate

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def problems(draw):
    """A random structure, the regimes its clique conditions ask for with
    zero or one of them dropped, and a random target: one outside those
    regimes unless they hold every regime."""
    d = draw(st.integers(1, 5))
    cards = tuple(draw(st.lists(st.integers(2, 3), min_size=d, max_size=d)))
    m = draw(st.integers(1, 3))
    scopes = draw(st.lists(
        st.tuples(st.sets(st.integers(0, m - 1), min_size=1), st.sets(st.integers(0, d - 1))),
        min_size=1, max_size=5))
    factors = [FactorSpec(tuple(sorted(v)), tuple(sorted(s))) for v, s in scopes]
    factors += [FactorSpec((j,), ()) for j in range(m)
                if not any(j in f.var_scope for f in factors)]
    factors += [FactorSpec((0,), (z,)) for z in range(d)
                if not any(z in f.intv_scope for f in factors)]
    space = InterventionSpace(tuple(f"s{z}" for z in range(d)), cards)
    ifm = IfmStructure(m, space, tuple(factors))

    train = RegimeSet(())
    for clique in _eliminate(sigma_graph(normalize_factors(ifm)))[1]:
        train = train.union(sigma_zero_set(space, clique))
    drop = draw(st.none() | st.integers(0, len(train) - 1))
    if drop is not None:
        train = RegimeSet(train.regimes[:drop] + train.regimes[drop + 1:])
    regimes = space.all_regimes().regimes
    unseen = [r for r in regimes if r not in train]
    return ifm, train, draw(st.sampled_from(unseen or regimes))


@hypothesis.settings(derandomize=True, deadline=None, max_examples=100)
@hypothesis.given(problems())
def test_tree_and_algebraic_routes_certify_together(problem):
    ifm, train, target = problem
    norm = normalize_factors(ifm)
    # absorbing nested factor scopes adds no sigma-graph edge, so the tree
    # route gives the same answer with or without normalization
    assert sigma_graph(ifm).edges == sigma_graph(norm).edges
    assert check_conditions(ifm, train) == check_conditions(norm, train)
    report, (tree,) = message_passing_identify(ifm, train, [target])
    assert message_passing_identify(norm, train, [target])[1] == [tree]
    assert report == check_conditions(ifm, train)
    assert tree.route == "junction-tree"
    if check_conditions(ifm, train).passed:
        alg = solve_pr(norm, train, target)
        assert isinstance(alg, PrTransformation)
        assert verify_pr(norm, tree) and verify_pr(norm, alg)
    elif target not in train:
        assert isinstance(tree, Unidentifiable)
        assert tree.reason.startswith("training set misses combinations over cliques")
    # every certificate the tree route gives outside training: integer
    # exponents summing to exactly 1 that solve the exponent system
    unseen = [r for r in ifm.space.all_regimes().regimes if r not in train]
    for cert in message_passing_identify(ifm, train, unseen)[1]:
        if isinstance(cert, PrTransformation):
            assert all(q == int(q) for q in cert.exponents)
            assert sum(cert.exponents) == 1
            assert verify_pr(norm, cert)


def per_target_system(ifm, train, target):
    """The exponent system built from scratch for one target: every factor's
    patterns over the target and each training regime, sorted."""
    symbols, patterns = [], []
    for k, f in enumerate(ifm.factors):
        patterns.append([r.project(f.intv_scope) for r in (target, *train)])
        symbols.extend((k, v) for v in sorted(set(patterns[-1])))
    row = {s: i for i, s in enumerate(symbols)}
    a = np.zeros((len(symbols), len(train)))
    b = np.zeros(len(symbols))
    for k, (aim, *values) in enumerate(patterns):
        a[[row[k, v] for v in values], range(len(values))] = 1.0
        b[row[k, aim]] = 1.0
    return a, b, tuple(symbols)


@st.composite
def systems(draw):
    """A random structure (normalized or not), a training set in random order
    and targets drawn from every regime, seen in training or not."""
    d = draw(st.integers(1, 4))
    cards = tuple(draw(st.lists(st.integers(2, 3), min_size=d, max_size=d)))
    scopes = draw(st.lists(st.sets(st.integers(0, d - 1)), min_size=1, max_size=4))
    factors = [FactorSpec((0,), tuple(sorted(s))) for s in scopes]
    factors += [FactorSpec((0,), (z,)) for z in range(d)
                if not any(z in f.intv_scope for f in factors)]
    space = InterventionSpace(tuple(f"s{z}" for z in range(d)), cards)
    ifm = IfmStructure(1, space, tuple(factors))
    if draw(st.booleans()):
        ifm = normalize_factors(ifm)
    regimes = draw(st.permutations(space.all_regimes().regimes))
    train = RegimeSet(tuple(regimes[:draw(st.integers(0, len(regimes)))]))
    return ifm, train, draw(st.lists(st.sampled_from(regimes), min_size=1, max_size=4))


@hypothesis.settings(derandomize=True, deadline=None, max_examples=200)
@hypothesis.given(systems())
def test_system_matches_a_per_target_construction(problem):
    # one process answers for many (structure, training set) pairs, so rows
    # shared across targets must be the ones of the training set asked about
    ifm, train, targets = problem
    for sub in (train, RegimeSet(train.regimes[:-1]), RegimeSet(())):
        for target in targets:
            system = build_system(ifm, sub, target)
            a, b, symbols = per_target_system(ifm, sub, target)
            assert system.symbols == symbols
            assert system.a.shape == a.shape and np.array_equal(system.a, a)
            assert system.b.shape == b.shape and np.array_equal(system.b, b)
            assert not system.a.flags.writeable and not system.b.flags.writeable
