"""Property test: the junction-tree and algebraic routes agree on random structures."""

import pytest

from regimecast import (
    FactorSpec,
    IfmStructure,
    InterventionSpace,
    PrTransformation,
    RegimeSet,
    Unidentifiable,
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
    (tree,) = message_passing_identify(ifm, train, [target])
    assert message_passing_identify(norm, train, [target]) == [tree]
    assert tree.route == "junction-tree"
    if check_conditions(ifm, train).passed:
        alg = solve_pr(norm, train, target)
        assert isinstance(alg, PrTransformation)
        assert verify_pr(norm, tree) and verify_pr(norm, alg)
    elif target not in train:
        assert isinstance(tree, Unidentifiable)
        assert tree.reason.startswith("training set misses combinations over cliques")
