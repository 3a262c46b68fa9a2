"""Chordality, elimination, message-passing certificates, and the one
certification call."""

import itertools
from collections import Counter

import numpy as np
import pytest

from regimecast import (
    FactorSpec,
    IfmStructure,
    InterventionSpace,
    PrTransformation,
    RegimeSet,
    RegimeVector,
    SigmaGraph,
    Unidentifiable,
    certify,
    check_conditions,
    is_decomposable,
    message_passing_identify,
    normalize_factors,
    sigma_graph,
    solve_pr,
    verify_pr,
)
from regimecast import junction
from regimecast.errors import InvalidSpec
from regimecast.junction import _eliminate
from regimecast.simbench import builtin_structure

from conftest import TableModel, reconstruct_density, tv


def graph(d, edges):
    return SigmaGraph(d, frozenset((min(a, b), max(a, b)) for a, b in edges))


def filled(g):
    """The graph plus its elimination fill, and that filled graph's cliques."""
    fill, cliques, _ = _eliminate(g)
    return SigmaGraph(g.d, g.edges | fill), cliques


# eight binary interventions, seven pairwise-switched factors on one variable
PAIR_SCOPES = [(0, 1), (1, 2), (1, 4), (2, 3), (3, 5), (5, 6), (3, 7)]


def eight_intv_structure() -> IfmStructure:
    space = InterventionSpace(tuple(f"s{j}" for j in range(8)), (2,) * 8)
    factors = tuple(FactorSpec((0,), s) for s in PAIR_SCOPES)
    return IfmStructure(1, space, factors)


def ones_at(idx, d=8) -> tuple:
    levels = [0] * d
    for i in idx:
        levels[i] = 1
    return tuple(levels)


def test_chordality_known_cases():
    assert is_decomposable(graph(3, [(0, 1), (1, 2), (0, 2)]))
    assert is_decomposable(graph(4, [(0, 1), (1, 2), (2, 3)]))
    assert not is_decomposable(graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
    assert is_decomposable(graph(2, []))
    # 5-cycle with one chord still has a chordless 4-cycle
    assert not is_decomposable(graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)]))


def test_triangulate_four_cycle_adds_expected_chord():
    g = graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    tri, _ = filled(g)
    assert is_decomposable(tri)
    # min-fill with lowest-index ties eliminates vertex 0 first
    assert tri.edges - g.edges == frozenset({(1, 3)})


def test_triangulate_keeps_chordal_graph():
    g = graph(4, [(0, 1), (1, 2), (2, 3)])
    assert _eliminate(g)[0] == set()


def test_maximal_cliques():
    g = graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert _eliminate(g)[1] == [(0, 1, 2), (2, 3)]
    assert _eliminate(graph(3, []))[1] == [(0,), (1,), (2,)]


def test_junction_tree_shape():
    _, cliques, steps = _eliminate(sigma_graph(eight_intv_structure()))
    assert cliques == sorted(PAIR_SCOPES)
    # +1 per step's {v} | later, -1 per later set but the last (empty) one:
    # what is left is +1 per clique and -1 per junction-tree separator
    net = Counter(tuple(sorted((v, *later))) for v, later in steps)
    net.subtract(later for _, later in steps[:-1])
    assert {s: k for s, k in net.items() if k} == {
        **{c: 1 for c in PAIR_SCOPES},
        (1,): -2, (2,): -1, (3,): -2, (5,): -1,
    }


def test_check_conditions_reports_missing_regimes():
    ifm = eight_intv_structure()
    train = RegimeSet.of([ones_at(())] + [ones_at((j,)) for j in range(8)])
    report = check_conditions(ifm, train)
    assert not report.passed
    missing = {e.clique: [r.levels for r in e.missing] for e in report.entries}
    # each pair clique lacks exactly its joint-ones regime
    assert missing[(0, 1)] == [ones_at((0, 1))]
    assert missing[(5, 6)] == [ones_at((5, 6))]


def full_train() -> RegimeSet:
    regimes = [ones_at(())]
    regimes += [ones_at((j,)) for j in range(8)]
    regimes += [ones_at(s) for s in PAIR_SCOPES]
    return RegimeSet.of(regimes)


def test_message_passing_certificate_exponents():
    ifm = eight_intv_structure()
    norm = normalize_factors(ifm)
    train = full_train()
    target = RegimeVector(ones_at(tuple(range(8))))
    (cert,) = message_passing_identify(norm, train, [target])[1]
    assert cert.route == "junction-tree" and verify_pr(norm, cert)

    by_regime = dict(zip([r.levels for r in cert.train], cert.exponents))
    for s in PAIR_SCOPES:
        assert by_regime[ones_at(s)] == pytest.approx(1.0)
    # separators: {2} and {4} each back two branches, {3} and {6} one each
    assert by_regime[ones_at((1,))] == pytest.approx(-2.0)
    assert by_regime[ones_at((3,))] == pytest.approx(-2.0)
    assert by_regime[ones_at((2,))] == pytest.approx(-1.0)
    assert by_regime[ones_at((5,))] == pytest.approx(-1.0)
    for j in (0, 4, 6, 7):
        assert by_regime[ones_at((j,))] == pytest.approx(0.0)
    assert by_regime[ones_at(())] == pytest.approx(0.0)
    assert sum(cert.exponents) == pytest.approx(1.0)


def test_message_passing_matches_table_oracle():
    ifm = eight_intv_structure()
    norm = normalize_factors(ifm)
    train = full_train()
    target = RegimeVector(ones_at(tuple(range(8))))
    (cert,) = message_passing_identify(norm, train, [target])[1]

    rng = np.random.default_rng(7)
    tables = {}
    for k, f in enumerate(norm.factors):
        for pattern in [(a, b) for a in range(2) for b in range(2)]:
            tables[(k, pattern)] = rng.uniform(0.2, 2.0, size=(4,))
    tm = TableModel(norm, (4,), tables)
    assert tv(reconstruct_density(tm, cert), tm.density(target)) <= 1e-9


def test_message_passing_short_circuits_known_target():
    ifm = eight_intv_structure()
    norm = normalize_factors(ifm)
    train = full_train()
    target = train[3]
    (cert,) = message_passing_identify(norm, train, [target])[1]
    expected = [0.0] * len(train)
    expected[3] = 1.0
    assert list(cert.exponents) == expected


def test_message_passing_requires_coverage():
    ifm = eight_intv_structure()
    norm = normalize_factors(ifm)
    train = RegimeSet.of([ones_at(()), ones_at((0,))])
    target = RegimeVector(ones_at((0, 1)))
    unseen, seen = message_passing_identify(norm, train, [target, train[1]])[1]
    assert isinstance(unseen, Unidentifiable)
    assert (unseen.target, unseen.train, unseen.route) == (target, train, "junction-tree")
    assert unseen.reason.startswith("training set misses combinations over cliques [(0, 1),")
    # a target already in training needs no coverage
    assert isinstance(seen, PrTransformation) and seen.exponents == (0.0, 1.0)
    # the tree is the route asked for, so the report rides along with the refusal
    report, results = certify(ifm, train, [target], "tree")
    assert not report.passed and results == [unseen]


def test_identification_eliminates_once(monkeypatch):
    calls = []
    eliminate = junction._eliminate

    def counted(g):
        calls.append(g.d)
        return eliminate(g)

    monkeypatch.setattr(junction, "_eliminate", counted)
    bundle = builtin_structure("dream")
    assert len(bundle.test) == 45
    report, results = certify(bundle.ifm, bundle.train, bundle.test)
    all_targets = len(calls)
    calls.clear()
    certify(bundle.ifm, bundle.train, bundle.test.regimes[:1])
    # the tree route's work on the graph does not grow with the targets
    assert all_targets == len(calls) > 0
    calls.clear()
    check_conditions(bundle.ifm, bundle.train)
    assert len(calls) == 1
    assert report.passed
    assert all(r.route == "junction-tree" and verify_pr(normalize_factors(bundle.ifm), r)
               for r in results)


def test_certify_eliminates_once_per_call(monkeypatch):
    calls = []
    eliminate = junction._eliminate

    def counted(g):
        calls.append(g.d)
        return eliminate(g)

    monkeypatch.setattr(junction, "_eliminate", counted)
    for name in ("chain3", "triangle", "sachs", "dream"):
        bundle = builtin_structure(name)
        calls.clear()
        report, results = certify(bundle.ifm, bundle.train, bundle.test)
        # the report and the tree certificates come from the same elimination;
        # triangle misses coverage, so "auto" solves it algebraically instead
        assert report.passed == (name != "triangle"), name
        assert all(r.route == ("junction-tree" if report.passed else "algebraic")
                   for r in results), name
        assert len(calls) == 1, name


def test_certification_projects_each_training_regime_once(monkeypatch):
    calls = []
    project = RegimeVector.project

    def counted(regime, subset):
        calls.append(subset)
        return project(regime, subset)

    monkeypatch.setattr(RegimeVector, "project", counted)
    bundle = builtin_structure("dream")
    targets = bundle.ifm.space.all_regimes()
    k = len(normalize_factors(bundle.ifm).factors)
    assert len(targets) == 1024
    for route in ("auto", "algebraic"):
        calls.clear()
        _, results = certify(bundle.ifm, bundle.train, targets, route)
        assert all(isinstance(r, PrTransformation) for r in results)
        # each target's patterns, and each training regime's once per call,
        # not once per target
        assert len(calls) <= k * (len(bundle.train) + len(targets)), route


def test_the_tree_route_builds_no_regime_per_target(monkeypatch):
    bundle = builtin_structure("dream")
    targets = bundle.ifm.space.all_regimes()
    report = check_conditions(normalize_factors(bundle.ifm), bundle.train)
    cards = bundle.ifm.space.cardinalities
    zero_sets = sum(int(np.prod([cards[z] for z in e.clique])) for e in report.entries)
    assert len(targets) == 1024 and zero_sets == 20
    built = []
    post_init = RegimeVector.__post_init__

    def counted(regime):
        built.append(1)
        post_init(regime)

    monkeypatch.setattr(RegimeVector, "__post_init__", counted)
    for route in ("auto", "tree"):
        built.clear()
        _, results = certify(bundle.ifm, bundle.train, targets, route)
        assert all(r.route == "junction-tree" for r in results)
        # only the clique zero sets, once for the report inside
        # message_passing_identify; each target's regimes are looked up by levels
        assert len(built) <= 2 * zero_sets, route


def test_certify_matches_a_per_target_solver_loop():
    # "auto" takes the tree only where coverage holds, and the tree certifies
    # exactly the targets the exponent system can solve
    for name in ("chain3", "triangle", "sachs", "dream"):
        bundle = builtin_structure(name)
        norm = normalize_factors(bundle.ifm)
        targets = bundle.test.regimes + bundle.train.regimes[-1:]
        for train in (bundle.train, RegimeSet(bundle.train.regimes[:-1]), RegimeSet(())):
            report, results = certify(bundle.ifm, train, targets)
            assert report == check_conditions(norm, train)
            loop = [solve_pr(norm, train, t) for t in targets]
            assert [r.target for r in results] == list(targets)
            assert [isinstance(r, PrTransformation) for r in results] == \
                [isinstance(r, PrTransformation) for r in loop], name
            assert [getattr(r, "reason", None) for r in results] == \
                [getattr(r, "reason", None) for r in loop], name
            assert all(r.route == ("junction-tree" if report.passed else "algebraic")
                       for r in results)


def test_certify_rejects_an_unknown_route():
    bundle = builtin_structure("chain3")
    with pytest.raises(InvalidSpec, match="unknown route 'exact'"):
        certify(bundle.ifm, bundle.train, bundle.test, "exact")
    report, results = certify(bundle.ifm, bundle.train, bundle.test, "algebraic")
    assert report is None and all(r.route == "algebraic" for r in results)


def test_factor_scopes_live_inside_cliques():
    # after triangulation every factor's intervention scope fits in a clique
    rng = np.random.default_rng(11)
    for _ in range(25):
        d = int(rng.integers(2, 7))
        space = InterventionSpace(tuple(f"s{j}" for j in range(d)), (2,) * d)
        factors = []
        for _ in range(int(rng.integers(1, 5))):
            ni = int(rng.integers(1, d + 1))
            scope = tuple(sorted(rng.choice(d, size=ni, replace=False).tolist()))
            factors.append(FactorSpec((0,), scope))
        covered = set()
        for f in factors:
            covered.update(f.intv_scope)
        for j in range(d):
            if j not in covered:
                factors.append(FactorSpec((0,), (j,)))
        ifm = IfmStructure(1, space, tuple(factors))
        cliques = _eliminate(sigma_graph(normalize_factors(ifm)))[1]
        for f in ifm.factors:
            assert any(set(f.intv_scope) <= set(cl) for cl in cliques)


def all_graphs(max_d):
    """Every graph on d = 1..max_d labelled vertices."""
    for d in range(1, max_d + 1):
        pairs = list(itertools.combinations(range(d), 2))
        for mask in range(1 << len(pairs)):
            yield graph(d, [p for i, p in enumerate(pairs) if mask >> i & 1])


def induces_cycle(g, sub):
    """Whether the vertices `sub` induce one cycle through all of them: some
    cyclic order of them is a cycle, and it holds every edge among them."""
    inner = sum(g.has_edge(a, b) for a, b in itertools.combinations(sub, 2))
    return inner == len(sub) and any(
        all(g.has_edge(a, b) for a, b in zip(order, order[1:] + order[:1]))
        for order in ((sub[0], *rest) for rest in itertools.permutations(sub[1:])))


def brute_chordal(g):
    return not any(induces_cycle(g, sub)
                   for k in range(4, g.d + 1)
                   for sub in itertools.combinations(range(g.d), k))


def brute_cliques(g):
    cliques = [set(sub)
               for k in range(1, g.d + 1)
               for sub in itertools.combinations(range(g.d), k)
               if all(g.has_edge(a, b) for a, b in itertools.combinations(sub, 2))]
    return sorted(tuple(sorted(c)) for c in cliques if not any(c < o for o in cliques))


def test_graph_helpers_match_brute_force_on_every_small_graph():
    count = 0
    for g in all_graphs(5):
        count += 1
        chordal = brute_chordal(g)
        assert is_decomposable(g) == chordal
        tri, cliques = filled(g)
        assert tri.d == g.d and g.edges <= tri.edges and brute_chordal(tri)
        assert cliques == brute_cliques(tri)
        # each step records its vertex's neighbours in the filled graph that
        # are eliminated after it
        steps = _eliminate(g)[2]
        order = [v for v, _ in steps]
        assert sorted(order) == list(range(g.d))
        for i, (v, later) in enumerate(steps):
            assert later == tuple(sorted(u for u in order[i + 1:] if tri.has_edge(u, v)))
        if chordal:
            assert tri.edges == g.edges
    assert count == 1099
