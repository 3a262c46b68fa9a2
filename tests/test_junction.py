"""Chordality, triangulation, junction trees, message-passing certificates."""

import itertools

import numpy as np
import pytest

from regimecast import (
    ConditionsNotMet,
    FactorSpec,
    IfmStructure,
    InterventionSpace,
    NotChordal,
    RegimeSet,
    RegimeVector,
    SigmaGraph,
    build_junction_tree,
    check_conditions,
    is_decomposable,
    maximal_cliques,
    message_passing_identify,
    normalize_factors,
    sigma_graph,
    triangulate,
    verify_pr,
)
from regimecast import junction

from conftest import TableModel, reconstruct_density, tv


def graph(d, edges):
    return SigmaGraph(d, frozenset((min(a, b), max(a, b)) for a, b in edges))


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
    tri = triangulate(g)
    assert is_decomposable(tri)
    # min-fill with lowest-index ties eliminates vertex 0 first
    assert tri.edges - g.edges == frozenset({(1, 3)})


def test_triangulate_keeps_chordal_graph():
    g = graph(4, [(0, 1), (1, 2), (2, 3)])
    assert triangulate(g).edges == g.edges


def test_maximal_cliques():
    g = graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert maximal_cliques(g) == [(0, 1, 2), (2, 3)]
    assert maximal_cliques(graph(3, [])) == [(0,), (1,), (2,)]


def test_junction_tree_shape():
    g = sigma_graph(eight_intv_structure())
    tree = build_junction_tree(g)
    assert tree.cliques == tuple(sorted(PAIR_SCOPES))
    links = {(tree.cliques[i], tree.cliques[j]): tree.separator(i, j) for i, j in tree.edges}
    assert links == {
        ((0, 1), (1, 2)): (1,),
        ((0, 1), (1, 4)): (1,),
        ((1, 2), (2, 3)): (2,),
        ((2, 3), (3, 5)): (3,),
        ((2, 3), (3, 7)): (3,),
        ((3, 5), (5, 6)): (5,),
    }


def test_running_intersection_on_random_chordal_graphs():
    rng = np.random.default_rng(42)
    for _ in range(30):
        d = int(rng.integers(3, 9))
        n_edges = int(rng.integers(d - 1, d * (d - 1) // 2 + 1))
        pairs = [(a, b) for a in range(d) for b in range(a + 1, d)]
        take = rng.choice(len(pairs), size=min(n_edges, len(pairs)), replace=False)
        tri = triangulate(graph(d, [pairs[i] for i in take]))
        assert is_decomposable(tri)
        tree = build_junction_tree(tri)

        # every graph edge is inside some clique
        for a, b in tri.edges:
            assert any(a in cl and b in cl for cl in tree.cliques)

        n = len(tree.cliques)
        assert len(tree.edges) == n - 1
        nbrs = [set() for _ in range(n)]
        for i, j in tree.edges:
            nbrs[i].add(j)
            nbrs[j].add(i)

        def walk_from(i):
            """Each clique's predecessor on its tree path from clique i."""
            prev = {i: None}
            stack = [i]
            while stack:
                k = stack.pop()
                for nb in nbrs[k] - prev.keys():
                    prev[nb] = k
                    stack.append(nb)
            return prev

        # running intersection: C_i & C_j lies in every clique on their path
        for i in range(n):
            prev = walk_from(i)
            assert len(prev) == n  # connected: n - 1 edges reaching every clique
            for j in range(i + 1, n):
                shared = set(tree.cliques[i]) & set(tree.cliques[j])
                k = j
                while k is not None:
                    assert shared <= set(tree.cliques[k])
                    k = prev[k]


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
    cert = message_passing_identify(norm, train, target)
    assert verify_pr(norm, cert)

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
    cert = message_passing_identify(norm, train, target)

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
    cert = message_passing_identify(norm, train, target)
    expected = [0.0] * len(train)
    expected[3] = 1.0
    assert list(cert.exponents) == expected


def test_message_passing_requires_coverage():
    ifm = eight_intv_structure()
    norm = normalize_factors(ifm)
    train = RegimeSet.of([ones_at(()), ones_at((0,))])
    with pytest.raises(ConditionsNotMet) as err:
        message_passing_identify(norm, train, RegimeVector(ones_at((0, 1))))
    assert not err.value.report.passed


def test_identification_eliminates_once(monkeypatch):
    calls = {}

    def count(name):
        real = getattr(junction, name)

        def counted(*args):
            calls[name] = calls.get(name, 0) + 1
            return real(*args)
        monkeypatch.setattr(junction, name, counted)

    count("_eliminate")
    ifm = eight_intv_structure()
    target = RegimeVector(ones_at(tuple(range(8))))
    cert = message_passing_identify(ifm, full_train(), target)
    assert calls == {"_eliminate": 1}
    calls.clear()
    report = check_conditions(ifm, full_train())
    assert calls == {"_eliminate": 1}
    monkeypatch.undo()

    # the one elimination of the untriangulated graph gives the filled graph's cliques
    tri = triangulate(sigma_graph(normalize_factors(ifm)))
    assert [e.clique for e in report.entries] == maximal_cliques(tri)
    assert report.passed and verify_pr(normalize_factors(ifm), cert)


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
        tri = triangulate(sigma_graph(normalize_factors(ifm)))
        cliques = maximal_cliques(tri)
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
        tri = triangulate(g)
        assert tri.d == g.d and g.edges <= tri.edges and brute_chordal(tri)
        assert maximal_cliques(tri) == brute_cliques(tri)
        if chordal:
            assert tri.edges == g.edges
            assert maximal_cliques(g) == brute_cliques(g)
        else:
            with pytest.raises(NotChordal):
                maximal_cliques(g)
    assert count == 1099
