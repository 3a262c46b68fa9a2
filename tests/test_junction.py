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


def test_junction_tree_shape_with_fixed_root():
    g = sigma_graph(eight_intv_structure())
    tree = build_junction_tree(g, root=(2, 3))
    assert tree.cliques == tuple(sorted(PAIR_SCOPES))
    c = {cl: i for i, cl in enumerate(tree.cliques)}
    assert tree.root == c[(2, 3)]
    assert tree.parent[c[(1, 2)]] == c[(2, 3)]
    assert tree.parent[c[(0, 1)]] == c[(1, 2)]
    assert tree.parent[c[(1, 4)]] == c[(0, 1)]
    assert tree.parent[c[(3, 5)]] == c[(2, 3)]
    assert tree.parent[c[(3, 7)]] == c[(2, 3)]
    assert tree.parent[c[(5, 6)]] == c[(3, 5)]

    assert tree.subtree_scope[c[(1, 4)]] == (1, 4)
    assert tree.subtree_scope[c[(0, 1)]] == (0, 1, 4)
    assert tree.subtree_scope[c[(1, 2)]] == (0, 1, 2, 4)
    assert tree.subtree_scope[c[(3, 5)]] == (3, 5, 6)
    assert tree.subtree_scope[c[(2, 3)]] == tuple(range(8))

    assert tree.branch_sep[c[(1, 4)]] == (1,)
    assert tree.branch_sep[c[(0, 1)]] == (1,)
    assert tree.branch_sep[c[(1, 2)]] == (2,)
    assert tree.branch_sep[c[(3, 5)]] == (3,)
    assert tree.branch_sep[c[(3, 7)]] == (3,)
    assert tree.branch_sep[c[(5, 6)]] == (5,)

    assert sorted(tree.leaves()) == sorted([c[(1, 4)], c[(3, 7)], c[(5, 6)]])


def test_junction_tree_default_root_is_largest_then_lowest():
    g = sigma_graph(eight_intv_structure())
    tree = build_junction_tree(g)
    assert tree.cliques[tree.root] == (0, 1)
    g2 = graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    tree2 = build_junction_tree(g2)
    assert tree2.cliques[tree2.root] == (0, 1, 2)


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

        # running intersection: C_i & C_j lies in every clique on their path
        def path_to_root(i):
            out = [i]
            while tree.parent[out[-1]] is not None:
                out.append(tree.parent[out[-1]])
            return out

        n = len(tree.cliques)
        for i in range(n):
            for j in range(i + 1, n):
                shared = set(tree.cliques[i]) & set(tree.cliques[j])
                if not shared:
                    continue
                pi, pj = path_to_root(i), path_to_root(j)
                meet = next(k for k in pi if k in pj)
                path = pi[: pi.index(meet) + 1] + pj[: pj.index(meet)]
                for k in path:
                    assert shared <= set(tree.cliques[k])

        # the root only orients the tree: the edges stay, and each branch
        # separator is the separator with the parent
        for root in tree.cliques:
            rooted = build_junction_tree(tri, root=root)
            assert rooted.edges == tree.edges
            for k, p in enumerate(rooted.parent):
                if p is not None:
                    assert rooted.branch_sep[k] == rooted.separator(k, p)


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
