"""Identification by message passing on a junction tree of the sigma graph.

One min-fill elimination of the graph on intervention indices tests
chordality, fills the graph in and lists its maximal cliques. A maximum-weight
spanning tree over them is a junction tree; it needs no root, because every
clique tree of the graph has the same separators. Provided training data
covers, for every clique, all level combinations over that clique with
everything else at baseline, an unseen regime's density is the product of its
clique densities divided by its separator densities. The whole
derivation collapses to an integer exponent vector over training regimes,
which is what gets returned. Identification eliminates once per call;
`sampling` runs the same elimination on the graph of its variables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .algebraic import ROUTE_TREE, PrTransformation, verify_pr
from .errors import ConditionsNotMet, NotChordal
from .model import (
    IfmStructure,
    RegimeSet,
    RegimeVector,
    SigmaGraph,
    restrict_regime,
    sigma_graph,
    sigma_zero_set,
)


def _eliminate(g: SigmaGraph) -> tuple:
    """Min-fill elimination, lowest vertex index on ties.

    Returns (fill, cliques, order): the edges it adds, the maximal sets
    among {vertex} | {its neighbours not yet eliminated} as sorted tuples,
    sorted overall, and the vertices in elimination order. The order is
    perfect for the filled graph (input plus fill), so those sets are its
    maximal cliques; a graph is chordal exactly when there is no fill (it
    always has a zero-fill vertex).
    """
    adj = g.adjacency()
    remaining = set(range(g.d))
    fill = set()
    sets = set()
    order = []

    def missing(v):
        nbrs = sorted(adj[v] & remaining)
        return [(a, b) for a, b in itertools.combinations(nbrs, 2) if b not in adj[a]]

    while remaining:
        v = min(remaining, key=lambda u: (len(missing(u)), u))
        for a, b in missing(v):
            adj[a].add(b)
            adj[b].add(a)
            fill.add((a, b))
        remaining.discard(v)
        order.append(v)
        sets.add(frozenset((adj[v] & remaining) | {v}))
    cliques = [c for c in sets if not any(c < other for other in sets)]
    return fill, sorted(tuple(sorted(c)) for c in cliques), order


def is_decomposable(g: SigmaGraph) -> bool:
    """True when the graph is chordal (every cycle >= 4 has a chord)."""
    return not _eliminate(g)[0]


def triangulate(g: SigmaGraph) -> SigmaGraph:
    """Chordal completion by minimum fill-in, lowest vertex index on ties.

    Chordal inputs come back unchanged: they always have a zero-fill vertex
    to eliminate, so the heuristic never adds an edge it does not need.
    """
    return SigmaGraph(g.d, g.edges | _eliminate(g)[0])


def maximal_cliques(g: SigmaGraph) -> list:
    """Maximal cliques of a chordal graph as sorted tuples, sorted overall."""
    fill, cliques, _ = _eliminate(g)
    if fill:
        raise NotChordal("clique extraction requires a chordal graph")
    return cliques


@dataclass(frozen=True)
class JunctionTree:
    """Clique tree with running intersection: cliques and the edges between them.

    Every clique tree of a chordal graph has the same separators, so the
    tree carries no root; `separator(i, j)` is the overlap of a tree edge.
    """

    cliques: tuple
    edges: tuple

    def separator(self, i: int, j: int) -> tuple:
        return tuple(sorted(set(self.cliques[i]) & set(self.cliques[j])))


def build_junction_tree(g: SigmaGraph) -> JunctionTree:
    """Build a junction tree over the maximal cliques of a chordal graph.

    The tree is the maximum-weight spanning tree under separator size, with
    ties broken by lexicographically smallest clique pair; zero-weight links
    are allowed so disconnected graphs still produce one tree.
    """
    return _junction_tree(maximal_cliques(g))


def _junction_tree(cliques: list) -> JunctionTree:
    """`build_junction_tree` on a graph's maximal cliques (sorted tuples, sorted)."""
    n = len(cliques)
    members = [set(c) for c in cliques]

    candidates = sorted(
        itertools.combinations(range(n), 2),
        key=lambda ij: (-len(members[ij[0]] & members[ij[1]]), cliques[ij[0]], cliques[ij[1]]),
    )

    comp = list(range(n))

    def find(x):
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    edges = []
    for i, j in candidates:
        ri, rj = find(i), find(j)
        if ri != rj:
            comp[ri] = rj
            edges.append((i, j))
        if len(edges) == n - 1:
            break

    return JunctionTree(cliques=tuple(cliques), edges=tuple(sorted(edges)))


@dataclass(frozen=True)
class CliqueCondition:
    """Coverage result for one clique: which required regimes are missing."""

    clique: tuple
    required: RegimeSet
    missing: tuple

    @property
    def passed(self) -> bool:
        return len(self.missing) == 0


@dataclass(frozen=True)
class ConditionReport:
    """Per-clique coverage of training regimes needed for message passing.

    Shared support across regimes is assumed, not tested; only regime
    coverage is decidable from the declared training set.
    """

    entries: tuple

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)


def check_conditions(ifm: IfmStructure, train: RegimeSet) -> ConditionReport:
    """Report, per clique of the (triangulated) sigma graph, whether training
    covers every level combination over the clique with baseline elsewhere."""
    return _conditions(ifm, _eliminate(sigma_graph(ifm))[1], train)


def _conditions(ifm: IfmStructure, cliques: list, train: RegimeSet) -> ConditionReport:
    """`check_conditions` on the triangulated sigma graph's maximal cliques,
    which factor normalization would not change: it adds no sigma-graph edge."""
    entries = []
    for clique in cliques:
        required = sigma_zero_set(ifm.space, clique)
        missing = tuple(r for r in required if r not in train)
        entries.append(CliqueCondition(clique, required, missing))
    return ConditionReport(tuple(entries))


def message_passing_identify(ifm: IfmStructure, train: RegimeSet,
                             target: RegimeVector) -> PrTransformation:
    """Derive the target's exponent certificate from its junction tree.

    Each clique contributes the regime holding the target's levels on the
    clique (baseline elsewhere) with exponent +1, and each tree edge divides
    out the regime restricted to its separator. Every clique tree of a
    chordal graph has the same separators, so no root is needed, and factor
    normalization adds no sigma-graph edge, so none is needed either. A
    target already in training short-circuits to the one-hot certificate.

    Args:
        ifm: factor structure.
        train: available training regimes.
        target: regime to identify.

    Returns:
        Integer-exponent certificate over `train`, verified before return.

    Raises:
        ConditionsNotMet: training coverage fails for some clique; the
            report rides on the exception as `.report`.
    """
    ifm.space.check_regime(target)
    counts = np.zeros(len(train))

    if target in train:
        counts[train.index_of(target)] = 1.0
        return PrTransformation(target, train, tuple(counts), ROUTE_TREE)

    # one elimination of the untriangulated graph gives the filled graph's cliques
    cliques = _eliminate(sigma_graph(ifm))[1]
    report = _conditions(ifm, cliques, train)
    if not report.passed:
        bad = [e.clique for e in report.entries if not e.passed]
        exc = ConditionsNotMet(f"training set misses combinations over cliques {bad}")
        exc.report = report
        raise exc

    jt = _junction_tree(cliques)
    for clique in cliques:
        counts[train.index_of(restrict_regime(target, clique))] += 1
    for i, j in jt.edges:
        counts[train.index_of(restrict_regime(target, jt.separator(i, j)))] -= 1

    cert = PrTransformation(target, train, tuple(counts), ROUTE_TREE)
    if not verify_pr(ifm, cert):
        raise AssertionError("message-passing certificate failed verification")
    return cert
