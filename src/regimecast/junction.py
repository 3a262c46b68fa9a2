"""Certification of unseen regimes: `certify` picks the route, and the
junction-tree route lives here.

One min-fill elimination of the graph on intervention indices tests
chordality, fills the graph in and lists its maximal cliques. A maximum-weight
spanning tree over them is a junction tree; it needs no root, because every
clique tree of the graph has the same separators. Provided training data
covers, for every clique, all level combinations over that clique with
everything else at baseline, an unseen regime's density is the product of its
clique densities divided by its separator densities. The whole
derivation collapses to an integer exponent vector over training regimes,
which is what gets returned. `certify` takes this route when training covers
every clique (or when asked to) and `algebraic.solve_pr` otherwise. The tree
route eliminates once per call, whatever the number of targets; `sampling`
runs the same elimination on the graph of its variables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import algebraic
from .algebraic import ROUTE_TREE, PrTransformation, Unidentifiable, verify_pr
from .errors import InvalidSpec
from .model import (
    IfmStructure,
    RegimeSet,
    SigmaGraph,
    normalize_factors,
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


def _junction_tree(cliques: list) -> tuple:
    """Edges (i, j), i < j, of a junction tree over a graph's maximal cliques
    (sorted tuples, sorted overall), as `_eliminate` lists them.

    The tree is the maximum-weight spanning tree under separator size, with
    ties broken by lexicographically smallest clique pair; zero-weight links
    are allowed so disconnected graphs still produce one tree.
    """
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

    return tuple(sorted(edges))


@dataclass(frozen=True)
class CliqueCondition:
    """Coverage result for one clique: which required regimes are missing."""

    clique: tuple
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
        missing = tuple(r for r in sigma_zero_set(ifm.space, clique) if r not in train)
        entries.append(CliqueCondition(clique, missing))
    return ConditionReport(tuple(entries))


def message_passing_identify(ifm: IfmStructure, train: RegimeSet, targets) -> list:
    """Derive each target's exponent certificate from one junction tree.

    Each clique contributes the regime holding the target's levels on the
    clique (baseline elsewhere) with exponent +1, and each tree edge divides
    out the regime restricted to its separator. Every clique tree of a
    chordal graph has the same separators, so no root is needed, and factor
    normalization adds no sigma-graph edge, so none is needed either. A
    target already in training short-circuits to the one-hot certificate.

    Args:
        ifm: factor structure.
        train: available training regimes.
        targets: regimes to identify.

    Returns:
        Per target, an integer-exponent certificate over `train`, verified
        before return, or an Unidentifiable when training coverage fails for
        some clique.
    """
    for target in targets:
        ifm.space.check_regime(target)
    # one elimination of the untriangulated graph gives the filled graph's cliques
    cliques = _eliminate(sigma_graph(ifm))[1]
    bad = [e.clique for e in _conditions(ifm, cliques, train).entries if not e.passed]
    edges = () if bad else _junction_tree(cliques)

    results = []
    for target in targets:
        if bad and target not in train:
            results.append(Unidentifiable(
                target, train, ROUTE_TREE,
                f"training set misses combinations over cliques {bad}"))
            continue
        counts = np.zeros(len(train))
        if target in train:
            counts[train.index_of(target)] = 1.0
        else:
            for clique in cliques:
                counts[train.index_of(restrict_regime(target, clique))] += 1
            for i, j in edges:
                separator = set(cliques[i]) & set(cliques[j])
                counts[train.index_of(restrict_regime(target, separator))] -= 1
        cert = PrTransformation(target, train, tuple(counts), ROUTE_TREE)
        if not verify_pr(ifm, cert):
            raise AssertionError("message-passing certificate failed verification")
        results.append(cert)
    return results


ROUTES = ("auto", "tree", "algebraic")


def certify(ifm: IfmStructure, train: RegimeSet, targets, route: str = "auto") -> tuple:
    """Certify each target from `train` along one of ROUTES.

    "tree" runs `message_passing_identify` and "algebraic" runs
    `algebraic.solve_pr` per target, both on the normalized structure built
    here; "auto" takes the tree when training covers every clique. Returns
    the clique-coverage report (None on the algebraic route) and, per target,
    a PrTransformation or an Unidentifiable. An unknown route raises
    InvalidSpec.
    """
    if route not in ROUTES:
        raise InvalidSpec(f"unknown route {route!r}; expected one of {', '.join(ROUTES)}")
    norm = normalize_factors(ifm)
    report = None
    if route != "algebraic":
        report = check_conditions(norm, train)
        if route == "tree" or report.passed:
            return report, message_passing_identify(norm, train, targets)
    return report, [algebraic.solve_pr(norm, train, t) for t in targets]
