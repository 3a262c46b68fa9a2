"""Certification of unseen regimes: `certify` picks the route, and the
junction-tree route lives here.

One min-fill elimination of the graph on intervention indices tests
chordality, fills the graph in, lists its maximal cliques and records each
step's vertex v with its later neighbours L_v; the order is perfect for the
filled graph. Provided training data covers, for every clique, all level
combinations over that clique with everything else at baseline, the chain
rule along that order writes an unseen regime's density as
p_0 · prod_v p(A_v) / p(L_v), A_v = {v} | L_v, each factor the density of the
regime restricted to that set. Non-maximal A_v cancel against some L_u, which
leaves the clique densities over the clique-tree separators, so no tree is
built. The whole derivation collapses to an integer exponent vector over
training regimes, which is what gets returned. `certify` takes this route
when training covers every clique (or when asked to) and `algebraic.solve_pr`
otherwise. `message_passing_identify` eliminates once per call, whatever the
number of targets, and returns the coverage report read off that elimination
with the certificates; `check_conditions` is that call with no targets, and
`certify`'s tree route is one such call. `sampling` reads the same
elimination record on the graph of its variables.
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
    sigma_graph,
    sigma_zero_set,
)


def _eliminate(g: SigmaGraph) -> tuple:
    """Min-fill elimination, lowest vertex index on ties.

    Returns (fill, cliques, steps): the edges it adds, the maximal sets among
    {v} | later for the steps (v, later), as sorted tuples, sorted overall,
    and per step in elimination order the vertex v and its later neighbours
    (those not yet eliminated) as a sorted tuple. The order is perfect for
    the filled graph (input plus fill), so those sets are its maximal
    cliques; a graph is chordal exactly when there is no fill (it always has
    a zero-fill vertex).
    """
    adj = g.adjacency()
    remaining = set(range(g.d))
    fill = set()
    steps = []

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
        steps.append((v, tuple(sorted(adj[v] & remaining))))
    sets = {frozenset((v, *later)) for v, later in steps}
    cliques = [c for c in sets if not any(c < other for other in sets)]
    return fill, sorted(tuple(sorted(c)) for c in cliques), steps


def is_decomposable(g: SigmaGraph) -> bool:
    """True when the graph is chordal (every cycle >= 4 has a chord)."""
    return not _eliminate(g)[0]


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
    return message_passing_identify(ifm, train, ())[0]


def message_passing_identify(ifm: IfmStructure, train: RegimeSet, targets) -> tuple:
    """Derive each target's exponent certificate from one min-fill elimination.

    The same elimination gives the filled graph's maximal cliques, whose
    training coverage is the returned report; factor normalization would not
    change them, as it adds no sigma-graph edge. The chain rule along the
    order is one signed list of intervention sets, built once per call: +1 at
    {v} | later for each step (v, later) and -1 at `later` for each but the
    last step, whose empty `later` cancels p_0. A target's certificate adds
    each sign at the training regime holding the target's levels on the set
    and baseline elsewhere, found by its levels. Each set lies in a clique of
    the filled graph, so clique coverage puts that regime in training. A
    target already in training short-circuits to the one-hot certificate.

    Args:
        ifm: factor structure.
        train: available training regimes.
        targets: regimes to identify.

    Returns:
        The clique-coverage report and, per target, an integer-exponent
        certificate over `train`, verified before return, or an
        Unidentifiable when training coverage fails for some clique.
    """
    for target in targets:
        ifm.space.check_regime(target)
    # one elimination of the untriangulated graph gives the filled graph's
    # cliques and the signed sets every certificate reads
    _, cliques, steps = _eliminate(sigma_graph(ifm))
    report = ConditionReport(tuple(
        CliqueCondition(c, tuple(r for r in sigma_zero_set(ifm.space, c) if r not in train))
        for c in cliques))
    bad = [e.clique for e in report.entries if not e.passed]
    signed = [(1, {v, *later}) for v, later in steps] + [(-1, set(later)) for _, later in steps[:-1]]
    position = {r.levels: i for i, r in enumerate(train)}

    results = []
    for target in targets:
        counts = np.zeros(len(train))
        if target.levels in position:
            counts[position[target.levels]] = 1.0
        elif bad:
            results.append(Unidentifiable(
                target, train, ROUTE_TREE,
                f"training set misses combinations over cliques {bad}"))
            continue
        else:
            for sign, zs in signed:
                counts[position[tuple(v if i in zs else 0 for i, v in enumerate(target))]] += sign
        cert = PrTransformation(target, train, tuple(counts), ROUTE_TREE)
        if not verify_pr(ifm, cert):
            raise AssertionError("message-passing certificate failed verification")
        results.append(cert)
    return report, results


ROUTES = ("auto", "tree", "algebraic")


def certify(ifm: IfmStructure, train: RegimeSet, targets, route: str = "auto") -> tuple:
    """Certify each target from `train` along one of ROUTES.

    "tree" runs `message_passing_identify` and "algebraic" runs
    `algebraic.solve_pr` per target, both on the normalized structure built
    here; "auto" runs the tree call and keeps its certificates when training
    covers every clique. Returns the tree call's clique-coverage report (None
    on the algebraic route) and, per target, a PrTransformation or an
    Unidentifiable. An unknown route raises InvalidSpec.
    """
    if route not in ROUTES:
        raise InvalidSpec(f"unknown route {route!r}; expected one of {', '.join(ROUTES)}")
    norm = normalize_factors(ifm)
    report = None
    if route != "algebraic":
        report, results = message_passing_identify(norm, train, targets)
        if route == "tree" or report.passed:
            return report, results
    return report, [algebraic.solve_pr(norm, train, t) for t in targets]
