"""Drawing from a fitted model: exact iid draws by variable elimination
whenever its cliques can be tabulated, multi-chain Gibbs sampling elsewhere.

`sample` is the one entry point. The model is a product of factor tables, so
it eliminates the variables in `junction._eliminate`'s min-fill order on the
graph linking variables that share a factor (forward pass) and then draws
them in reverse order, each from its conditional given the variables already
drawn (backward pass): exact iid rows with no burn-in and no
autocorrelation. A grid of one clique is the special case of one table.
Each model builds its elimination plan once and keeps each message for the
regimes that agree on the interventions reaching its step. The backward
pass reads those factor tables and messages; it keeps no clique table.
Every kernel works bins first: a message builds its clique table with the
eliminated variable's axis leading, and each draw gathers the slices it
reads as (nbins, rows), so the logsumexp and the inverse CDF reduce along
the leading axis, where numpy reduces fastest.
When some elimination clique has more than `energy.CELL_CAP` cells it runs
`gibbs_sample`, which moves `CHAINS` chains in lockstep. Conditionals of
one variable given the rest involve only the factors that read it, so each
update gathers, for every chain at once, a slice of each such factor's
cached `energy.factor_table` (or, above the cap, its `energy.potentials`)
along that variable's axis, as (nbins, chains), normalizes over its bins,
and draws.
`log_partition` returns the forward pass's by-product, log Z.
"""

from __future__ import annotations

import itertools

import numpy as np

from .energy import EnergyModel, factor_table, potentials, tabulated
from .errors import GridTooLarge, InvalidSpec
from .junction import _eliminate
from .model import RegimeVector, SigmaGraph

# chains gibbs_sample runs in lockstep
CHAINS = 32


def exact_density(model: EnergyModel, regime: RegimeVector) -> np.ndarray:
    """Normalized probability table over the full grid.

    Returns an array with one axis per variable, summing to 1, obtained by
    broadcasting every cached factor table into the joint log table and
    taking a softmax over all cells. Raises GridTooLarge when the full grid
    is too large to tabulate (`energy.tabulated`).
    """
    model.ifm.space.check_regime(regime)
    nbins = model.grid.nbins
    if not tabulated(model, range(model.ifm.m)):
        raise GridTooLarge(f"{np.prod(nbins)} grid cells are too many to tabulate")

    logp = np.zeros(nbins)
    for k, f in enumerate(model.ifm.factors):
        table = factor_table(model, k, regime)
        shape = [nbins[j] if j in f.var_scope else 1 for j in range(model.ifm.m)]
        logp += table.reshape(shape)
    logp -= logp.max()
    p = np.exp(logp)
    p /= p.sum()
    return p


def _check_draws(n: int, burn: int, thin: int) -> None:
    if n < 1:
        raise InvalidSpec("need n >= 1 samples")
    if burn < 0 or thin < 1:
        raise InvalidSpec("need burn >= 0 and thin >= 1")


def _plan(model: EnergyModel) -> tuple:
    """The model's elimination plan, built on first use: (cliques, steps,
    rest, memo) for `junction._eliminate`'s min-fill order on the graph
    linking variables that share a factor.

    steps[i] = (v, others, inputs, reach): the variable eliminated, the rest
    of its clique (its later neighbours, as `_eliminate` records them), the
    pool entries that read v as (scope, source) in pool order, and the
    interventions that reach the step through them. Sources 0..K-1 are the
    factors and K + i is step i's message; `rest` lists the sources left in
    the pool at the end. memo maps (i, the regime projected onto reach) to
    (the input arrays, the message made from them).
    """
    if model.plan is None:
        factors = model.ifm.factors
        edges = {e for f in factors for e in itertools.combinations(f.var_scope, 2)}
        _, cliques, elimination = _eliminate(SigmaGraph(model.ifm.m, frozenset(edges)))
        pool = [(f.var_scope, k, set(f.intv_scope)) for k, f in enumerate(factors)]
        steps = []
        for v, others in elimination:
            mine = [entry for entry in pool if v in entry[0]]
            pool = [entry for entry in pool if v not in entry[0]]
            reach = set().union(*(r for _, _, r in mine))
            steps.append((v, others, [(scope, src) for scope, src, _ in mine], sorted(reach)))
            pool.append((others, len(factors) + len(steps) - 1, reach))
        model.plan = (cliques, steps, [src for _, src, _ in pool], {})
    return model.plan


def _message(nbins, v, others, inputs) -> np.ndarray:
    """logsumexp over v of the summed inputs: a read-only log table with one
    axis per variable in `others`.

    The clique table is built with v's axis first, (nbins[v], others...),
    with no transposed copy, and reduced over that leading axis in place:
    numpy reduces a leading axis about twice as fast as a short trailing one.
    """
    axes = (v, *others)
    table = np.zeros([nbins[j] for j in axes])
    for scope, t in inputs:
        # scopes are sorted, so moving v's axis first puts t's axes in clique order
        t = np.moveaxis(t, scope.index(v), 0)
        table += t.reshape([nbins[j] if j in scope else 1 for j in axes])
    work = table.reshape(nbins[v], -1)
    top = work.max(axis=0)
    work -= top
    msg = (top + np.log(np.exp(work, out=work).sum(axis=0))).reshape(table.shape[1:])
    msg.flags.writeable = False
    return msg


def _forward(model: EnergyModel, regime: RegimeVector):
    """Forward elimination over the cached factor tables along the model's
    plan.

    Returns (arrays, log Z), or None when some elimination clique has more
    than `energy.CELL_CAP` cells (checked on every call). arrays[src] is the
    plan's source src: each factor's table, then each step's message, the
    logsumexp over v of the factors and messages in the pool that read v.
    A message is recomputed unless its memo entry holds the very arrays
    that it would read; the scalars left in the pool sum to log Z.
    """
    model.ifm.space.check_regime(regime)
    cliques, steps, rest, memo = _plan(model)
    if not all(tabulated(model, c) for c in cliques):
        return None
    arrays = [factor_table(model, k, regime) for k in range(len(model.ifm.factors))]
    for i, (v, others, inputs, reach) in enumerate(steps):
        ins = [arrays[src] for _, src in inputs]
        key = (i, regime.project(reach))
        entry = memo.get(key)
        if entry is None or any(a is not b for a, b in zip(entry[0], ins)):
            msg = _message(model.grid.nbins, v, others,
                           [(scope, t) for (scope, _), t in zip(inputs, ins)])
            entry = memo[key] = (ins, msg)
        arrays.append(entry[1])
    return arrays, float(sum(arrays[src] for src in rest))


def log_partition(model: EnergyModel, regime: RegimeVector) -> float:
    """log Z of the model under a regime: the log of the sum over every grid
    cell of the exponentiated summed potentials, by forward elimination.

    Raises GridTooLarge when some elimination clique has more than
    `energy.CELL_CAP` cells.
    """
    forward = _forward(model, regime)
    if forward is None:
        raise GridTooLarge("an elimination clique has too many cells to tabulate")
    return forward[1]


def _slices(table: np.ndarray, index: list) -> np.ndarray:
    """The bin-axis slices table[:, i, j, ...] at the index arrays (rows,)
    for the other axes, as (bins, rows); (bins, 1) when there is no other
    axis."""
    return table[(slice(None), *index)].reshape(table.shape[0], -1)


def _inverse_cdf(logits: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One bin per column of logits (bins, rows) from uniforms u (rows,):
    the first bin whose cumulative mass exceeds u times the total. A single
    column (bins, 1) serves every u. Every reduction runs along the leading
    bin axis, in place: the logits are overwritten with the cumulative
    masses."""
    logits -= logits.max(axis=0)
    cum = np.cumsum(np.exp(logits, out=logits), axis=0, out=logits)
    # the count of cum <= u * total is searchsorted(side="right"), kept in range
    return np.minimum((cum <= u * cum[-1]).sum(axis=0), cum.shape[0] - 1)


def sample(model: EnergyModel, regime: RegimeVector, n: int,
           burn: int = 500, thin: int = 5, seed: int = 0) -> np.ndarray:
    """Draw (n, m) rows of bin centers from the model under a regime.

    When every elimination clique can be tabulated (`energy.tabulated`),
    the rows are n iid exact draws: the backward pass visits the variables
    in reverse elimination order, sums the slices of the factor tables and
    messages its step read at the variables already drawn (the additions
    of the step's clique table), gathered bins first as (nbins[v], n), and
    draws by inverse CDF (`_inverse_cdf`) from column v of one
    `rng.random((n, m))`; `burn` and `thin` are checked but unused.
    Otherwise the rows come from `gibbs_sample` with the same arguments.
    Either way the rows are a deterministic function of the seed.
    """
    _check_draws(n, burn, thin)
    forward = _forward(model, regime)
    if forward is None:
        return gibbs_sample(model, regime, n, burn=burn, thin=thin, seed=seed)
    arrays = forward[0]
    nbins = model.grid.nbins
    u = np.random.default_rng(seed).random((n, model.ifm.m))
    bins = np.empty((n, model.ifm.m), dtype=int)
    for v, others, inputs, _ in reversed(_plan(model)[1]):
        # (bins, n), or with no other variable in the clique one column for all n
        logp = np.zeros((nbins[v], n if others else 1))
        for scope, src in inputs:
            t = np.moveaxis(arrays[src], scope.index(v), 0)
            logp += _slices(t, [bins[:, j] for j in scope if j != v])
        bins[:, v] = _inverse_cdf(logp, u[:, v])
    return model.grid.center_rows(bins)


def gibbs_sample(model: EnergyModel, regime: RegimeVector, n: int,
                 burn: int = 500, thin: int = 5, seed: int = 0) -> np.ndarray:
    """Systematic-scan Gibbs sampler over min(n, CHAINS) lockstep chains;
    returns (n, m) rows of bin centers.

    One scan updates variables 0..m-1 in order from their full conditionals,
    in every chain at once, from one uniform per chain and update; the
    conditional logits are gathered bins first, as (nbins[r], chains). Each
    chain starts from every variable's middle bin and discards its first
    `burn` scans; after that every `thin`-th scan keeps the state of all
    chains. Rows come out scan by scan (chain 0..C-1 within a scan) and are
    cut at n, so the last kept scan may contribute only some chains. The
    draws are a deterministic function of the seed. Factors small enough
    to tabulate read their cached `energy.factor_table`; larger ones, such
    as five variables at 20 bins, go through `energy.potentials` on the
    swept bin rows of every chain.

    Args:
        model: fitted (or constructed) energy model.
        regime: intervention levels to sample under.
        n: number of rows to return.
        burn: scans each chain discards before collecting.
        thin: scans between kept scans (>= 1).
        seed: generator seed.
    """
    model.ifm.space.check_regime(regime)
    _check_draws(n, burn, thin)

    m = model.ifm.m
    nbins = model.grid.nbins
    rng = np.random.default_rng(seed)
    chains = min(n, CHAINS)

    # per variable r, each factor reading it: (factor, its table with r's axis
    # moved first or None above the cap, the variables indexing the other axes)
    plans = [
        [(k, np.moveaxis(factor_table(model, k, regime), f.var_scope.index(r), 0)
          if tabulated(model, f.var_scope) else None,
          [j for j in f.var_scope if j != r])
         for k, f in enumerate(model.ifm.factors) if r in f.var_scope]
        for r in range(m)
    ]

    state = np.tile([b // 2 for b in nbins], (chains, 1))
    kept_scans = -(-n // chains)
    out = np.empty((kept_scans, chains, m), dtype=int)
    for scan in range(1, burn + kept_scans * thin + 1):
        for r in range(m):
            logits = np.zeros((nbins[r], chains))
            for k, table, others in plans[r]:
                if table is not None:
                    logits += _slices(table, [state[:, j] for j in others])
                else:
                    swept = np.repeat(state, nbins[r], axis=0)
                    swept[:, r] = np.tile(np.arange(nbins[r]), chains)
                    logits += potentials(model, k, regime, swept).reshape(chains, nbins[r]).T
            state[:, r] = _inverse_cdf(logits, rng.random(chains))
        if scan > burn and (scan - burn) % thin == 0:
            out[(scan - burn) // thin - 1] = state
    return model.grid.center_rows(out.reshape(-1, m)[:n])
