"""Drawing from a fitted model: exact iid draws by variable elimination
whenever its cliques can be tabulated, multi-chain Gibbs sampling elsewhere.

`sample` is the one entry point. The model is a product of factor tables, so
it eliminates the variables in `junction._eliminate`'s min-fill order on the
graph linking variables that share a factor (forward pass) and then draws
them in reverse order, each from its conditional given the variables already
drawn (backward pass): exact iid rows with no burn-in and no
autocorrelation. A grid of one clique is the special case of one table.
When some elimination clique has more than `energy.CELL_CAP` cells it runs
`gibbs_sample`, which moves `CHAINS` chains in lockstep. Conditionals of
one variable given the rest involve only the factors that read it, so each
update gathers, for every chain at once, a slice of each such factor's
cached `energy.factor_table` (or, above the cap, its `energy.potentials`)
along that variable's axis, normalizes over its bins, and draws.
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


def _forward(model: EnergyModel, regime: RegimeVector):
    """Forward elimination over the cached factor tables.

    Returns (steps, log Z), or None when some elimination clique has more
    than `energy.CELL_CAP` cells. steps[i] = (v, others, table) in
    elimination order: the log table over v's clique, with one axis per
    variable in `others` and v's axis last, summing every factor and message
    in the pool that reads v. Its max-shifted logsumexp over v replaces them
    in the pool; the scalars left at the end sum to log Z.
    """
    model.ifm.space.check_regime(regime)
    m, nbins = model.ifm.m, model.grid.nbins
    scopes = [f.var_scope for f in model.ifm.factors]
    edges = {e for scope in scopes for e in itertools.combinations(scope, 2)}
    _, cliques, order = _eliminate(SigmaGraph(m, frozenset(edges)))
    if not all(tabulated(model, c) for c in cliques):
        return None

    pool = [(scope, factor_table(model, k, regime)) for k, scope in enumerate(scopes)]
    steps = []
    for v in order:
        mine = [(scope, t) for scope, t in pool if v in scope]
        pool = [(scope, t) for scope, t in pool if v not in scope]
        others = sorted({j for scope, _ in mine for j in scope} - {v})
        axes = others + [v]
        table = np.zeros([nbins[j] for j in axes])
        for scope, t in mine:
            # scopes are sorted, so moving v's axis last puts t's axes in clique order
            t = np.moveaxis(t, scope.index(v), -1)
            table += t.reshape([nbins[j] if j in scope else 1 for j in axes])
        # logsumexp over v on a copy with v's axis first: numpy reduces a
        # leading axis about twice as fast as a short trailing one
        work = table.reshape(-1, nbins[v]).T.copy()
        top = work.max(axis=0)
        work -= top
        msg = top + np.log(np.exp(work, out=work).sum(axis=0))
        pool.append((tuple(others), msg.reshape(table.shape[:-1])))
        steps.append((v, others, table))
    return steps, float(sum(t for _, t in pool))


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


def sample(model: EnergyModel, regime: RegimeVector, n: int,
           burn: int = 500, thin: int = 5, seed: int = 0) -> np.ndarray:
    """Draw (n, m) rows of bin centers from the model under a regime.

    When every elimination clique can be tabulated (`energy.tabulated`),
    the rows are n iid exact draws: the backward pass visits the variables
    in reverse elimination order, gathers each row's slice of the
    variable's clique table at the variables already drawn, normalizes it,
    and draws by inverse CDF from column v of one `rng.random((n, m))`;
    `burn` and `thin` are checked but unused. Otherwise the rows come from
    `gibbs_sample` with the same arguments. Either way the rows are a
    deterministic function of the seed.
    """
    _check_draws(n, burn, thin)
    forward = _forward(model, regime)
    if forward is None:
        return gibbs_sample(model, regime, n, burn=burn, thin=thin, seed=seed)
    u = np.random.default_rng(seed).random((n, model.ifm.m))
    bins = np.empty((n, model.ifm.m), dtype=int)
    for v, others, table in reversed(forward[0]):
        # (n, bins) rows, or with no other variable in the clique one row for all n
        logp = np.atleast_2d(table[tuple(bins[:, j] for j in others)])
        p = np.exp(logp - logp.max(axis=1, keepdims=True))
        cum = np.cumsum(p / p.sum(axis=1, keepdims=True), axis=1)
        # the count of cum <= u is searchsorted(side="right"), kept in range
        bins[:, v] = np.minimum((cum <= (u[:, v] * cum[:, -1])[:, None]).sum(axis=1),
                                table.shape[-1] - 1)
    return model.grid.center_rows(bins)


def gibbs_sample(model: EnergyModel, regime: RegimeVector, n: int,
                 burn: int = 500, thin: int = 5, seed: int = 0) -> np.ndarray:
    """Systematic-scan Gibbs sampler over min(n, CHAINS) lockstep chains;
    returns (n, m) rows of bin centers.

    One scan updates variables 0..m-1 in order from their full conditionals,
    in every chain at once, from one uniform per chain and update. Each
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
    # moved last or None above the cap, the variables indexing the other axes)
    plans = [
        [(k, np.moveaxis(factor_table(model, k, regime), f.var_scope.index(r), -1)
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
            logits = np.zeros((chains, nbins[r]))
            for k, table, others in plans[r]:
                if table is not None:
                    logits += table[tuple(state[:, j] for j in others)]
                else:
                    swept = np.repeat(state, nbins[r], axis=0)
                    swept[:, r] = np.tile(np.arange(nbins[r]), chains)
                    logits += potentials(model, k, regime, swept).reshape(chains, nbins[r])
            logits -= logits.max(axis=1, keepdims=True)
            cum = np.cumsum(np.exp(logits), axis=1)
            u = rng.random(chains) * cum[:, -1]
            # the count of cum <= u is searchsorted(side="right"), kept in range
            state[:, r] = np.minimum((cum <= u[:, None]).sum(axis=1), nbins[r] - 1)
        if scan > burn and (scan - burn) % thin == 0:
            out[(scan - burn) // thin - 1] = state
    return model.grid.center_rows(out.reshape(-1, m)[:n])
