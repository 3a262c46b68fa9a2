"""Drawing from a fitted model: exact enumeration for small grids, Gibbs
sampling everywhere else.

Conditionals of one variable given the rest involve only the factors that
read it, so each Gibbs update sums a slice of each one's cached
`energy.factor_table` (or, above the cap, its `energy.potentials`) along
that variable's axis, normalizes over its bins, and draws.
"""

from __future__ import annotations

import numpy as np

from .energy import EnergyModel, factor_table, potentials, tabulated
from .errors import GridTooLarge, InvalidSpec
from .model import RegimeVector


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


def gibbs_sample(model: EnergyModel, regime: RegimeVector, n: int,
                 burn: int = 500, thin: int = 5, seed: int = 0) -> np.ndarray:
    """Systematic-scan Gibbs sampler; returns (n, m) rows of bin centers.

    One scan updates variables 0..m-1 in order from their full conditionals.
    The first `burn` scans are discarded, then every `thin`-th scan is kept.
    The chain starts from every variable's middle bin and is a deterministic
    function of the seed. Factors small enough to tabulate read their
    cached `energy.factor_table`; larger ones, such as five variables at 20
    bins, go through `energy.potentials` on the swept bin rows of each update.

    Args:
        model: fitted (or constructed) energy model.
        regime: intervention levels to sample under.
        n: number of rows to return.
        burn: scans discarded before collecting.
        thin: scans between kept rows (>= 1).
        seed: generator seed.
    """
    model.ifm.space.check_regime(regime)
    if n < 1:
        raise InvalidSpec("need n >= 1 samples")
    if burn < 0 or thin < 1:
        raise InvalidSpec("need burn >= 0 and thin >= 1")

    m = model.ifm.m
    nbins = model.grid.nbins
    centers = model.grid.centers
    rng = np.random.default_rng(seed)

    # per variable: the factors reading it, with their table (None above the cap)
    plans = [
        [(k, f.var_scope, f.var_scope.index(r),
          factor_table(model, k, regime) if tabulated(model, f.var_scope) else None)
         for k, f in enumerate(model.ifm.factors) if r in f.var_scope]
        for r in range(m)
    ]

    state = np.array([b // 2 for b in nbins], dtype=int)
    out = np.empty((n, m))
    kept = 0
    scan = 0
    while kept < n:
        scan += 1
        for r in range(m):
            logits = np.zeros(nbins[r])
            for k, scope, pos, table in plans[r]:
                if table is not None:
                    idx = tuple(
                        slice(None) if j == pos else state[scope[j]]
                        for j in range(len(scope))
                    )
                    logits += table[idx]
                else:
                    swept = np.tile(state, (nbins[r], 1))
                    swept[:, r] = np.arange(nbins[r])
                    logits += potentials(model, k, regime, swept)
            logits -= logits.max()
            probs = np.exp(logits)
            cum = np.cumsum(probs)
            # rounding can push u onto cum[-1]; keep the index in range
            u = rng.random() * cum[-1]
            state[r] = min(int(np.searchsorted(cum, u, side="right")), nbins[r] - 1)
        if scan > burn and (scan - burn) % thin == 0:
            out[kept] = [centers[j][state[j]] for j in range(m)]
            kept += 1
    return out
