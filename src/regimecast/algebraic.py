"""Certificates that write an unseen regime's density as a powered product
of training-regime densities, and the linear system deciding feasibility.

For exponents q over the training regimes, the product of p(x; regime_i)^q_i
collapses factor by factor: each factor contributes its own value pattern
raised to the sum of exponents of the regimes sharing that pattern. The
product equals the target density exactly when, for every factor and every
pattern, that sum matches the indicator of the target's pattern. Those are
the rows of the system built here; consistency is decided numerically with
a fixed residual tolerance and rank-deficient systems get the minimum-norm
solution so results are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidSpec
from .model import IfmStructure, RegimeSet, RegimeVector

RESIDUAL_TOL = 1e-9

ROUTE_TREE = "junction-tree"
ROUTE_ALGEBRAIC = "algebraic"


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """Constraint matrix over training-regime exponents: rows are the (factor,
    pattern) pairs in `symbols`, per factor the patterns seen in training or
    required by the target, sorted so row order is reproducible; the right
    side is the target's pattern indicator."""

    a: np.ndarray
    b: np.ndarray
    symbols: tuple


@dataclass(frozen=True)
class PrTransformation:
    """A verified recipe: target density = prod_i p(x; train_i)^exponents_i."""

    target: RegimeVector
    train: RegimeSet
    exponents: tuple
    route: str
    solution_dim: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(float(q) for q in self.exponents))
        if len(self.exponents) != len(self.train):
            raise InvalidSpec("need one exponent per training regime")
        if not all(np.isfinite(self.exponents)):
            raise InvalidSpec("exponents must be finite")
        if self.route not in (ROUTE_TREE, ROUTE_ALGEBRAIC):
            raise InvalidSpec(f"unknown route {self.route!r}")


@dataclass(frozen=True)
class Unidentifiable:
    """Returned when a route finds no certificate; `reason` says why."""

    target: RegimeVector
    train: RegimeSet
    route: str
    reason: str


@lru_cache(maxsize=64)
def _training_rows(ifm: IfmStructure, train: RegimeSet) -> tuple:
    """The sorted (factor, pattern) rows training shows, and a read-only matrix
    of each training regime's 1s: the part of the system every target shares."""
    for r in train:
        ifm.space.check_regime(r)
    patterns = [[r.project(f.intv_scope) for r in train] for f in ifm.factors]
    symbols = sorted({(k, v) for k, values in enumerate(patterns) for v in values})
    row = {s: i for i, s in enumerate(symbols)}
    a = np.zeros((len(symbols), len(train)))
    for k, values in enumerate(patterns):
        a[[row[k, v] for v in values], range(len(values))] = 1.0
    a.flags.writeable = False
    return a, tuple(symbols)


def build_system(ifm: IfmStructure, train: RegimeSet, target: RegimeVector) -> LinearSystem:
    """Assemble the exponent constraints for the given training set and target.

    A pattern only the target shows adds a zero row to the training rows.
    Works for any structure; running it after normalize_factors gives the
    tightest system (nested factor scopes add only redundant rows).
    """
    ifm.space.check_regime(target)
    seen_a, seen = _training_rows(ifm, train)
    aims = [(k, target.project(f.intv_scope)) for k, f in enumerate(ifm.factors)]
    symbols = tuple(sorted({*seen, *aims}))
    row = {s: i for i, s in enumerate(symbols)}
    a = np.zeros((len(symbols), len(train)))
    a[[row[s] for s in seen]] = seen_a
    b = np.zeros(len(symbols))
    b[[row[s] for s in aims]] = 1.0
    a.flags.writeable = False
    b.flags.writeable = False
    return LinearSystem(a, b, symbols)


def solve_pr(ifm: IfmStructure, train: RegimeSet, target: RegimeVector):
    """Solve the exponent system; returns a certificate or Unidentifiable.

    Consistency is judged by the max-abs residual of the least-squares
    solution against RESIDUAL_TOL; under rank deficiency the minimum-norm
    solution is returned, so equal inputs always give equal outputs.
    """
    if len(train) == 0:
        return Unidentifiable(target, train, ROUTE_ALGEBRAIC, "no training regimes")
    system = build_system(ifm, train, target)
    q, _, rank, _ = np.linalg.lstsq(system.a, system.b, rcond=None)
    resid = np.abs(system.a @ q - system.b)
    if resid.max() > RESIDUAL_TOL:
        row = int(np.argmax(resid > RESIDUAL_TOL))
        factor, value = system.symbols[row]
        scope = ifm.factors[factor].intv_scope
        return Unidentifiable(
            target,
            train,
            ROUTE_ALGEBRAIC,
            f"no exponents reproduce pattern {value} of factor {factor} "
            f"(interventions {scope}); residual {resid[row]:.3g}",
        )
    return PrTransformation(
        target,
        train,
        tuple(float(v) for v in q),
        ROUTE_ALGEBRAIC,
        solution_dim=int(len(train) - rank),
    )


def verify_pr(ifm: IfmStructure, cert: PrTransformation) -> bool:
    """Check a certificate against the constraint system it claims to solve."""
    system = build_system(ifm, cert.train, cert.target)
    q = np.asarray(cert.exponents)
    return bool(np.max(np.abs(system.a @ q - system.b)) <= RESIDUAL_TOL)


def greedy_reduce(ifm: IfmStructure, train: RegimeSet, target: RegimeVector) -> RegimeSet:
    """Drop training regimes one at a time while the target stays identifiable.

    Scans in train order and keeps any regime whose removal breaks the
    system, so the result is a deterministic (not necessarily minimum-size)
    sufficient subset.
    """
    kept = list(train)
    i = 0
    while i < len(kept):
        trial = kept[:i] + kept[i + 1 :]
        if trial and isinstance(
            solve_pr(ifm, RegimeSet(tuple(trial)), target), PrTransformation
        ):
            kept = trial
        else:
            i += 1
    return RegimeSet(tuple(kept))
