"""Core types for factored densities indexed by vectors of intervention levels.

A model instance is a collection of factors over m continuous variables.
Each factor reads a subset of the variables and is switched by a subset of
the intervention variables; level 0 of every intervention is the shared
baseline condition. A "regime" is one full assignment of intervention
levels, and experimental data arrives as one dataset per regime.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidSpec


@dataclass(frozen=True)
class InterventionSpace:
    """Finite product space of intervention levels, one slot per intervention.

    Level 0 is reserved as baseline in every slot; cardinalities count the
    levels including baseline, so every slot has cardinality >= 2.
    """

    names: tuple[str, ...]
    cardinalities: tuple[int, ...]

    def __post_init__(self):
        if len(self.names) == 0:
            raise InvalidSpec("need at least one intervention variable")
        if len(self.names) != len(self.cardinalities):
            raise InvalidSpec("names and cardinalities must have equal length")
        if len(set(self.names)) != len(self.names):
            raise InvalidSpec("intervention names must be unique")
        for name, card in zip(self.names, self.cardinalities):
            if int(card) != card or card < 2:
                raise InvalidSpec(f"intervention {name!r} needs an integer level count >= 2, got {card!r}")

    @property
    def d(self) -> int:
        return len(self.names)

    def baseline(self) -> "RegimeVector":
        return RegimeVector((0,) * self.d)

    def check_regime(self, regime: "RegimeVector") -> None:
        if len(regime.levels) != self.d:
            raise InvalidSpec(f"regime has {len(regime.levels)} entries, expected {self.d}")
        for i, lev in enumerate(regime.levels):
            if not 0 <= lev < self.cardinalities[i]:
                raise InvalidSpec(f"level {lev} out of range for intervention {self.names[i]!r}")

    def all_regimes(self) -> "RegimeSet":
        combos = itertools.product(*[range(c) for c in self.cardinalities])
        return RegimeSet(tuple(RegimeVector(c) for c in combos))


@dataclass(frozen=True, order=True)
class RegimeVector:
    """One assignment of levels to every intervention variable."""

    levels: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(int(v) for v in self.levels))
        if any(v < 0 for v in self.levels):
            raise InvalidSpec(f"negative level in regime {self.levels}")

    def __iter__(self):
        return iter(self.levels)

    def __len__(self):
        return len(self.levels)

    def __getitem__(self, i):
        return self.levels[i]

    def is_baseline(self) -> bool:
        return all(v == 0 for v in self.levels)

    def project(self, subset) -> tuple[int, ...]:
        """Levels at the given intervention indices, in ascending index order."""
        return tuple(self.levels[i] for i in sorted(subset))


@dataclass(frozen=True)
class RegimeSet:
    """Ordered collection of distinct regimes; order is meaningful downstream."""

    regimes: tuple[RegimeVector, ...]

    def __post_init__(self):
        regimes = tuple(r if isinstance(r, RegimeVector) else RegimeVector(tuple(r))
                        for r in self.regimes)
        object.__setattr__(self, "regimes", regimes)
        d = None
        index = {}
        for i, r in enumerate(regimes):
            if d is None:
                d = len(r.levels)
            elif len(r.levels) != d:
                raise InvalidSpec("all regimes in a set must have equal length")
            if r in index:
                raise InvalidSpec(f"duplicate regime {r.levels}")
            index[r] = i
        object.__setattr__(self, "_index", index)

    def __contains__(self, regime: RegimeVector) -> bool:
        return regime in self._index

    def __iter__(self):
        return iter(self.regimes)

    def __len__(self):
        return len(self.regimes)

    def __getitem__(self, i) -> RegimeVector:
        return self.regimes[i]

    def index_of(self, regime: RegimeVector) -> int:
        try:
            return self._index[regime]
        except KeyError:
            raise KeyError(f"regime {regime.levels} not in set") from None

    def union(self, other: "RegimeSet") -> "RegimeSet":
        extra = tuple(r for r in other if r not in self)
        return RegimeSet(self.regimes + extra)

    @staticmethod
    def of(level_tuples) -> "RegimeSet":
        return RegimeSet(tuple(RegimeVector(tuple(t)) for t in level_tuples))


@dataclass(frozen=True)
class FactorSpec:
    """One factor: which variables it reads and which interventions switch it."""

    var_scope: tuple[int, ...]
    intv_scope: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "var_scope", tuple(int(v) for v in self.var_scope))
        object.__setattr__(self, "intv_scope", tuple(int(v) for v in self.intv_scope))
        if len(self.var_scope) == 0:
            raise InvalidSpec("factor must read at least one variable")
        for name, scope in (("var_scope", self.var_scope), ("intv_scope", self.intv_scope)):
            if len(set(scope)) != len(scope):
                raise InvalidSpec(f"{name} has repeated indices: {scope}")
            if tuple(sorted(scope)) != scope:
                raise InvalidSpec(f"{name} must be sorted ascending: {scope}")
            if scope and scope[0] < 0:
                raise InvalidSpec(f"{name} has negative index: {scope}")


@dataclass(frozen=True)
class IfmStructure:
    """Factorization skeleton: m variables, the intervention space, the factors.

    Every variable must be read by some factor and every intervention must
    switch some factor, otherwise the instance is rejected outright.
    """

    m: int
    space: InterventionSpace
    factors: tuple[FactorSpec, ...]
    var_names: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.m < 1:
            raise InvalidSpec("need at least one variable")
        if len(self.factors) == 0:
            raise InvalidSpec("need at least one factor")
        seen_vars: set[int] = set()
        seen_intv: set[int] = set()
        for f in self.factors:
            if f.var_scope[-1] >= self.m:
                raise InvalidSpec(f"variable index out of range in {f.var_scope}")
            if f.intv_scope and f.intv_scope[-1] >= self.space.d:
                raise InvalidSpec(f"intervention index out of range in {f.intv_scope}")
            seen_vars.update(f.var_scope)
            seen_intv.update(f.intv_scope)
        if seen_vars != set(range(self.m)):
            missing = sorted(set(range(self.m)) - seen_vars)
            raise InvalidSpec(f"variables not read by any factor: {missing}")
        if seen_intv != set(range(self.space.d)):
            missing = sorted(set(range(self.space.d)) - seen_intv)
            raise InvalidSpec(f"interventions that switch no factor: {missing}")
        if self.var_names is None:
            object.__setattr__(self, "var_names", tuple(f"x{i + 1}" for i in range(self.m)))
        else:
            object.__setattr__(self, "var_names", tuple(self.var_names))
            if len(self.var_names) != self.m:
                raise InvalidSpec("var_names length must equal m")
            if len(set(self.var_names)) != self.m:
                raise InvalidSpec("var_names must be unique")


@dataclass
class RegimeDataset:
    """Rows observed under a single regime; x is (n, m), y optional (n,)."""

    regime: RegimeVector
    x: np.ndarray
    y: np.ndarray | None = None

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if x.ndim != 2 or x.shape[0] < 1:
            raise InvalidSpec(f"x must be a non-empty 2-D array, got shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise InvalidSpec("x contains non-finite entries")
        x = x.copy()
        x.flags.writeable = False
        self.x = x
        if self.y is not None:
            self.y = self._checked_y(self.y)

    def _checked_y(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float).reshape(-1)
        if y.shape[0] != self.x.shape[0]:
            raise InvalidSpec("y length must match the number of rows")
        if not np.all(np.isfinite(y)):
            raise InvalidSpec("y contains non-finite entries")
        y = y.copy()
        y.flags.writeable = False
        return y

    def with_y(self, y) -> "RegimeDataset":
        """The same regime and rows with outcomes y, checked as the constructor
        checks them; the read-only x and its `distinct` are shared, not copied."""
        out = copy.copy(self)
        out.y = self._checked_y(y)
        out.distinct = self.distinct
        return out

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @cached_property
    def distinct(self) -> tuple:
        """(distinct rows of x, each row's index among them), as distinct_rows
        gives them; computed on first use and kept, which is safe because x
        is read-only."""
        rows, inverse, _ = distinct_rows(self.x)
        return rows, inverse


def distinct_rows(a: np.ndarray) -> tuple:
    """(distinct rows of a non-empty 2-D array in lexicographic order, each
    row's index among them, how many rows each one stands for).

    The same as np.unique(a, axis=0, return_inverse=True, return_counts=True),
    but faster: np.unique sorts the rows as opaque records, this does one
    lexsort of the columns and one comparison of neighbouring rows.
    """
    order = np.lexsort(a.T[::-1]) if a.shape[1] else np.arange(a.shape[0])
    ordered = a[order]
    starts = np.ones(a.shape[0], dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=starts[1:])
    inverse = np.empty(a.shape[0], dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    first = np.flatnonzero(starts)
    return ordered[first], inverse, np.diff(first, append=a.shape[0])


@dataclass(frozen=True)
class SigmaGraph:
    """Undirected graph on intervention indices; edge = joint factor membership."""

    d: int
    edges: frozenset

    def __post_init__(self):
        for a, b in self.edges:
            if not (0 <= a < b < self.d):
                raise InvalidSpec(f"bad edge ({a}, {b}) for {self.d} vertices")

    def has_edge(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.edges

    def adjacency(self) -> list:
        adj = [set() for _ in range(self.d)]
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj


def normalize_factors(ifm: IfmStructure) -> IfmStructure:
    """Merge every factor whose intervention scope is contained in another's.

    Equal scopes collapse into the lowest-index factor first; then factors
    with a strict superset elsewhere are absorbed into the lowest-index such
    host until none remain. Variable scopes union under each merge, so the
    represented family of densities is unchanged. Factors switched by no
    intervention always end up inside the first switched factor.
    """
    merged: list[tuple[set, frozenset]] = []
    pos_by_scope: dict[frozenset, int] = {}
    for f in ifm.factors:
        key = frozenset(f.intv_scope)
        if key in pos_by_scope:
            merged[pos_by_scope[key]][0].update(f.var_scope)
        else:
            pos_by_scope[key] = len(merged)
            merged.append((set(f.var_scope), key))

    changed = True
    while changed:
        changed = False
        for j, (vars_j, intv_j) in enumerate(merged):
            hosts = [k for k, (_, intv_k) in enumerate(merged) if k != j and intv_j < intv_k]
            if hosts:
                merged[min(hosts)][0].update(vars_j)
                del merged[j]
                changed = True
                break

    factors = tuple(FactorSpec(tuple(sorted(v)), tuple(sorted(s))) for v, s in merged)
    return IfmStructure(ifm.m, ifm.space, factors, ifm.var_names)


def sigma_graph(ifm: IfmStructure) -> SigmaGraph:
    """Graph on intervention indices with an edge for every within-factor pair."""
    edges = set()
    for f in ifm.factors:
        for a, b in itertools.combinations(f.intv_scope, 2):
            edges.add((a, b))
    return SigmaGraph(ifm.space.d, frozenset(edges))


def sigma_zero_set(space: InterventionSpace, subset) -> RegimeSet:
    """All regimes that are baseline outside `subset`.

    Enumerates every level combination over the subset in lexicographic
    order (lowest intervention index most significant), so the result is
    deterministic and the all-baseline regime always comes first.
    """
    zs = sorted(set(int(z) for z in subset))
    for z in zs:
        if not 0 <= z < space.d:
            raise InvalidSpec(f"intervention index {z} out of range")
    out = []
    for combo in itertools.product(*[range(space.cardinalities[z]) for z in zs]):
        levels = [0] * space.d
        for z, lev in zip(zs, combo):
            levels[z] = lev
        out.append(RegimeVector(tuple(levels)))
    return RegimeSet(tuple(out))

