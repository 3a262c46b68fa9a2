"""Shared test fixtures: brute-force density oracles and reporting helpers.

The table oracle sidesteps every piece of machinery under test: densities
come from explicit positive factor tables enumerated over the full grid,
so certificate and sampler outputs can be checked against exact numbers.
"""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import regimecast
from regimecast import (
    FactorSpec,
    IfmStructure,
    InterventionSpace,
    RegimeVector,
    exact_density,
)

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def acceptance_log():
    return ACCEPTANCE_LINES.append


def tv(p, q) -> float:
    """Total variation distance between two discrete distributions."""
    return 0.5 * float(np.abs(np.asarray(p, dtype=float).ravel()
                              - np.asarray(q, dtype=float).ravel()).sum())


class TableModel:
    """Explicit positive factor tables over a small discrete grid."""

    def __init__(self, ifm: IfmStructure, nbins, tables):
        self.ifm = ifm
        self.nbins = tuple(nbins)
        self.tables = tables

    def density(self, regime: RegimeVector) -> np.ndarray:
        """Exact normalized density over the full grid, by enumeration."""
        joint = np.ones(self.nbins)
        for k, f in enumerate(self.ifm.factors):
            pattern = regime.project(f.intv_scope)
            table = self.tables[(k, pattern)]
            shape = [1] * self.ifm.m
            for j, v in enumerate(f.var_scope):
                shape[v] = self.nbins[v]
            joint = joint * table.reshape(shape)
        return joint / joint.sum()


def random_table_instance(rng, max_m=4, max_bins=3, max_d=3) -> TableModel:
    """Random small structure plus positive tables; every variable is read
    and every intervention switches at least one factor."""
    m = int(rng.integers(1, max_m + 1))
    d = int(rng.integers(1, max_d + 1))
    nbins = tuple(int(rng.integers(2, max_bins + 1)) for _ in range(m))

    n_factors = int(rng.integers(1, 4))
    var_scopes, intv_scopes = [], []
    for _ in range(n_factors):
        nv = int(rng.integers(1, m + 1))
        var_scopes.append(sorted(rng.choice(m, size=nv, replace=False).tolist()))
        ni = int(rng.integers(0, d + 1))
        intv_scopes.append(sorted(rng.choice(d, size=ni, replace=False).tolist()))
    for v in range(m):
        if not any(v in s for s in var_scopes):
            var_scopes.append([v])
            intv_scopes.append([])
    for j in range(d):
        if not any(j in s for s in intv_scopes):
            k = int(rng.integers(0, len(intv_scopes)))
            intv_scopes[k] = sorted(set(intv_scopes[k]) | {j})

    space = InterventionSpace(tuple(f"s{j}" for j in range(d)), (2,) * d)
    factors = tuple(FactorSpec(tuple(v), tuple(s)) for v, s in zip(var_scopes, intv_scopes))
    ifm = IfmStructure(m, space, factors)

    tables = {}
    for k, f in enumerate(ifm.factors):
        shape = tuple(nbins[v] for v in f.var_scope)
        cards = [space.cardinalities[j] for j in f.intv_scope]
        for pattern in itertools.product(*[range(c) for c in cards]):
            tables[(k, pattern)] = rng.uniform(0.2, 2.0, size=shape)
    return TableModel(ifm, nbins, tables)


def reconstruct_density(tm: TableModel, cert) -> np.ndarray:
    """Apply a certificate to the oracle's training densities and renormalize."""
    log_prod = np.zeros(tm.nbins)
    for regime, q in zip(cert.train, cert.exponents):
        log_prod = log_prod + q * np.log(tm.density(regime))
    prod = np.exp(log_prod - log_prod.max())
    return prod / prod.sum()


def exact_iid_draws(model, regime, n, rng) -> np.ndarray:
    """Exact i.i.d. rows from a small fitted model via full enumeration;
    avoids any sampler approximation in tests that need clean draws."""
    p = exact_density(model, regime).ravel()
    centers = np.array(list(itertools.product(*[c for c in model.grid.centers])))
    idx = rng.choice(len(p), size=n, p=p)
    return centers[idx]


def run_python(script, *args):
    """Run `script` in a fresh interpreter that imports the package under
    test; returns its last stdout line decoded as JSON."""
    src = str(Path(regimecast.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.stdout.strip(), proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])
