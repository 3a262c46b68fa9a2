"""Structure objects: validation, factor normalization, sigma graph."""

import numpy as np
import pytest

from regimecast import (
    FactorSpec,
    IfmStructure,
    InterventionSpace,
    InvalidSpec,
    RegimeDataset,
    RegimeSet,
    RegimeVector,
    normalize_factors,
    sigma_graph,
    sigma_zero_set,
)
from regimecast import algebraic
from regimecast.model import SigmaGraph, distinct_rows
from regimecast.simbench import builtin_structure


def space(d=3, card=2):
    return InterventionSpace(tuple(f"s{j}" for j in range(d)), (card,) * d)


def test_space_rejects_bad_cardinality():
    with pytest.raises(InvalidSpec):
        InterventionSpace(("a",), (1,))
    with pytest.raises(InvalidSpec):
        InterventionSpace(("a", "a"), (2, 2))


def test_baseline_and_check_regime():
    sp = space(3)
    assert sp.baseline().levels == (0, 0, 0)
    sp.check_regime(RegimeVector((1, 0, 1)))
    with pytest.raises(InvalidSpec):
        sp.check_regime(RegimeVector((2, 0, 0)))
    with pytest.raises(InvalidSpec):
        sp.check_regime(RegimeVector((0, 0)))


def test_regime_vector_project():
    r = RegimeVector((3, 1, 4, 1))
    # projection reads the levels at the given indices, ascending
    assert r.project((2, 0)) == (3, 4)
    assert r.is_baseline() is False
    assert RegimeVector((0, 0)).is_baseline() is True


def test_regime_set_keeps_order_and_rejects_duplicates():
    rs = RegimeSet.of([(0, 0), (1, 0), (0, 1)])
    assert [r.levels for r in rs] == [(0, 0), (1, 0), (0, 1)]
    assert rs.index_of(RegimeVector((0, 1))) == 2
    assert RegimeVector((1, 1)) not in rs
    with pytest.raises(KeyError, match=r"regime \(1, 1\) not in set"):
        rs.index_of(RegimeVector((1, 1)))
    with pytest.raises(InvalidSpec):
        RegimeSet.of([(0, 0), (0, 0)])
    merged = rs.union(RegimeSet.of([(1, 1), (1, 0)]))
    assert [r.levels for r in merged] == [(0, 0), (1, 0), (0, 1), (1, 1)]


def test_regime_set_stores_vectors_for_raw_level_tuples():
    rs = RegimeSet(((0, 1), (1, 0)))
    assert rs[0] == RegimeVector((0, 1)) and isinstance(rs[0], RegimeVector)
    assert all(isinstance(r, RegimeVector) for r in rs)
    assert rs.regimes == RegimeSet.of([(0, 1), (1, 0)]).regimes

    # so a set built from raw tuples certifies like one built from vectors
    b = builtin_structure("chain3")
    norm = normalize_factors(b.ifm)
    raw = RegimeSet(tuple(r.levels for r in b.train))
    target = RegimeVector((1, 1, 1))
    assert algebraic.solve_pr(norm, raw, target) == algebraic.solve_pr(norm, b.train, target)


def test_factor_spec_requires_sorted_scopes():
    f = FactorSpec((0, 2), (0, 1))
    assert f.var_scope == (0, 2)
    assert f.intv_scope == (0, 1)
    with pytest.raises(InvalidSpec):
        FactorSpec((2, 0), (0, 1))
    with pytest.raises(InvalidSpec):
        FactorSpec((), (0,))


def test_structure_requires_full_coverage():
    sp = space(2)
    with pytest.raises(InvalidSpec):
        # variable 1 never read
        IfmStructure(2, sp, (FactorSpec((0,), (0, 1)),))
    with pytest.raises(InvalidSpec):
        # intervention 1 switches nothing
        IfmStructure(1, sp, (FactorSpec((0,), (0,)),))
    ifm = IfmStructure(2, sp, (FactorSpec((0, 1), (0,)), FactorSpec((1,), (1,))))
    assert ifm.var_names == ("x1", "x2")


def test_dataset_validation():
    sp = space(1)
    ifm = IfmStructure(2, sp, (FactorSpec((0, 1), (0,)),))
    x = np.zeros((3, 2))
    ds = RegimeDataset(RegimeVector((0,)), x)
    assert ds.n == 3 and ds.y is None
    with pytest.raises(InvalidSpec):
        RegimeDataset(RegimeVector((0,)), np.array([[np.nan, 0.0]]))
    with pytest.raises(InvalidSpec):
        RegimeDataset(RegimeVector((0,)), x, np.zeros(2))
    with pytest.raises((ValueError, RuntimeError)):
        ds.x[0, 0] = 5.0
    del ifm


def test_distinct_rows_matches_numpy_unique():
    rng = np.random.default_rng(3)
    cases = [rng.integers(0, 3, size=(60, 4)),
             rng.normal(size=5)[rng.integers(0, 5, size=(40, 1))],
             rng.normal(size=(30, 3)),
             np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, -1.0]]),
             np.zeros((4, 0))]
    for a in cases:
        want = np.unique(a, axis=0, return_inverse=True, return_counts=True)
        got = distinct_rows(a)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1].reshape(-1))
        assert np.array_equal(got[2], want[2])


def test_dataset_distinct_rows_are_found_once():
    x = np.array([[1.0, 2.0], [0.0, 5.0], [1.0, 2.0]])
    ds = RegimeDataset(RegimeVector((0,)), x)
    rows, inverse = ds.distinct
    assert ds.distinct[0] is rows
    assert np.array_equal(rows[inverse], x)


def test_with_y_shares_the_rows_and_checks_the_outcomes():
    x = np.array([[1.0, 2.0], [0.0, 5.0], [1.0, 2.0]])
    ds = RegimeDataset(RegimeVector((0,)), x)
    y = np.array([0.5, -1.0, 2.0])
    out = ds.with_y(y)
    assert out.regime == ds.regime and out.x is ds.x and out.distinct is ds.distinct
    assert np.array_equal(out.y, y) and out.y is not y and not out.y.flags.writeable
    assert ds.y is None
    assert out.with_y(y[::-1]).distinct is ds.distinct
    for bad, message in (([1.0, 2.0], "y length"), ([1.0, np.nan, 2.0], "non-finite"),
                         ([[1.0, np.inf, 0.0]], "non-finite")):
        with pytest.raises(InvalidSpec, match=message):
            ds.with_y(bad)
        with pytest.raises(InvalidSpec, match=message):
            RegimeDataset(ds.regime, x, bad)


def test_normalize_merges_equal_scopes():
    sp = space(2)
    ifm = IfmStructure(
        1, sp,
        (FactorSpec((0,), (0,)), FactorSpec((0,), (1,)), FactorSpec((0,), (0,))),
    )
    norm = normalize_factors(ifm)
    # the two factors reading x1 under s1 merge; s2 factor survives
    assert len(norm.factors) == 2
    assert {f.intv_scope for f in norm.factors} == {(0,), (1,)}


def test_normalize_absorbs_subset_scopes():
    sp = space(3)
    ifm = IfmStructure(
        2, sp,
        (
            FactorSpec((0, 1), (0, 1, 2)),
            FactorSpec((0,), (0,)),
            FactorSpec((1,), (1, 2)),
        ),
    )
    norm = normalize_factors(ifm)
    assert len(norm.factors) == 1
    assert norm.factors[0].var_scope == (0, 1)
    assert norm.factors[0].intv_scope == (0, 1, 2)


def test_sigma_graph_edges():
    sp = space(3)
    ifm = IfmStructure(
        1, sp,
        (FactorSpec((0,), (0, 1)), FactorSpec((0,), (1, 2))),
    )
    g = sigma_graph(ifm)
    assert g.d == 3
    assert g.edges == frozenset({(0, 1), (1, 2)})
    assert g.has_edge(1, 0) and not g.has_edge(0, 2)
    assert g.adjacency()[1] == {0, 2}


def test_sigma_zero_set_order_and_content():
    sp = space(3)
    rs = sigma_zero_set(sp, (2, 0))
    # baseline first, then lexicographic over the sorted subset levels
    assert [r.levels for r in rs] == [
        (0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1),
    ]


def _chain(**kwargs):
    """A two-variable, two-switch structure with `kwargs` overriding its fields."""
    fields = {"m": 2, "space": space(2),
              "factors": (FactorSpec((0,), (0,)), FactorSpec((0, 1), (1,))),
              "var_names": ("a", "b")}
    return IfmStructure(**{**fields, **kwargs})


@pytest.mark.parametrize("build, says", [
    (lambda: InterventionSpace((), ()), "need at least one intervention variable"),
    (lambda: InterventionSpace(("a", "b"), (2,)),
     "names and cardinalities must have equal length"),
    (lambda: RegimeVector((0, -1)), "negative level in regime (0, -1)"),
    (lambda: RegimeSet.of([(0, 0), (0, 0, 1)]), "all regimes in a set must have equal length"),
    (lambda: FactorSpec((0, 0), ()), "var_scope has repeated indices: (0, 0)"),
    (lambda: FactorSpec((0,), (-1,)), "intv_scope has negative index: (-1,)"),
    (lambda: _chain(m=0), "need at least one variable"),
    (lambda: _chain(factors=()), "need at least one factor"),
    (lambda: _chain(factors=(FactorSpec((0, 2), (0, 1)),)),
     "variable index out of range in (0, 2)"),
    (lambda: _chain(factors=(FactorSpec((0, 1), (0, 2)),)),
     "intervention index out of range in (0, 2)"),
    (lambda: _chain(var_names=("a",)), "var_names length must equal m"),
    (lambda: _chain(var_names=("a", "a")), "var_names must be unique"),
    (lambda: RegimeDataset(RegimeVector((0, 0)), np.zeros(3)),
     "x must be a non-empty 2-D array, got shape (3,)"),
    (lambda: SigmaGraph(2, frozenset({(1, 0)})), "bad edge (1, 0) for 2 vertices"),
    (lambda: sigma_zero_set(space(2), [2]), "intervention index 2 out of range"),
], ids=["space-without-names", "space-lengths-differ", "negative-level",
        "regimes-of-unequal-length", "repeated-factor-index", "negative-factor-index",
        "no-variables", "no-factors", "variable-index-out-of-range",
        "intervention-index-out-of-range", "var-names-too-short", "repeated-var-names",
        "one-dimensional-rows", "bad-sigma-edge", "zero-set-index-out-of-range"])
def test_each_structure_check_names_its_defect(build, says):
    with pytest.raises(InvalidSpec) as err:
        build()
    assert says in str(err.value)
