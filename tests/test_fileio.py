"""Graph files, dataset CSVs, manifests, fingerprints."""

import json

import numpy as np
import pytest

from regimecast import (
    InvalidSpec,
    RegimeDataset,
    RegimeVector,
    fingerprint,
    graph_to_dict,
    load_graph,
    load_manifest,
    parse_graph,
    parse_regime_text,
    read_dataset_csv,
    write_dataset_csv,
)

GRAPH = {
    "variables": ["x1", "x2"],
    "interventions": [
        {"name": "a", "cardinality": 2},
        {"name": "b", "cardinality": 3},
    ],
    "factors": [
        {"variables": ["x1", "x2"], "interventions": ["a"]},
        {"variables": ["x2"], "interventions": ["b"]},
    ],
}


def test_parse_graph_round_trip():
    ifm = parse_graph(GRAPH)
    assert ifm.m == 2
    assert ifm.space.cardinalities == (2, 3)
    assert ifm.factors[0].var_scope == (0, 1)
    assert ifm.factors[1].intv_scope == (1,)
    assert graph_to_dict(ifm) == GRAPH


def test_parse_graph_rejects_unknown_names():
    bad = json.loads(json.dumps(GRAPH))
    bad["factors"][0]["variables"] = ["x1", "nope"]
    with pytest.raises(InvalidSpec):
        parse_graph(bad)
    bad = json.loads(json.dumps(GRAPH))
    bad["factors"][0]["interventions"] = ["zz"]
    with pytest.raises(InvalidSpec):
        parse_graph(bad)


def test_parse_graph_rejects_baseline_relabel():
    bad = json.loads(json.dumps(GRAPH))
    bad["interventions"][0]["baseline"] = 1
    with pytest.raises(InvalidSpec):
        parse_graph(bad)
    ok = json.loads(json.dumps(GRAPH))
    ok["interventions"][0]["baseline"] = 0
    assert parse_graph(ok).space.d == 2


def test_parse_graph_rejects_unknown_keys():
    bad = json.loads(json.dumps(GRAPH))
    bad["interventions"][0]["color"] = "red"
    with pytest.raises(InvalidSpec):
        parse_graph(bad)
    for card in (2.5, "x", None):
        bad = json.loads(json.dumps(GRAPH))
        bad["interventions"][0]["cardinality"] = card
        with pytest.raises(InvalidSpec, match="cardinality"):
            parse_graph(bad)
    for key in ("variables", "factors"):
        with pytest.raises(InvalidSpec, match=key):
            parse_graph({**GRAPH, key: 5})
    bad = json.loads(json.dumps(GRAPH))
    bad["factors"][0]["variables"] = 5
    with pytest.raises(InvalidSpec):
        parse_graph(bad)


def test_fingerprint_is_stable_and_sensitive():
    a = fingerprint(parse_graph(GRAPH))
    b = fingerprint(parse_graph(json.loads(json.dumps(GRAPH))))
    assert a == b and len(a) == 64
    changed = json.loads(json.dumps(GRAPH))
    changed["interventions"][1]["cardinality"] = 4
    assert fingerprint(parse_graph(changed)) != a


def test_load_graph(tmp_path):
    p = tmp_path / "g.json"
    p.write_text(json.dumps(GRAPH))
    assert load_graph(p).m == 2
    p.write_text("{not json")
    with pytest.raises(InvalidSpec):
        load_graph(p)


def test_dataset_csv_round_trip(tmp_path):
    ifm = parse_graph(GRAPH)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((7, 2))
    y = rng.standard_normal(7)
    ds = RegimeDataset(RegimeVector((1, 2)), x, y)
    p = tmp_path / "d.csv"
    write_dataset_csv(p, ifm, ds)
    back = read_dataset_csv(p, ifm, RegimeVector((1, 2)))
    # repr-formatted floats survive the round trip bit for bit
    assert np.array_equal(back.x, ds.x)
    assert np.array_equal(back.y, ds.y)

    no_y = RegimeDataset(RegimeVector((0, 0)), x)
    write_dataset_csv(p, ifm, no_y)
    back = read_dataset_csv(p, ifm, RegimeVector((0, 0)))
    assert back.y is None


def test_dataset_csv_round_trip_with_a_variable_named_y(tmp_path):
    ifm = parse_graph({**GRAPH, "variables": ["x1", "y"],
                       "factors": [{"variables": ["x1", "y"], "interventions": ["a", "b"]}]})
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5, 2))
    p = tmp_path / "d.csv"
    for y in (None, rng.standard_normal(5)):
        write_dataset_csv(p, ifm, RegimeDataset(RegimeVector((0, 0)), x, y))
        back = read_dataset_csv(p, ifm, RegimeVector((0, 0)))
        assert np.array_equal(back.x, x)
        assert back.y is None if y is None else np.array_equal(back.y, y)


def test_csv_fields_read_as_python_floats(tmp_path):
    # the per-field float() parse is the reference for every field spelling
    fields = [" 1.5", "2 ", "1_0", "-0", "1e-400", "+1", "1.", ".5", "-2.5E3", "１",
              "0.1", "1e308", "-4.9e-324", "12345678901234567890"]
    ifm = parse_graph(GRAPH)
    p = tmp_path / "d.csv"
    p.write_text("x1,x2\n" + "".join(f"{a},{b}\n" for a, b in zip(fields, fields[::-1])))
    back = read_dataset_csv(p, ifm, RegimeVector((0, 0)))
    want = np.array([[float(a), float(b)] for a, b in zip(fields, fields[::-1])])
    assert np.array_equal(back.x, want)
    assert np.array_equal(np.signbit(back.x), np.signbit(want))


def test_read_dataset_csv_requires_named_header(tmp_path):
    ifm = parse_graph(GRAPH)
    p = tmp_path / "d.csv"
    p.write_text("x1,wrong\n0.0,0.0\n")
    with pytest.raises(InvalidSpec):
        read_dataset_csv(p, ifm, RegimeVector((0, 0)))


def test_manifest_order_and_errors(tmp_path):
    ifm = parse_graph(GRAPH)
    rng = np.random.default_rng(1)
    names = []
    for i, levels in enumerate([(1, 0), (0, 0), (0, 2)]):
        ds = RegimeDataset(RegimeVector(levels), rng.standard_normal((4, 2)))
        name = f"d{i}.csv"
        write_dataset_csv(tmp_path / name, ifm, ds)
        names.append((name, list(levels)))

    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(dict(names)))
    datasets = load_manifest(mpath, ifm)
    # manifest order is preserved, not sorted
    assert [ds.regime.levels for ds in datasets] == [(1, 0), (0, 0), (0, 2)]

    mpath.write_text(json.dumps({"d0.csv": [1, 0], "dup.csv": [1, 0]}))
    (tmp_path / "dup.csv").write_text((tmp_path / "d0.csv").read_text())
    with pytest.raises(InvalidSpec):
        load_manifest(mpath, ifm)

    mpath.write_text(json.dumps({"missing.csv": [0, 0]}))
    with pytest.raises(InvalidSpec):
        load_manifest(mpath, ifm)

    for levels in ([0.9, 0], 5, None):
        mpath.write_text(json.dumps({"d1.csv": levels}))
        with pytest.raises(InvalidSpec, match="d1.csv"):
            load_manifest(mpath, ifm)
    # level vectors may also be written as text, as in train files
    mpath.write_text(json.dumps({"d2.csv": "0,2"}))
    assert load_manifest(mpath, ifm)[0].regime.levels == (0, 2)


def test_parse_regime_text():
    ifm = parse_graph(GRAPH)
    assert parse_regime_text("1,2", ifm.space).levels == (1, 2)
    with pytest.raises(InvalidSpec):
        parse_regime_text("1,2,3", ifm.space)
    with pytest.raises(InvalidSpec):
        parse_regime_text("a,b", ifm.space)
