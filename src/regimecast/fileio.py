"""Reading and writing the on-disk formats: graph specs, datasets, manifests.

A graph spec is JSON naming the variables, the interventions (with level
counts), and the factors by name. Data arrives as one CSV per regime whose
header carries variable names plus an optional final "y" column, tied
together by a manifest JSON object mapping file path to level vector.

This module is the one input boundary: JSON files, integer fields and level
vectors are decoded here, so malformed input is a DomainError naming the
file or field.
"""

from __future__ import annotations

import csv
import hashlib
import json
import numbers
import os

import numpy as np

from .errors import InvalidSpec, ModelFormatError
from .model import (
    FactorSpec,
    IfmStructure,
    InterventionSpace,
    RegimeDataset,
    RegimeSet,
    RegimeVector,
)

_INTV_KEYS = {"name", "cardinality", "baseline"}
_FACTOR_KEYS = {"variables", "interventions"}


def _unique_keys(pairs) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def read_json(path, error=InvalidSpec):
    """Decode a JSON file; a syntax error or an object that repeats a key
    raises `error` naming the path."""
    with open(path) as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys)
        except ValueError as exc:  # JSONDecodeError, a repeated key, or bytes that are not text
            raise error(f"{path}: {exc}") from None


def read_int(value, what: str, error=InvalidSpec) -> int:
    """An integer field: ints and integral floats pass, anything else raises `error`."""
    if (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            or isinstance(value, float) and value.is_integer()):
        return int(value)
    raise error(f"{what} must be an integer, got {value!r}")


def read_list(value, what: str, error=InvalidSpec):
    """A JSON list field; anything else raises `error`."""
    if not isinstance(value, (list, tuple)):
        raise error(f"{what} must be a JSON list, got {value!r}")
    return value


def check_format(obj, fmt: str, version: int) -> None:
    """Raise ModelFormatError unless obj is a `fmt` file at `version`."""
    if not isinstance(obj, dict) or obj.get("format") != fmt:
        raise ModelFormatError(f"not a {fmt} file")
    if obj.get("format_version") != version:
        raise ModelFormatError(f"unsupported format_version {obj.get('format_version')!r}")


def parse_levels(value, space: InterventionSpace, what: str) -> RegimeVector:
    """A level vector from "1,0,1" text or a JSON integer list, checked
    against the space; InvalidSpec names `what` on any defect."""
    try:
        if isinstance(value, str):
            try:
                levels = [int(part) for part in value.split(",")]
            except ValueError:
                raise InvalidSpec(f"cannot parse {value!r}") from None
        else:
            levels = [read_int(v, "level") for v in read_list(value, "level vector")]
        regime = RegimeVector(tuple(levels))
        space.check_regime(regime)
    except InvalidSpec as exc:
        raise InvalidSpec(f"{what}: {exc}") from None
    return regime


def regime_text(regime: RegimeVector) -> str:
    """The "1,0,1" form of a regime, as certificates and reports key it."""
    return ",".join(str(v) for v in regime.levels)


def parse_graph(obj) -> IfmStructure:
    """Build a structure from a decoded graph-spec object."""
    if not isinstance(obj, dict):
        raise InvalidSpec("graph spec must be a JSON object")
    for key in ("variables", "interventions", "factors"):
        if key not in obj:
            raise InvalidSpec(f"graph spec missing {key!r}")

    var_names = tuple(str(v) for v in read_list(obj["variables"], "graph variables"))
    if len(set(var_names)) != len(var_names):
        raise InvalidSpec("variable names must be unique")
    var_index = {name: i for i, name in enumerate(var_names)}

    names, cards = [], []
    for entry in read_list(obj["interventions"], "graph interventions"):
        if not isinstance(entry, dict) or "name" not in entry or "cardinality" not in entry:
            raise InvalidSpec("each intervention needs 'name' and 'cardinality'")
        unknown = set(entry) - _INTV_KEYS
        if unknown:
            raise InvalidSpec(f"unknown intervention keys {sorted(unknown)}")
        # level 0 is baseline by construction; specs may state it but not move it
        if entry.get("baseline", 0) != 0:
            raise InvalidSpec(f"intervention {entry['name']!r} relabels the baseline level")
        names.append(str(entry["name"]))
        cards.append(read_int(entry["cardinality"], f"intervention {entry['name']!r} cardinality"))
    space = InterventionSpace(tuple(names), tuple(cards))
    intv_index = {name: i for i, name in enumerate(space.names)}

    factors = []
    for entry in read_list(obj["factors"], "graph factors"):
        if not isinstance(entry, dict):
            raise InvalidSpec("each factor must be a JSON object")
        unknown = set(entry) - _FACTOR_KEYS
        if unknown:
            raise InvalidSpec(f"unknown factor keys {sorted(unknown)}")
        scope = {key: read_list(entry.get(key, []), f"factor {key}") for key in _FACTOR_KEYS}
        try:
            vs = tuple(sorted(var_index[str(v)] for v in scope["variables"]))
            fs = tuple(sorted(intv_index[str(s)] for s in scope["interventions"]))
        except KeyError as exc:
            raise InvalidSpec(f"factor references unknown name {exc.args[0]!r}") from None
        factors.append(FactorSpec(vs, fs))

    return IfmStructure(len(var_names), space, tuple(factors), var_names)


def load_graph(path) -> IfmStructure:
    return parse_graph(read_json(path))


def graph_to_dict(ifm: IfmStructure) -> dict:
    return {
        "variables": list(ifm.var_names),
        "interventions": [
            {"name": n, "cardinality": c}
            for n, c in zip(ifm.space.names, ifm.space.cardinalities)
        ],
        "factors": [
            {
                "variables": [ifm.var_names[i] for i in f.var_scope],
                "interventions": [ifm.space.names[j] for j in f.intv_scope],
            }
            for f in ifm.factors
        ],
    }


def fingerprint(ifm: IfmStructure) -> str:
    """Stable hash of the structure, for checking model/data compatibility."""
    blob = json.dumps(graph_to_dict(ifm), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def read_dataset_csv(path, ifm: IfmStructure, regime: RegimeVector) -> RegimeDataset:
    """Read one regime's rows; columns are matched to variables by header name."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InvalidSpec(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        rows = [row for row in reader if row]

    # a final "y" is the outcome only beside a full set of variable columns,
    # so a variable may itself be named "y"
    has_y = len(header) == len(ifm.var_names) + 1 and header[-1] == "y"
    var_cols = header[:-1] if has_y else header
    if sorted(var_cols) != sorted(ifm.var_names):
        raise InvalidSpec(f"{path}: header {var_cols} does not match variables {list(ifm.var_names)}")
    order = [var_cols.index(name) for name in ifm.var_names]

    try:
        data = np.array([[float(v) for v in row] for row in rows], dtype=float)
    except ValueError as exc:
        raise InvalidSpec(f"{path}: {exc}") from None
    if data.size == 0:
        raise InvalidSpec(f"{path}: no data rows")
    if data.shape[1] != len(header):
        raise InvalidSpec(f"{path}: ragged rows")

    x = data[:, order]
    y = data[:, -1] if has_y else None
    return RegimeDataset(regime, x, y)


def write_dataset_csv(path, ifm: IfmStructure, dataset: RegimeDataset) -> None:
    header = list(ifm.var_names) + (["y"] if dataset.y is not None else [])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(dataset.n):
            row = [repr(float(v)) for v in dataset.x[i]]
            if dataset.y is not None:
                row.append(repr(float(dataset.y[i])))
            writer.writerow(row)


def load_manifest(path, ifm: IfmStructure) -> list:
    """Load every dataset named by a manifest, in the manifest's own order."""
    obj = read_json(path)
    if not isinstance(obj, dict) or not obj:
        raise InvalidSpec(f"manifest {path} must be a non-empty JSON object of file -> levels")

    base = os.path.dirname(os.path.abspath(path))
    datasets = []
    seen = set()
    for rel, levels in obj.items():
        regime = parse_levels(levels, ifm.space, f"manifest {path} entry {rel!r}")
        if regime in seen:
            raise InvalidSpec(f"manifest repeats regime {regime.levels}")
        seen.add(regime)
        fpath = rel if os.path.isabs(rel) else os.path.join(base, rel)
        if not os.path.exists(fpath):
            raise InvalidSpec(f"manifest names missing file {rel!r}")
        datasets.append(read_dataset_csv(fpath, ifm, regime))
    return datasets


def load_train(path, space: InterventionSpace) -> RegimeSet:
    """Training regimes from JSON: a list of level vectors, an object with
    a "regimes" list, or a data manifest (its level values are used)."""
    obj = read_json(path)
    entries = obj.get("regimes", list(obj.values())) if isinstance(obj, dict) else obj
    what = f"train file {path}"
    return RegimeSet.of([parse_levels(e, space, what).levels for e in read_list(entries, what)])


def parse_regime_text(text, space: InterventionSpace) -> RegimeVector:
    """Parse a comma-separated level vector like "1,0,1"."""
    return parse_levels(str(text), space, "regime")
