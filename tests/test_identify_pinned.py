"""`identify` stdout pinned over every built-in structure, training set and flag set.

The matrix: each built-in structure's first five test regimes plus its last
training regime, each against the full, short (last regime dropped) and empty
training set, each under five flag sets. One sha256 covers every exit code and
stdout, so any change to a certificate, a reason or a route shows.
"""

import contextlib
import hashlib
import io
import json

from regimecast.cli import main
from regimecast.fileio import graph_to_dict, regime_text
from regimecast.simbench import builtin_structure

STRUCTURES = ("chain3", "triangle", "sachs", "dream")
FLAG_SETS = ([], ["--route", "tree"], ["--route", "algebraic"], ["--reduce"],
             ["--route", "algebraic", "--reduce"])
IDENTIFY_SHA256 = "5e3c6404e6c228a3267af7ad287572047f7815c834b5a1334ebb58cad7caac41"


def test_identify_stdout_is_pinned(tmp_path):
    digest = hashlib.sha256()
    runs = 0
    for name in STRUCTURES:
        bundle = builtin_structure(name)
        graph = tmp_path / f"{name}.json"
        graph.write_text(json.dumps(graph_to_dict(bundle.ifm)))
        regimes = bundle.train.regimes
        targets = [*bundle.test.regimes[:5], regimes[-1]]
        for label, train in (("full", regimes), ("short", regimes[:-1]), ("empty", ())):
            path = tmp_path / f"{name}-{label}.json"
            path.write_text(json.dumps([list(r.levels) for r in train]))
            for target in targets:
                for flags in FLAG_SETS:
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out), \
                            contextlib.redirect_stderr(io.StringIO()):
                        rc = main(["identify", "--graph", str(graph), "--train", str(path),
                                   "--target", regime_text(target), *flags])
                    digest.update(f"{rc}\n{out.getvalue()}".encode())
                    runs += 1
    assert runs == 255
    assert digest.hexdigest() == IDENTIFY_SHA256
