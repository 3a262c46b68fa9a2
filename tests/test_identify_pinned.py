"""Certificates pinned: `identify` stdout over every built-in structure,
training set and flag set, and `certify` over every regime of every built-in.

The `identify` matrix: each built-in structure's first five test regimes plus
its last training regime, each against the full, short (last regime dropped)
and empty training set, each under five flag sets. One sha256 covers every
exit code and stdout, so any change to a certificate, a reason or a route
shows. A second sha256 covers the route, exponents and reason of every result
of `certify` on each built-in's own training set, over all its regimes, on the
"auto" and "tree" routes.
"""

import contextlib
import hashlib
import io
import json

from regimecast import certify
from regimecast.cli import main
from regimecast.fileio import graph_to_dict, regime_text
from regimecast.simbench import builtin_structure

STRUCTURES = ("chain3", "triangle", "sachs", "dream")
FLAG_SETS = ([], ["--route", "tree"], ["--route", "algebraic"], ["--reduce"],
             ["--route", "algebraic", "--reduce"])
IDENTIFY_SHA256 = "5e3c6404e6c228a3267af7ad287572047f7815c834b5a1334ebb58cad7caac41"
CERTIFY_SHA256 = "bc3041729968e2ff7e7a1f97a203602e9d6d4831d73a8937deaa473688dc8c60"


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


def test_certify_over_every_regime_is_pinned():
    digest = hashlib.sha256()
    regimes = 0
    for name in STRUCTURES:
        bundle = builtin_structure(name)
        targets = bundle.ifm.space.all_regimes().regimes
        regimes += len(targets)
        for route in ("auto", "tree"):
            _, results = certify(bundle.ifm, bundle.train, targets, route)
            for r in results:
                digest.update(f"{r.route}|{getattr(r, 'exponents', None)!r}|"
                              f"{getattr(r, 'reason', None)}\n".encode())
    assert regimes == 1056
    assert digest.hexdigest() == CERTIFY_SHA256
