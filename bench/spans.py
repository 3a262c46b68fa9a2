"""Spans around the public calls the pipeline makes, recorded from outside.

`Tracer.patch()` replaces each traced function or method with a wrapper in
every `regimecast` module that holds it (a function imported by name lives
in several module namespaces, e.g. `simbench.gibbs_sample` and
`estimators.gibbs_sample`). Each wrapper records a span (name, start, end,
parent span, run id) plus a few counts taken from the call's arguments or
result. Nothing is written while the program runs; `per_layer()` and
`dump()` work on the spans kept in memory once the run has ended.

Self time is a span's duration minus the time its child spans cover. The
benchmark opens one root span per workload run (per command for the
command-line workload), so the self times under a root sum to its wall time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager

import numpy as np
from scipy.special import ndtri

NAME, START, END, PARENT, RUN, INFO = range(6)


class Tracer:
    """In-memory span store with an explicit stack of open spans."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.run_id = 0
        self.unique_seen = set()  # callers whose first forward call was sampled
        self.deferred = []  # (span index, kind, array) evaluated after the run

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run_id, {}])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][END] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name, fn, after=None):
        """Wrapper recording one span per call; `after(tracer, span index,
        call, result)` fills counts once the span has closed."""
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(self, idx, _Call(sig, args, kwargs), out)
            return out

        return traced

    @contextmanager
    def patch(self):
        """Install every wrapper in `_targets()`; restore the originals on exit."""
        targets = _targets()
        modules = [m for n, m in sys.modules.items()
                   if n == "regimecast" or n.startswith("regimecast.")]
        undo = []
        try:
            for owner, attr, name, after in targets:
                original = getattr(owner, attr)
                wrapper = self.wrap(name, original, after)
                if inspect.isclass(owner):
                    undo.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, key, original))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    # ---- analysis, after the run -------------------------------------------------

    def self_times(self) -> np.ndarray:
        dur = np.array([s[END] - s[START] for s in self.spans])
        child = np.zeros(len(self.spans))
        for s, d in zip(self.spans, dur):
            if s[PARENT] >= 0:
                child[s[PARENT]] += d
        return dur - child

    def finish(self) -> None:
        """Evaluate deferred counts (unique input rows, ESS) outside any span."""
        for idx, kind, arr in self.deferred:
            info = self.spans[idx][INFO]
            if kind == "unique":
                info["unique"] = int(np.unique(arr, axis=0).shape[0])
            elif kind == "ess":
                frac = min_bulk_ess_frac(arr)
                info["ess_frac"] = frac if np.isfinite(frac) else None
        self.deferred = []

    def dump(self, path, meta) -> None:
        with open(path, "w") as fh:
            json.dump({"meta": meta, "fields": ["name", "start", "end", "parent", "run", "info"],
                       "spans": self.spans}, fh)


# ---- counts taken at the call boundary ------------------------------------------


class _Call:
    """A traced call's arguments, bound to parameter names on demand."""

    def __init__(self, sig, args, kwargs):
        self.sig, self.args, self.kwargs = sig, args, kwargs

    def first(self, pos, name):
        """A positional-or-keyword argument without binding the signature."""
        return self.args[pos] if len(self.args) > pos else self.kwargs[name]

    def bound(self) -> dict:
        b = self.sig.bind(*self.args, **self.kwargs)
        b.apply_defaults()
        return b.arguments


def _caller(tracer, idx):
    parent = tracer.spans[idx][PARENT]
    return tracer.spans[parent][NAME] if parent >= 0 else "-"


def _after_forward(tracer, idx, call, out):
    x = call.first(1, "x")
    tracer.spans[idx][INFO]["rows"] = int(x.shape[0])
    # the unique fraction is sampled on the first call from each caller
    key = _caller(tracer, idx)
    if key not in tracer.unique_seen:
        tracer.unique_seen.add(key)
        tracer.deferred.append((idx, "unique", x))


def _after_backward(tracer, idx, call, out):
    tracer.spans[idx][INFO]["rows"] = int(call.first(1, "x").shape[0])


def _after_fit(tracer, idx, call, out):
    a = call.bound()
    rows = sum(ds.x.shape[0] for ds in a["datasets"])
    info = tracer.spans[idx][INFO]
    info["steps"] = int(a["steps"])
    info["pll_per_row"] = float(out[1].objectives[-1]) / rows


def _after_ratio(tracer, idx, call, out):
    tracer.spans[idx][INFO]["rows"] = int(np.shape(out)[0])


def _after_gibbs(tracer, idx, call, out):
    a = call.bound()
    scans = a["burn"] + a["n"] * a["thin"]
    info = tracer.spans[idx][INFO]
    info["scans"] = int(scans)
    info["kept"] = int(a["n"])
    info["updates"] = int(scans * a["model"].ifm.m)
    tracer.deferred.append((idx, "ess", out))


def _after_fit_outcome(tracer, idx, call, out):
    tracer.spans[idx][INFO]["steps"] = int(call.bound()["steps"])


def _after_manifest(tracer, idx, call, out):
    tracer.spans[idx][INFO]["rows"] = int(sum(ds.n for ds in out))


def _targets():
    """(owner, attribute, span name, count hook) for every traced call."""
    from regimecast import (algebraic, cli, energy, estimators, fileio, junction, nets,
                            sampling, simbench)

    return [
        (nets, "mlp_forward", "nets.mlp_forward", _after_forward),
        (nets, "mlp_backward", "nets.mlp_backward", _after_backward),
        (nets.Adam, "step", "nets.adam_step", None),
        (energy, "fit", "energy.fit", _after_fit),
        (energy, "log_ratio_rows", "energy.log_ratio_rows", _after_ratio),
        (energy, "save_model", "energy.save_model", None),
        (energy, "load_model", "energy.load_model", None),
        (sampling, "gibbs_sample", "sampling.gibbs_sample", _after_gibbs),
        (estimators, "fit_outcome", "estimators.fit_outcome", _after_fit_outcome),
        (estimators, "estimate_ipw", "estimators.estimate_ipw", None),
        (estimators, "estimate_direct", "estimators.estimate_direct", None),
        (estimators, "regime_weights", "estimators.regime_weights", None),
        (estimators, "conformal_band", "estimators.conformal_band", None),
        (algebraic, "solve_pr", "algebraic.solve_pr", None),
        (junction, "check_conditions", "junction.check_conditions", None),
        (junction, "message_passing_identify", "junction.message_passing_identify", None),
        (simbench, "run_benchmark", "simbench.run_benchmark", None),
        (simbench.IfmTruth, "sample", "simbench.truth_sample", None),
        (simbench.DagTruth, "sample", "simbench.truth_sample", None),
        (simbench, "fit_dag", "simbench.fit_dag", None),
        (fileio, "load_manifest", "fileio.load_manifest", _after_manifest),
        (cli, "main", "cli.main", None),
    ]


# ---- effective sample size --------------------------------------------------------


def _autocov(x: np.ndarray) -> np.ndarray:
    n = x.shape[0]
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x - x.mean(axis=0), n=size, axis=0)
    acov = np.fft.irfft(f * np.conj(f), n=size, axis=0)[:n]
    return acov / n


def bulk_ess(draws: np.ndarray) -> float:
    """Bulk ESS of one chain (Vehtari et al. 2021): split the chain in two,
    rank-normalize, then sum autocorrelations by Geyer's initial monotone
    positive-pair sequence."""
    x = np.asarray(draws, dtype=float)
    half = x.shape[0] // 2
    if half < 4:
        return float("nan")
    chains = np.stack([x[:half], x[half:2 * half]], axis=1)  # (n, 2)
    # average ranks over ties; draws are bin centers, so ties are the rule
    flat = chains.ravel()
    order = np.argsort(flat, kind="stable")
    _, first, counts = np.unique(flat[order], return_index=True, return_counts=True)
    avg = first + (counts - 1) / 2.0
    ranks = np.empty_like(flat)
    ranks[order] = np.repeat(avg, counts)
    s = flat.size
    z = ndtri((ranks + 1 - 0.375) / (s + 0.25)).reshape(chains.shape)
    n, c = z.shape
    acov = _autocov(z)
    mean_var = acov[0].mean() * n / (n - 1)
    var_plus = mean_var * (n - 1) / n + (z.mean(axis=0).var(ddof=1) if c > 1 else 0.0)
    if var_plus <= 0:
        return float("nan")
    rho = 1.0 - (mean_var - acov.mean(axis=1)) / var_plus
    rho[0] = 1.0
    # Geyer: sum consecutive pairs while positive, forced monotone
    total, prev, t = 0.0, float("inf"), 0
    while t + 1 < n:
        pair = rho[t] + rho[t + 1]
        if pair < 0:
            break
        pair = min(pair, prev)
        total += pair
        prev = pair
        t += 2
    tau = -1.0 + 2.0 * total
    return float(n * c / max(tau, 1.0 / np.log10(n * c)))


def min_bulk_ess_frac(draws: np.ndarray) -> float:
    """Minimum over non-constant columns of bulk ESS / draws; nan if none."""
    draws = np.asarray(draws)
    vals = [bulk_ess(draws[:, j]) for j in range(draws.shape[1])
            if np.ptp(draws[:, j]) > 0]
    vals = [v for v in vals if np.isfinite(v)]
    return float(min(vals) / draws.shape[0]) if vals else float("nan")


# ---- per-layer metrics ------------------------------------------------------------


def _totals(tracer):
    """Per span name: call count, summed duration, summed self time, infos."""
    self_t = tracer.self_times()
    out = {}
    for s, st in zip(tracer.spans, self_t):
        t = out.setdefault(s[NAME], {"calls": 0, "dur": 0.0, "self": 0.0, "info": []})
        t["calls"] += 1
        t["dur"] += s[END] - s[START]
        t["self"] += st
        t["info"].append(s[INFO])
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(tracer, timing) -> dict:
    """Per-layer metrics per traced workload run; 0 where a workload does not
    reach the layer. `timing` carries the untraced and traced walls, the
    number of traced runs and, for the command-line workload, the walls of
    each command run as its own process."""
    tot = _totals(tracer)
    runs = timing["runs"]
    empty = {"calls": 0, "dur": 0.0, "self": 0.0, "info": []}

    def get(name):
        return tot.get(name, empty)

    def total(name, key):
        return sum(i.get(key, 0) for i in get(name)["info"])

    fwd, bwd = get("nets.mlp_forward"), get("nets.mlp_backward")
    sampled = [i for i in fwd["info"] if "unique" in i]
    fit, gibbs = get("energy.fit"), get("sampling.gibbs_sample")
    ratio, fo = get("energy.log_ratio_rows"), get("estimators.fit_outcome")
    ess = [i["ess_frac"] for i in gibbs["info"] if i.get("ess_frac") is not None]
    manifest = get("fileio.load_manifest")
    untraced = timing.get("in_process_wall", timing["wall"])
    per_command = timing.get("per_command", {})
    values = {
        "nets.forward_rows": total("nets.mlp_forward", "rows") / runs,
        "nets.forward_unique_frac": _ratio(sum(i["unique"] for i in sampled),
                                           sum(i["rows"] for i in sampled)),
        "nets.forward_s": fwd["dur"] / runs,
        "nets.backward_rows": total("nets.mlp_backward", "rows") / runs,
        "nets.backward_s": bwd["dur"] / runs,
        "nets.adam_steps": get("nets.adam_step")["calls"] / runs,
        "nets.adam_s": get("nets.adam_step")["dur"] / runs,
        "energy.fit_s": fit["dur"] / runs,
        "energy.fit_step_ms": 1e3 * _ratio(fit["dur"], total("energy.fit", "steps")),
        "energy.fit_pll_per_row": _ratio(total("energy.fit", "pll_per_row"), fit["calls"]),
        "energy.ratio_calls": ratio["calls"] / runs,
        "energy.ratio_us_per_row": 1e6 * _ratio(ratio["dur"], total("energy.log_ratio_rows",
                                                                    "rows")),
        "energy.model_io_s": (get("energy.save_model")["dur"]
                              + get("energy.load_model")["dur"]) / runs,
        "sampling.gibbs_calls": gibbs["calls"] / runs,
        "sampling.gibbs_updates": total("sampling.gibbs_sample", "updates") / runs,
        "sampling.gibbs_s": gibbs["dur"] / runs,
        "sampling.gibbs_us_per_update": 1e6 * _ratio(gibbs["dur"],
                                                     total("sampling.gibbs_sample", "updates")),
        "sampling.kept_frac": _ratio(total("sampling.gibbs_sample", "kept"),
                                     total("sampling.gibbs_sample", "scans")),
        "sampling.ess_frac": float(np.median(ess)) if ess else 0.0,
        "estimators.fit_outcome_calls": fo["calls"] / runs,
        "estimators.fit_outcome_s": fo["dur"] / runs,
        "estimators.fit_outcome_step_ms": 1e3 * _ratio(fo["dur"],
                                                       total("estimators.fit_outcome", "steps")),
        "estimators.ipw_s": get("estimators.estimate_ipw")["dur"] / runs,
        "estimators.conformal_s": get("estimators.conformal_band")["dur"] / runs,
        "algebraic.solve_pr_calls": get("algebraic.solve_pr")["calls"] / runs,
        "algebraic.solve_pr_ms": 1e3 * get("algebraic.solve_pr")["dur"] / runs,
        "junction.identify_ms": 1e3 * (get("junction.check_conditions")["dur"]
                                       + get("junction.message_passing_identify")["dur"]) / runs,
        "simbench.truth_sample_s": get("simbench.truth_sample")["dur"] / runs,
        "simbench.fit_dag_s": get("simbench.fit_dag")["dur"] / runs,
        "simbench.self_s": get("simbench.run_benchmark")["self"] / runs,
        "fileio.load_manifest_s": manifest["dur"] / runs,
        "fileio.rows_per_s": _ratio(total("fileio.load_manifest", "rows"), manifest["dur"]),
        "trace.overhead_frac": timing["traced_wall"] / untraced - 1.0,
    }
    for label in ("validate", "identify", "fit", "estimate_ipw", "estimate_direct",
                  "conformal"):
        values[f"cli.{label}_s"] = per_command.get(label, 0.0)
    return values


def layer_shares(tracer) -> dict:
    """Share of traced wall time per layer (module), by self time; the
    benchmark's own root span is `bench`. Shares sum to 1."""
    self_t = tracer.self_times()
    wall = sum(s[END] - s[START] for s in tracer.spans if s[PARENT] < 0)
    shares = {}
    for s, st in zip(tracer.spans, self_t):
        layer = s[NAME].split(".", 1)[0]
        shares[layer] = shares.get(layer, 0.0) + st / wall
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def inclusive_shares(tracer) -> dict:
    """Share of traced wall time inside each span name, children included."""
    tot = _totals(tracer)
    wall = sum(s[END] - s[START] for s in tracer.spans if s[PARENT] < 0)
    return {name: t["dur"] / wall for name, t in
            sorted(tot.items(), key=lambda kv: -kv[1]["dur"])}
