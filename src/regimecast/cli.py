"""Command-line interface.

Subcommands cover the full workflow: validate inputs, certify a target
regime, fit the density model, draw samples, estimate outcome means,
compute conformal bands, and run the simulation benchmark. All results
are printed (or written) as JSON except sample output, which is CSV.

Exit codes: 0 success, 1 usage error, 2 rejected input or failed
precondition, 3 internal error. `identify` exits 0 also when it reports
`"identifiable": false`: it found no PR-transformation (product of training
densities raised to exponents) for this training set, which is not a proof
that the target is unidentified.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, algebraic, junction
from .errors import ConditionsNotMet, DomainError, InvalidSpec
from .estimators import (
    conformal_band,
    estimate_direct,
    estimate_ipw,
    fit_outcome,
    load_outcome,
    regime_weights,
    save_outcome,
)
from .energy import (
    FORMAT_VERSION as MODEL_FORMAT_VERSION,
    discretize,
    fit as fit_energy,
    load_model,
    new_model,
    save_model,
)
from .fileio import (
    fingerprint,
    load_graph,
    load_manifest,
    load_train,
    parse_regime_text,
    read_json,
    regime_text,
    write_dataset_csv,
)
from .model import RegimeDataset, normalize_factors, sigma_graph
from .sampling import sample
from .simbench import run_benchmark

CERT_FORMAT = "regimecast-certificate"
ESTIMATE_FORMAT = "regimecast-estimate"
BAND_FORMAT = "regimecast-band"
FORMAT_VERSION = 1


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _band_fields(band) -> dict:
    """lo, hi, alpha and half_width of a band; infinite values become null."""
    def finite_or_none(v):
        v = float(v)
        return v if math.isfinite(v) else None

    return {"lo": finite_or_none(band.lo), "hi": finite_or_none(band.hi),
            "alpha": band.alpha, "half_width": finite_or_none(band.half_width)}


def _emit(obj, out) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _conditions_dict(report: junction.ConditionReport) -> dict:
    return {
        "passed": report.passed,
        "cliques": [
            {
                "interventions": list(entry.clique),
                "missing": [regime_text(r) for r in entry.missing],
            }
            for entry in report.entries
        ],
    }


def _certificate(train, target, route, conditions, cert=None, reason=None,
                 support=None) -> dict:
    """Certificate JSON; `cert` None means the target was not identified."""
    out = {
        "format": CERT_FORMAT,
        "format_version": FORMAT_VERSION,
        "identifiable": cert is not None,
        "route": route,
        "target": regime_text(target),
        "train": [regime_text(r) for r in train],
        "exponents": None if cert is None else [float(q) for q in cert.exponents],
        "solution_dim": None if cert is None else cert.solution_dim,
        "reason": reason,
    }
    if conditions is not None:
        out["conditions"] = conditions
    if support is not None:
        out["support"] = support
    return out


def _cmd_identify(args) -> int:
    if args.route == "tree" and args.reduce:
        print("identify: error: --reduce needs the algebraic route", file=sys.stderr)
        return 1
    ifm = load_graph(args.graph)
    train = load_train(args.train, ifm.space)
    target = parse_regime_text(args.target, ifm.space)
    norm = normalize_factors(ifm)

    conditions = None
    if args.route in ("auto", "tree"):
        conditions = _conditions_dict(junction.check_conditions(norm, train))

    if args.route == "tree" or (args.route == "auto" and conditions["passed"]
                                and not args.reduce):
        try:
            cert = junction.message_passing_identify(norm, train, target)
        except ConditionsNotMet as exc:
            result = _certificate(train, target, "junction-tree", conditions, reason=str(exc))
        else:
            result = _certificate(train, target, "junction-tree", conditions, cert)
    else:
        solved = algebraic.solve_pr(norm, train, target)
        if isinstance(solved, algebraic.Unidentifiable):
            result = _certificate(train, target, "algebraic", conditions, reason=solved.reason)
        elif args.reduce:
            kept = algebraic.greedy_reduce(norm, train, target)
            solved = algebraic.solve_pr(norm, kept, target)
            support = [regime_text(r) for r in kept]
            # exponents stay aligned with "train", which is the kept set here
            result = _certificate(kept, target, "algebraic", conditions, solved,
                                  support=support)
        else:
            result = _certificate(train, target, "algebraic", conditions, solved)
    _emit(result, args.out)
    return 0


def _cmd_fit(args) -> int:
    ifm = load_graph(args.graph)
    datasets = load_manifest(args.data_manifest, ifm)
    grid = discretize(datasets, bins=args.bins)
    model0 = new_model(ifm, grid, hidden=args.hidden, seed=args.seed)
    model, log = fit_energy(model0, datasets, steps=args.steps, lr=args.lr,
                            batch=args.batch, seed=args.seed)
    outcome = None
    if args.outcome_out:
        outcome = fit_outcome(datasets, hidden=args.outcome_hidden,
                              steps=args.outcome_steps, lr=args.outcome_lr,
                              seed=args.seed)
    # nothing is written unless both fits succeeded
    save_model(args.out, model)
    summary = {
        "model": str(args.out),
        "steps": args.steps,
        "objective_start": log.objectives[0],
        "objective_end": log.objectives[-1],
        "regressions": len(log.regressions),
    }
    if outcome is not None:
        save_outcome(args.outcome_out, outcome)
        summary["outcome_model"] = str(args.outcome_out)
    _emit(summary, None)
    return 0


def _cmd_sample(args) -> int:
    model = load_model(args.model)
    regime = parse_regime_text(args.regime, model.ifm.space)
    draws = sample(model, regime, args.n, burn=args.burn, thin=args.thin, seed=args.seed)
    write_dataset_csv(args.out, model.ifm, RegimeDataset(regime, draws))
    return 0


def _cmd_estimate(args) -> int:
    if args.outcome and args.method != "direct":
        print("estimate: error: --outcome needs --method direct", file=sys.stderr)
        return 1
    if (args.method != "ipw" or args.alpha is not None) and args.seed is None:
        print("estimate: error: --seed is required unless the method is ipw without --alpha",
              file=sys.stderr)
        return 1
    model = load_model(args.model)
    datasets = load_manifest(args.data_manifest, model.ifm)
    target = parse_regime_text(args.target, model.ifm.space)

    if args.method == "ipw":
        est = estimate_ipw(datasets, [regime_weights(model, ds, target) for ds in datasets])
    else:
        draw_seed = args.seed
        if args.method == "covshift":
            # the refit's seed is drawn first, then the draws'
            rng = np.random.default_rng(args.seed)
            fit_seed, draw_seed = int(rng.integers(2 ** 63)), int(rng.integers(2 ** 63))
            outcome = fit_outcome(datasets, seed=fit_seed,
                                  weights=[regime_weights(model, ds, target) for ds in datasets])
        elif args.outcome:
            outcome = load_outcome(args.outcome)
        else:
            outcome = fit_outcome(datasets, seed=args.seed)
        draws = sample(model, target, args.nsamples, burn=args.burn, thin=args.thin,
                       seed=draw_seed)
        est = estimate_direct(outcome, draws)

    result = {
        "format": ESTIMATE_FORMAT,
        "format_version": FORMAT_VERSION,
        "method": args.method,
        "target": regime_text(target),
        "mu_hat": est.mu,
        "se": est.se,
        "per_regime": None,
        "band": None,
    }
    if est.per_regime is not None:
        result["per_regime"] = [
            {"regime": regime_text(r.regime), "mu": r.mu, "var_proxy": r.var_proxy}
            for r in est.per_regime
        ]
    if args.alpha is not None:
        band = conformal_band(model, datasets, target, args.alpha, seed=args.seed,
                              nsamples=args.nsamples, burn=args.burn, thin=args.thin)
        result["band"] = _band_fields(band)
    _emit(result, args.out)
    return 0


def _cmd_conformal(args) -> int:
    model = load_model(args.model)
    datasets = load_manifest(args.data_manifest, model.ifm)
    target = parse_regime_text(args.target, model.ifm.space)
    band = conformal_band(model, datasets, target, args.alpha, seed=args.seed,
                          nsamples=args.nsamples, burn=args.burn, thin=args.thin,
                          hidden=args.hidden, steps=args.steps, lr=args.lr)
    _emit({
        "format": BAND_FORMAT,
        "format_version": FORMAT_VERSION,
        "target": regime_text(target),
        "center": band.center,
        "n_scores": band.n_scores,
        **_band_fields(band),
    }, args.out)
    return 0


def _cmd_benchmark(args) -> int:
    config = read_json(args.config) if args.config else {}
    report = run_benchmark(config, jobs=args.jobs)
    report.write_json(args.out)
    if args.csv:
        report.write_csv(args.csv)
    print(json.dumps(report.data["summary"], indent=2, sort_keys=True))
    return 0


def _cmd_validate(args) -> int:
    ifm = load_graph(args.graph)
    result = {
        "ok": True,
        "variables": ifm.m,
        "interventions": ifm.space.d,
        "factors": len(ifm.factors),
        "chordal": junction.is_decomposable(sigma_graph(ifm)),
        "fingerprint": fingerprint(ifm),
    }
    if args.data_manifest:
        datasets = load_manifest(args.data_manifest, ifm)
        result["n_datasets"] = len(datasets)
        result["n_rows"] = int(sum(ds.n for ds in datasets))
        result["with_outcome"] = all(ds.y is not None for ds in datasets)
    _emit(result, None)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="regimecast")
    parser.add_argument(
        "--version", action="version",
        version=f"regimecast {__version__} (model format {MODEL_FORMAT_VERSION})")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("identify", help="certify a target regime from training regimes")
    p.add_argument("--graph", required=True)
    p.add_argument("--train", required=True, help="JSON list of level vectors or a manifest")
    p.add_argument("--target", required=True, help='comma-separated levels, e.g. "1,1,0"')
    p.add_argument("--route", choices=("auto", "tree", "algebraic"), default="auto")
    p.add_argument("--reduce", action="store_true",
                   help="greedily drop training regimes the certificate does not need; "
                   "takes the algebraic route (not allowed with --route tree)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_identify)

    p = sub.add_parser("fit", help="fit the density model to a data manifest")
    p.add_argument("--graph", required=True)
    p.add_argument("--data-manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--hidden", type=int, default=15)
    p.add_argument("--bins", type=int, default=20)
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--outcome-out", help="also fit and save a pooled outcome regression")
    p.add_argument("--outcome-hidden", type=int, default=15)
    p.add_argument("--outcome-steps", type=int, default=2000)
    p.add_argument("--outcome-lr", type=float, default=1e-2)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("sample", help="draw rows from a fitted model under a regime: exact "
                       "iid draws by variable elimination when every elimination clique can "
                       "be tabulated, Gibbs chains otherwise")
    p.add_argument("--model", required=True)
    p.add_argument("--regime", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--burn", type=int, default=500,
                   help="scans each Gibbs chain discards (Gibbs fallback only)")
    p.add_argument("--thin", type=int, default=5,
                   help="scans between kept Gibbs scans (Gibbs fallback only)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("estimate", help="estimate the outcome mean under a target regime")
    p.add_argument("--model", required=True)
    p.add_argument("--data-manifest", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--method", choices=("direct", "ipw", "covshift"), default="direct")
    p.add_argument("--outcome", help="saved outcome model (direct method only)")
    p.add_argument("--alpha", type=float, default=None,
                   help="also report a conformal band at this miscoverage")
    p.add_argument("--nsamples", type=int, default=2000)
    p.add_argument("--burn", type=int, default=500)
    p.add_argument("--thin", type=int, default=5)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("conformal", help="weighted split conformal band for a target")
    p.add_argument("--model", required=True)
    p.add_argument("--data-manifest", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--nsamples", type=int, default=2000)
    p.add_argument("--burn", type=int, default=500)
    p.add_argument("--thin", type=int, default=5)
    p.add_argument("--hidden", type=int, default=15)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--lr", type=float, default=1e-2)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_conformal)

    p = sub.add_parser("benchmark", help="run the simulation benchmark")
    p.add_argument("--config", help="JSON overrides for the default config")
    p.add_argument("--out", required=True)
    p.add_argument("--csv", help="also write per-estimate rows as CSV")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_benchmark)

    p = sub.add_parser("validate", help="check a graph file (and optionally data)")
    p.add_argument("--graph", required=True)
    p.add_argument("--data-manifest")
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # fit, sample, estimate and conformal take a seed; the generators need it >= 0
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise InvalidSpec(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort boundary for exit code 3
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
