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

from . import MODEL_FORMAT_VERSION, __version__
from .errors import DomainError, InvalidSpec

# Each command imports what it runs when it runs, so `--version`, `--help`
# and usage errors load no numpy, and a patched module attribute is seen.

CERT_FORMAT = "regimecast-certificate"
ESTIMATE_FORMAT = "regimecast-estimate"
BAND_FORMAT = "regimecast-band"
FORMAT_VERSION = 1


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _finite_or_none(v):
    """A band end or width as JSON: an infinite value becomes null."""
    v = float(v)
    return v if math.isfinite(v) else None


def _emit(obj, out) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _conditions_dict(report) -> dict:
    from .fileio import regime_text

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


def _certificate(result, conditions, support=None) -> dict:
    """Certificate JSON for a PrTransformation or an Unidentifiable."""
    from .algebraic import PrTransformation
    from .fileio import regime_text

    identified = isinstance(result, PrTransformation)
    out = {
        "format": CERT_FORMAT,
        "format_version": FORMAT_VERSION,
        "identifiable": identified,
        "route": result.route,
        "target": regime_text(result.target),
        "train": [regime_text(r) for r in result.train],
        "exponents": list(result.exponents) if identified else None,
        "solution_dim": result.solution_dim if identified else None,
        "reason": None if identified else result.reason,
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
    from . import algebraic, junction
    from .fileio import load_graph, load_train, parse_regime_text, regime_text
    from .model import normalize_factors

    ifm = load_graph(args.graph)
    train = load_train(args.train, ifm.space)
    target = parse_regime_text(args.target, ifm.space)
    report, (result,) = junction.certify(ifm, train, [target], args.route)
    conditions = None if report is None else _conditions_dict(report)

    support = None
    if args.reduce and isinstance(result, algebraic.PrTransformation):
        norm = normalize_factors(ifm)
        kept = algebraic.greedy_reduce(norm, train, target)
        # exponents stay aligned with "train", which is the kept set here
        result = algebraic.solve_pr(norm, kept, target)
        support = [regime_text(r) for r in kept]
    _emit(_certificate(result, conditions, support), args.out)
    return 0


def _cmd_fit(args) -> int:
    from .energy import discretize, fit as fit_energy, new_model, save_model
    from .estimators import fit_outcome, save_outcome
    from .fileio import load_graph, load_manifest

    ifm = load_graph(args.graph)
    datasets = load_manifest(args.data_manifest, ifm)
    grid = discretize(datasets, bins=args.bins, names=ifm.var_names)
    model0 = new_model(ifm, grid, hidden=args.hidden, seed=args.seed)
    model, log = fit_energy(model0, datasets, steps=args.steps, lr=args.lr, batch=args.batch)
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
    from .energy import load_model
    from .fileio import parse_regime_text, write_dataset_csv
    from .model import RegimeDataset
    from .sampling import sample

    model = load_model(args.model)
    regime = parse_regime_text(args.regime, model.ifm.space)
    draws = sample(model, regime, args.n, burn=args.burn, thin=args.thin, seed=args.seed)
    write_dataset_csv(args.out, model.ifm, RegimeDataset(regime, draws))
    return 0


def _cmd_estimate(args) -> int:
    if args.outcome and args.method != "direct":
        print("estimate: error: --outcome needs --method direct", file=sys.stderr)
        return 1
    if args.method != "ipw" and args.seed is None:
        print("estimate: error: --seed is required unless the method is ipw", file=sys.stderr)
        return 1
    import numpy as np

    from .energy import load_model
    from .estimators import (ESTIMATORS, EstimatorInputs, fit_outcome, load_outcome,
                             regime_weights)
    from .fileio import load_manifest, parse_regime_text, regime_text
    from .sampling import sample

    model = load_model(args.model)
    datasets = load_manifest(args.data_manifest, model.ifm)
    target = parse_regime_text(args.target, model.ifm.space)

    fit_seed = draw_seed = args.seed
    if args.method == "covshift":
        # the refit's seed is drawn first, then the draws'
        rng = np.random.default_rng(args.seed)
        fit_seed, draw_seed = int(rng.integers(2 ** 63)), int(rng.integers(2 ** 63))
    inputs = EstimatorInputs(
        datasets,
        draws=lambda t: sample(model, t, args.nsamples, burn=args.burn, thin=args.thin,
                               seed=draw_seed),
        weights=lambda t: regime_weights(model, datasets, [t])[0],
        outcome=lambda: (load_outcome(args.outcome) if args.outcome
                         else fit_outcome(datasets, seed=args.seed)),
        refit=lambda w: fit_outcome(datasets, seed=fit_seed, weights=w),
    )
    est = ESTIMATORS[args.method](inputs, target)

    result = {
        "format": ESTIMATE_FORMAT,
        "format_version": FORMAT_VERSION,
        "method": args.method,
        "target": regime_text(target),
        "mu_hat": est.mu,
        "se": est.se,
        "per_regime": None if est.per_regime is None else [
            {"regime": regime_text(r.regime), "mu": r.mu, "var_proxy": r.var_proxy}
            for r in est.per_regime
        ],
    }
    _emit(result, args.out)
    return 0


def _cmd_conformal(args) -> int:
    from .energy import load_model
    from .estimators import conformal_band
    from .fileio import load_manifest, parse_regime_text, regime_text

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
        "lo": _finite_or_none(band.lo),
        "hi": _finite_or_none(band.hi),
        "alpha": band.alpha,
        "half_width": _finite_or_none(band.half_width),
    }, args.out)
    return 0


def _cmd_benchmark(args) -> int:
    from .fileio import read_json
    from .simbench import run_benchmark

    config = read_json(args.config) if args.config else {}
    report = run_benchmark(config, jobs=args.jobs)
    report.write_json(args.out)
    if args.csv:
        report.write_csv(args.csv)
    _emit(report.data["summary"], None)
    return 0


def _cmd_validate(args) -> int:
    from .fileio import fingerprint, load_graph, load_manifest
    from .junction import is_decomposable
    from .model import sigma_graph

    ifm = load_graph(args.graph)
    result = {
        "ok": True,
        "variables": ifm.m,
        "interventions": ifm.space.d,
        "factors": len(ifm.factors),
        "chordal": is_decomposable(sigma_graph(ifm)),
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

    # options shared by several commands are declared once, on parent parsers
    chain = argparse.ArgumentParser(add_help=False)
    chain.add_argument("--burn", type=int, default=500,
                       help="scans each Gibbs chain discards (Gibbs fallback only)")
    chain.add_argument("--thin", type=int, default=5,
                       help="scans between kept Gibbs scans (Gibbs fallback only)")

    p = sub.add_parser("sample", parents=[chain], help="draw rows from a fitted model under a "
                       "regime: exact iid draws by variable elimination when every elimination "
                       "clique can be tabulated, Gibbs chains otherwise")
    p.add_argument("--model", required=True)
    p.add_argument("--regime", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    # estimate and conformal both read a model, its data and a target, and sample
    shared = argparse.ArgumentParser(add_help=False, parents=[chain])
    shared.add_argument("--model", required=True)
    shared.add_argument("--data-manifest", required=True)
    shared.add_argument("--target", required=True)
    shared.add_argument("--nsamples", type=int, default=2000)
    shared.add_argument("--out")

    p = sub.add_parser("estimate", parents=[shared],
                       help="estimate the outcome mean under a target regime")
    p.add_argument("--method", choices=("direct", "ipw", "covshift"), default="direct")
    p.add_argument("--outcome", help="saved outcome model (direct method only)")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("conformal", parents=[shared],
                       help="weighted split conformal band for a target")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--hidden", type=int, default=15)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--lr", type=float, default=1e-2)
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
        # no numpy size, index or count can hold a larger integer
        for key, v in vars(args).items():
            if isinstance(v, int) and v > sys.maxsize:
                raise InvalidSpec(f"--{key.replace('_', '-')} must be <= {sys.maxsize}, got {v}")
        return args.func(args)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort boundary for exit code 3
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
