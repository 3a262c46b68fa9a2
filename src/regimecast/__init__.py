"""Density models, identification certificates, and outcome estimators
for systems observed under combinations of discrete interventions.

Every public name is resolved on first access from the module that defines
it (PEP 562), so importing the package loads no submodule and no numpy.
Nothing is cached here: `regimecast.X` is always the current attribute of
its home module.
"""

import importlib

__version__ = "0.1.0"

# `format_version` of a saved energy model; `energy.FORMAT_VERSION` is bound
# from it, and `regimecast --version` prints it without importing `energy`
MODEL_FORMAT_VERSION = 1

_EXPORTS = {
    "algebraic": (
        "PrTransformation",
        "Unidentifiable",
        "build_system",
        "greedy_reduce",
        "solve_pr",
        "verify_pr",
    ),
    "energy": (
        "EnergyModel",
        "Grid",
        "discretize",
        "fit",
        "load_model",
        "log_ratio_rows",
        "log_unnorm",
        "new_model",
        "pll_gradient",
        "pseudo_loglik",
        "save_model",
    ),
    "errors": (
        "DegenerateVariable",
        "DomainError",
        "GridTooLarge",
        "InsufficientData",
        "InvalidSpec",
        "MissingOutcome",
        "ModelFormatError",
        "NonFinite",
        "UnknownStructure",
    ),
    "estimators": (
        "ConformalBand",
        "Estimate",
        "OutcomeModel",
        "conformal_band",
        "estimate_direct",
        "estimate_ipw",
        "fit_outcome",
        "load_outcome",
        "predict_outcome",
        "regime_weights",
        "save_outcome",
    ),
    "fileio": (
        "fingerprint",
        "graph_to_dict",
        "load_graph",
        "load_manifest",
        "parse_graph",
        "parse_regime_text",
        "read_dataset_csv",
        "write_dataset_csv",
    ),
    "junction": (
        "ConditionReport",
        "certify",
        "check_conditions",
        "is_decomposable",
        "message_passing_identify",
    ),
    "model": (
        "FactorSpec",
        "IfmStructure",
        "InterventionSpace",
        "RegimeDataset",
        "RegimeSet",
        "RegimeVector",
        "SigmaGraph",
        "normalize_factors",
        "restrict_regime",
        "sigma_graph",
        "sigma_zero_set",
    ),
    "sampling": ("exact_density", "gibbs_sample", "log_partition", "sample"),
    "simbench": (
        "BenchmarkReport",
        "StructureBundle",
        "builtin_structure",
        "make_dag_truth",
        "make_ifm_truth",
        "make_outcome",
        "prmse",
        "rcor",
        "run_benchmark",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_HOME)]


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
