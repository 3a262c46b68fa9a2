"""Discretized product-of-potentials density model with switched parameters.

Variables are binned on a per-variable grid; each factor contributes one
scalar potential net per level pattern of the interventions that switch it,
evaluated on the bin centers of the variables it reads. The unnormalized
log density under a regime is the sum of the selected potentials. Training
ascends the sum over rows and variables of the log conditional of each
variable given the rest, which needs no partition function: the conditional
normalizes over one variable's grid using only the factors that read it.

Because every net input is a bin center, each net is a finite table over
its scope grid; `factor_table` caches it on the model, and densities, ratios
and sampling read it (`potentials` runs the net only above `CELL_CAP` cells).
Fitting exploits the same fact twice. Rows that fall into the same bins
have the same conditionals, so each dataset's rows collapse to its distinct
bin rows, each weighted by its count. Per factor, the codes of every
row's sweeps, each packing a level pattern and a scope cell, are ranked to
find the cells they reach (by marks over the factor's code space, or by
`np.unique` above `CELL_CAP` codes): one small design per net. A sweep's
index into its factor's cells is stored in the narrowest unsigned type
that holds the factor's cell count. Each step evaluates every net once on
its design, keeping only the outputs; then, per variable, one sweep over
all datasets' rows gathers the conditional logits from the outputs laid
end to end (by `take`), and scatters their count-weighted gradient back,
one factor at a time. Each net's backward pass recomputes its hidden
layer, so at most one hidden layer is alive at a time.

Density ratios bin their rows once for any number of numerator regimes
(`_log_ratios`), reading each factor's potential once per level pattern;
`log_ratio_rows` is its one-numerator case.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import MODEL_FORMAT_VERSION as FORMAT_VERSION
from .errors import DegenerateVariable, InvalidSpec, ModelFormatError, NonFinite, require_keys
from .fileio import (check_format, fingerprint, graph_to_dict, parse_graph, read_int,
                     read_json, read_list)
from .model import IfmStructure, RegimeVector, distinct_rows
from .nets import (
    Mlp,
    init_mlp,
    mlp_backward,
    mlp_forward,
    mlp_from_dict,
    mlp_to_dict,
    train,
)

MODEL_FORMAT = "regimecast-energy-model"

# grids and factor scopes up to this many cells are tabulated; a factor with
# up to this many (level pattern, cell) codes ranks its PLL codes by marks
CELL_CAP = 1_000_000
# grid cells per net evaluation when building a factor table
TABLE_BLOCK = 8192


@dataclass(frozen=True, eq=False)
class Grid:
    """Per-variable bin edges; bins are half-open, the last one closed."""

    edges: tuple

    def __post_init__(self):
        edges = []
        centers = []
        for e in self.edges:
            e = np.asarray(e, dtype=float).copy()
            if e.ndim != 1 or e.size < 2:
                raise InvalidSpec("each variable needs at least one bin (two edges)")
            if not np.all(np.isfinite(e)) or not np.all(np.diff(e) > 0):
                raise InvalidSpec("bin edges must be finite and strictly increasing")
            e.flags.writeable = False
            c = 0.5 * (e[:-1] + e[1:])
            c.flags.writeable = False
            edges.append(e)
            centers.append(c)
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "centers", tuple(centers))
        object.__setattr__(self, "nbins", tuple(e.size - 1 for e in edges))

    @property
    def m(self) -> int:
        return len(self.edges)

    def bin_rows(self, x: np.ndarray) -> np.ndarray:
        """Map raw rows (n, m) to bin indices; out-of-range values land in
        the edge bins, non-finite ones are rejected."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.m:
            raise InvalidSpec(f"rows have {x.shape[1]} columns, grid has {self.m}")
        if not np.all(np.isfinite(x)):
            raise InvalidSpec("rows hold non-finite values")
        out = np.empty(x.shape, dtype=int)
        for j, e in enumerate(self.edges):
            out[:, j] = np.searchsorted(e[1:-1], x[:, j], side="right")
        return out

    def center_rows(self, bins: np.ndarray, scope=None) -> np.ndarray:
        """Bin-center values for the given columns (all variables by default)."""
        cols = range(self.m) if scope is None else scope
        return np.column_stack([self.centers[j][bins[:, j]] for j in cols])


def discretize(datasets, bins: int = 20, names=None) -> Grid:
    """Uniform per-variable grids spanning the pooled range of the datasets;
    `names`, one per column, name a variable that cannot be binned."""
    if bins < 1:
        raise InvalidSpec("need at least one bin")
    if not datasets:
        raise InvalidSpec("need at least one dataset")
    x = np.vstack([ds.x for ds in datasets])
    lo = x.min(axis=0)
    hi = x.max(axis=0)
    edges = []
    for j in range(x.shape[1]):
        var = f"variable {j}" if names is None else f"variable {j} ({names[j]})"
        if hi[j] <= lo[j]:
            raise DegenerateVariable(f"{var} has zero observed range")
        with np.errstate(over="ignore"):  # a span past the float range
            finite = np.isfinite(hi[j] - lo[j])
        e = np.linspace(lo[j], hi[j], bins + 1) if finite else None
        if e is None or not np.all(np.diff(e) > 0):
            raise DegenerateVariable(
                f"{var} spans [{float(lo[j])!r}, {float(hi[j])!r}], which {bins} bins "
                "cannot split into finite, strictly increasing edges")
        edges.append(e)
    return Grid(tuple(edges))


@dataclass(eq=False)
class EnergyModel:
    """Potential nets keyed by (factor index, level pattern over its scope).

    `tables` caches each net's `factor_table` with the net object it was built
    from, and `plan` holds `sampling`'s elimination plan with each message
    and the arrays it was made from. Replace a net in `nets` to change it;
    editing a net's arrays in place after a table read is unsupported.
    """

    ifm: IfmStructure
    grid: Grid
    hidden: int
    nets: dict
    seed: int
    tables: dict = field(default_factory=dict, init=False, repr=False)
    plan: tuple | None = field(default=None, init=False, repr=False)

    def net_for(self, k: int, regime: RegimeVector) -> Mlp:
        return self.nets[(k, regime.project(self.ifm.factors[k].intv_scope))]

    def copy(self) -> "EnergyModel":
        return EnergyModel(
            self.ifm, self.grid, self.hidden,
            {key: net.copy() for key, net in self.nets.items()}, self.seed,
        )


def expected_net_keys(ifm: IfmStructure) -> list:
    keys = []
    for k, f in enumerate(ifm.factors):
        for value in itertools.product(*[range(ifm.space.cardinalities[j]) for j in f.intv_scope]):
            keys.append((k, value))
    return keys


def new_model(ifm: IfmStructure, grid: Grid, hidden: int = 15, seed: int = 0,
              out_scale: float = 0.0) -> EnergyModel:
    """Fresh model; with out_scale 0 every regime starts exactly uniform."""
    if grid.m != ifm.m:
        raise InvalidSpec(f"grid covers {grid.m} variables, structure has {ifm.m}")
    rng = np.random.default_rng(seed)
    nets = {}
    for key in expected_net_keys(ifm):
        k = key[0]
        nets[key] = init_mlp(len(ifm.factors[k].var_scope), hidden, rng, out_scale=out_scale)
    return EnergyModel(ifm, grid, hidden, nets, seed)


def _check_bins(model: EnergyModel, x_bins) -> np.ndarray:
    bins = np.atleast_2d(np.asarray(x_bins, dtype=int))
    if bins.shape[1] != model.ifm.m:
        raise InvalidSpec(f"bin rows have {bins.shape[1]} columns, expected {model.ifm.m}")
    for j, b in enumerate(model.grid.nbins):
        if np.any((bins[:, j] < 0) | (bins[:, j] >= b)):
            raise InvalidSpec(f"bin index out of range for variable {j}")
    return bins


def log_unnorm(model: EnergyModel, x_bins, regime: RegimeVector):
    """Unnormalized log density of binned rows under the given regime.

    Accepts one row (m,) or a matrix (n, m) of bin indices; returns a float
    or an (n,) array accordingly.
    """
    model.ifm.space.check_regime(regime)
    single = np.asarray(x_bins).ndim == 1
    bins = _check_bins(model, x_bins)
    out = np.zeros(bins.shape[0])
    for k in range(len(model.ifm.factors)):
        out += potentials(model, k, regime, bins)
    return float(out[0]) if single else out


def tabulated(model: EnergyModel, scope) -> bool:
    """Whether the grid over these variables has at most CELL_CAP cells."""
    return math.prod(model.grid.nbins[j] for j in scope) <= CELL_CAP


def factor_table(model: EnergyModel, k: int, regime: RegimeVector) -> np.ndarray:
    """Potential of factor k over its variables' full grid; cached, read-only.

    The net runs on the grid's cells in row-major order, TABLE_BLOCK cells
    at a time, each block written into the preallocated table, so the
    hidden array is at most (hidden, TABLE_BLOCK) whatever the grid size.
    No feature array spans the grid either. A cell's trailing coordinates
    repeat every `period` cells (one step of the leading axis), so one
    column-major buffer, built once per table, holds the bin centers of the
    first `period + TABLE_BLOCK - 1` cells: the block starting at cell
    q * period + off reads its rows from `off` on, once their leading
    column is rewritten q steps on. Blocks start at multiples of
    TABLE_BLOCK, so each table equals one whole-grid forward pass bitwise.
    """
    f = model.ifm.factors[k]
    key = (k, regime.project(f.intv_scope))
    net, table = model.tables.get(key, (None, None))
    if net is not model.nets[key]:
        net = model.nets[key]
        centers = [model.grid.centers[j] for j in f.var_scope]
        table = np.empty([c.size for c in centers])
        flat = table.reshape(-1)
        period = flat.size // table.shape[0]
        span = min(flat.size, period + TABLE_BLOCK - 1)
        whole = span - span % period
        x = np.empty((span, len(centers)), order="F")
        # axis pos - 1 steps every prod(shape[pos:]) cells; rows past the
        # last whole period repeat the first ones
        for pos, (col, c) in enumerate(zip(x.T[1:], centers[1:]), 2):
            col[:whole].reshape(-1, c.size, math.prod(table.shape[pos:]))[:] = c[:, None]
            col[whole:] = col[:span - whole]
        lead = np.arange(span) // period
        for start in range(0, flat.size, TABLE_BLOCK):
            q, off = divmod(start, period)
            end = off + min(TABLE_BLOCK, flat.size - start)
            x[off:end, 0] = centers[0][q:][lead[off:end]]
            flat[start:start + TABLE_BLOCK] = mlp_forward(net, x[off:end])[0]
        table.flags.writeable = False
        model.tables[key] = (net, table)
    return table


def potentials(model: EnergyModel, k: int, regime: RegimeVector, bins: np.ndarray) -> np.ndarray:
    """Factor k's potential at rows of bin indices (n, m), from its table
    or, for scopes too large to tabulate, from its net on bin centers."""
    scope = model.ifm.factors[k].var_scope
    if tabulated(model, scope):
        return factor_table(model, k, regime)[tuple(bins[:, scope].T)]
    return mlp_forward(model.net_for(k, regime), model.grid.center_rows(bins, scope))[0]


def _prepare(model: EnergyModel, datasets):
    """Cell designs per net and one sweep per variable over all datasets' rows.

    Each dataset's bin rows collapse to its distinct bin rows, each counted
    by how many rows share it; all datasets' distinct rows, in dataset
    order, form the sweeps' row axis. Per factor, each row's level pattern
    and scope cell pack into one code, pattern * |scope grid| + cell (both
    raveled row-major), and sweeping variable r over its bins steps that
    code by r's stride. The factor's sweep codes are written into one
    `intp` buffer, one (rows, nbins[r]) stretch per variable r in its
    scope. Ranking them finds the cells they reach, sorted by pattern and
    then cell. If the factor has at most CELL_CAP codes (patterns times
    scope cells), the reached codes are marked in a bool array over them,
    the marks in order are the cells, and each code maps to its mark's
    position, with no sort; above that, where the marks and ranks (9 bytes
    a code) could take hundreds of MB, one `np.unique` does the same. No
    rank reaches the factor's cell count, so the inverse is kept in the
    narrowest unsigned type that holds that count (`np.min_scalar_type`:
    uint8 up to 255 cells, uint16 up to 65,535). Each pattern's cells
    become its net's design of bin centers, so the designs' outputs lie end
    to end in one flat vector in key order, and the inverse, cut per
    variable, places each sweep term from where the factor's nets begin.

    Returns (designs, sweeps, counts, inverses). designs maps each reached
    net key to its (cells, len(scope)) column-major design, in key order.
    sweeps[r] is (observed, starts, index): observed holds each row's
    observed cell in the flattened (rows, nbins[r]) logits (`intp`), and
    for the i-th factor on r, index[i] is the (rows, nbins[r]) view of its
    inverse, in that factor's unsigned type, counted from starts[i] in the
    flat output vector. counts[d] counts the rows behind each distinct row
    of dataset d, and inverses[d] maps each raw row of dataset d to its
    distinct row.
    """
    if not datasets:
        raise InvalidSpec("the pseudo-log-likelihood needs at least one dataset")
    for ds in datasets:
        model.ifm.space.check_regime(ds.regime)
        if ds.x.shape[1] != model.ifm.m:
            raise InvalidSpec("dataset width does not match the structure")
    bins, inverses, counts = zip(*(distinct_rows(model.grid.bin_rows(ds.x)) for ds in datasets))
    levels = np.repeat([ds.regime.levels for ds in datasets], [c.size for c in counts], axis=0)
    bins = np.concatenate(bins)
    nbins = model.grid.nbins
    sweeps = [(bins[:, r] + nb * np.arange(bins.shape[0]), [], []) for r, nb in enumerate(nbins)]
    designs = {}
    offset = 0
    for k, f in enumerate(model.ifm.factors):
        cards = [model.ifm.space.cardinalities[j] for j in f.intv_scope]
        dims = [nbins[j] for j in f.var_scope]
        code = np.ravel_multi_index(
            np.hstack([levels[:, list(f.intv_scope)], bins[:, f.var_scope]]).T, cards + dims)
        # one (rows, nbins[r]) stretch of one buffer per swept variable r
        codes = np.empty(code.size * sum(dims), dtype=np.intp)
        bounds = code.size * np.cumsum(dims[:-1])
        for pos, (r, sweep) in enumerate(zip(f.var_scope, np.split(codes, bounds))):
            stride = math.prod(dims[pos + 1:])
            np.add((code - stride * bins[:, r])[:, None], stride * np.arange(dims[pos]),
                   out=sweep.reshape(code.size, dims[pos]))
        space = math.prod(cards + dims)
        if space <= CELL_CAP:  # rank the reached codes without sorting them
            mark = np.zeros(space, dtype=bool)
            mark[codes] = True
            cells = np.flatnonzero(mark)
            rank = np.empty(space, dtype=np.intp)
            rank[cells] = np.arange(cells.size)
            inv = rank[codes]
            del mark, rank
        else:
            cells, inv = np.unique(codes, return_inverse=True)
        del codes
        inv = inv.astype(np.min_scalar_type(cells.size))
        for r, part in zip(f.var_scope, np.split(inv, bounds)):
            sweeps[r][1].append(offset)
            sweeps[r][2].append(part.reshape(code.size, nbins[r]))
        offset += cells.size
        size = math.prod(dims)
        cuts = np.searchsorted(cells, size * np.arange(1, math.prod(cards)))
        for value, part in zip(itertools.product(*map(range, cards)), np.split(cells % size, cuts)):
            if part.size:
                coords = np.unravel_index(part, dims)
                designs[(k, value)] = np.array(
                    [model.grid.centers[j][c] for j, c in zip(f.var_scope, coords)]).T  # column-major
    return designs, sweeps, list(counts), list(inverses)


def _pll_from_prep(model: EnergyModel, prep, drawn=None):
    """(full-data PLL, gradient or None). The gradient is taken only when
    `drawn` is given, with drawn[d] weighing dataset d's distinct rows;
    rows a minibatch misses weigh 0 and add exact zeros to every sum. It
    is one zeroed flat vector written through `_per_net`'s views (the
    layout `nets.train` uses); unreached nets and every b2 stay 0.

    At most one net's hidden layer is alive at a time. The forward pass
    keeps only the outputs, freed after the sweeps; the gradient pass runs
    each net forward again on its design just before its backward pass,
    which is bitwise the same layer, since no parameter changes within a
    call, and frees it after."""
    designs, sweeps, counts = prep[:3]
    vals = np.empty(sum(x.shape[0] for x in designs.values()))
    at = 0
    for key, x in designs.items():
        vals[at:at + x.shape[0]] = mlp_forward(model.nets[key], x)[0]
        at += x.shape[0]
    cnt = np.concatenate(counts)
    if drawn is not None:
        weight = np.concatenate(drawn)[:, None]
        dvals = np.zeros(vals.size)
    total = 0.0
    for obs, starts, index in sweeps:
        logits = np.zeros(index[0].shape)
        for start, ix in zip(starts, index):  # factor order, as one row's sweep adds them
            logits += vals[start:].take(ix)
        top = logits.max(axis=1, keepdims=True)
        p = logits - top
        np.exp(p, out=p)
        norm = p.sum(axis=1)
        lse = top[:, 0] + np.log(norm)
        total += float(np.sum(cnt * (logits.take(obs) - lse)))
        if drawn is not None:
            p /= -norm[:, None]
            p.reshape(-1)[obs] += 1.0
            p *= weight
            for start, ix in zip(starts, index):
                scatter = np.bincount(ix.reshape(-1), p.reshape(-1))
                dvals[start:start + scatter.size] += scatter
    if not np.isfinite(total):
        raise NonFinite("pseudo-log-likelihood is not finite")
    if drawn is None:
        return total, None
    del vals
    grad = np.zeros(sum(p.size for net in model.nets.values() for p in net.params()))
    views, at = _per_net(model, grad), 0
    for key, x in designs.items():
        net = model.nets[key]
        gs = mlp_backward(net, x, mlp_forward(net, x)[1], dvals[at:at + x.shape[0]])
        for view, g in zip(views[key], gs[:3]):  # b2: its offset cancels in every conditional
            view[...] = g
        at += x.shape[0]
    if not np.isfinite(grad).all():
        bad = next(key for key, gs in views.items() if not all(np.isfinite(g).all() for g in gs))
        raise NonFinite(f"gradient for net {bad} is not finite")
    return total, grad


def _per_net(model: EnergyModel, grad: np.ndarray) -> dict:
    """A flat gradient as views in params() order per net, keyed like model.nets."""
    out, at = {}, 0
    for key in sorted(model.nets):
        out[key] = []
        for p in model.nets[key].params():
            out[key].append(grad[at:at + p.size].reshape(p.shape))
            at += p.size
    return out


def pseudo_loglik(model: EnergyModel, datasets) -> float:
    """Sum over datasets, rows, and variables of log p(x_r | rest; regime)."""
    prep = _prepare(model, datasets)
    return _pll_from_prep(model, prep)[0]


def pll_gradient(model: EnergyModel, datasets) -> dict:
    """Exact gradient of pseudo_loglik per net, keyed like model.nets."""
    prep = _prepare(model, datasets)
    return _per_net(model, _pll_from_prep(model, prep, prep[2])[1])


@dataclass(frozen=True)
class FitLog:
    """Full-data PLL before each step, then the returned model's PLL;
    `regressions` indexes entries more than 1e-3 below the one before."""

    objectives: tuple
    regressions: tuple


def fit(model: EnergyModel, datasets, steps: int = 500, lr: float = 1e-3,
        batch: int | None = None):
    """Ascend the pseudo-log-likelihood with Adam; returns (model, FitLog).

    The input model is untouched; a copy is trained. Full-batch by default;
    with `batch` set, each step draws that many rows (without replacement)
    from every dataset, drawn by a generator seeded with `model.seed`. In
    both modes the log holds steps + 1 full-data objectives: one before
    each step's update, then the returned model's.

    The distinct bin rows and cell designs (see the module docstring) are
    built once per call from all rows. A minibatch step draws raw row
    indices, as if no row were merged, and counts them onto the distinct
    rows (missed ones count 0); every step runs each net forward, one sweep
    per variable over every distinct row, and each net forward again and
    backward on its design, so it also sums the full objective, and hands
    `train` one flat gradient.

    Args:
        model: initialized model to start from.
        datasets: RegimeDataset list covering the training regimes.
        steps: number of Adam updates.
        lr: Adam learning rate (beta1 0.9, beta2 0.999, eps 1e-8).
        batch: rows per dataset per step; None means all rows.

    Raises:
        InvalidSpec: no datasets, negative steps, a learning rate that is
            not finite and positive, or a batch below 1.
        NonFinite: objective or gradient became NaN/inf (step reported).
    """
    if batch is not None and batch < 1:
        raise InvalidSpec("batch must be >= 1")
    trained = model.copy()
    prep = _prepare(trained, datasets)
    counts, inverses = prep[2:]
    rng = np.random.default_rng(model.seed)

    def value_and_grad():
        drawn = counts if batch is None else [
            np.bincount(inv[rng.choice(inv.size, size=min(batch, inv.size), replace=False)],
                        minlength=cnt.size)
            for cnt, inv in zip(counts, inverses)]
        obj, grad = _pll_from_prep(trained, prep, drawn)
        # train minimizes; negation is exact, so this is ascent on the PLL
        return -obj, [-grad]
    trace = train([trained.nets[key] for key in sorted(trained.nets)], value_and_grad, steps, lr,
                  "pseudo-log-likelihood")
    objectives = tuple(-v for v in trace) + (_pll_from_prep(trained, prep)[0],)
    regressions = tuple(i for i in range(1, len(objectives))
                        if objectives[i] < objectives[i - 1] - 1e-3)
    return trained, FitLog(objectives, regressions)


def log_ratio_rows(model: EnergyModel, x, num: RegimeVector, den: RegimeVector) -> np.ndarray:
    """Log unnormalized density ratio, row-wise; basis for stable reweighting."""
    return _log_ratios(model, x, [num], den)[0]


def _log_ratios(model: EnergyModel, x, nums, den: RegimeVector) -> np.ndarray:
    """`log_ratio_rows` toward each of `nums`, one row per numerator, binning
    the rows once and reading each factor's potential once per level pattern.
    Per numerator, each factor adds its numerator term, then subtracts its
    denominator term, as a one-numerator call does."""
    for regime in (*nums, den):
        model.ifm.space.check_regime(regime)
    bins = model.grid.bin_rows(np.atleast_2d(np.asarray(x, dtype=float)))
    delta = np.zeros((len(nums), bins.shape[0]))
    for k, f in enumerate(model.ifm.factors):
        base = den.project(f.intv_scope)
        moved = {}
        for i, num in enumerate(nums):
            pattern = num.project(f.intv_scope)
            if pattern != base:
                moved.setdefault(pattern, (num, []))[1].append(i)
        if moved:
            below = potentials(model, k, den, bins)
        for num, rows in moved.values():
            above = potentials(model, k, num, bins)
            for i in rows:
                delta[i] += above
                delta[i] -= below
    return delta


def model_to_dict(model: EnergyModel) -> dict:
    nets = []
    for key in sorted(model.nets):
        k, value = key
        entry = {"factor": k, "value": list(value)}
        entry.update(mlp_to_dict(model.nets[key]))
        nets.append(entry)
    return {
        "format": MODEL_FORMAT,
        "format_version": FORMAT_VERSION,
        "seed": model.seed,
        "hidden": model.hidden,
        "graph": graph_to_dict(model.ifm),
        "fingerprint": fingerprint(model.ifm),
        "grid": {"edges": [e.tolist() for e in model.grid.edges]},
        "nets": nets,
    }


def model_from_dict(obj: dict) -> EnergyModel:
    """Rebuild a model; ModelFormatError on missing keys, bad shapes, non-finite
    weights, or a fingerprint that is not the graph's."""
    check_format(obj, MODEL_FORMAT, FORMAT_VERSION)
    require_keys(obj, ("seed", "hidden", "graph", "fingerprint", "grid", "nets"), "model file")
    require_keys(obj["grid"], ("edges",), "model grid")
    ifm = parse_graph(obj["graph"])
    try:
        grid = Grid(tuple(np.asarray(e, dtype=float) for e in obj["grid"]["edges"]))
    except (TypeError, ValueError):
        raise ModelFormatError("grid edges must be numeric arrays") from None
    if grid.m != ifm.m:
        raise ModelFormatError("grid and graph disagree on the variable count")
    nets = {}
    for entry in read_list(obj["nets"], "model nets", ModelFormatError):
        require_keys(entry, ("factor", "value"), "net entry")
        value = read_list(entry["value"], "net value", ModelFormatError)
        key = (read_int(entry["factor"], "net factor", ModelFormatError),
               tuple(read_int(v, "net value", ModelFormatError) for v in value))
        if key in nets:
            raise ModelFormatError(f"net {key} appears more than once")
        nets[key] = mlp_from_dict(entry)
    expected = expected_net_keys(ifm)
    if sorted(nets) != sorted(expected):
        raise ModelFormatError("net inventory does not match the graph")
    hidden = read_int(obj["hidden"], "model hidden", ModelFormatError)
    seed = read_int(obj["seed"], "model seed", ModelFormatError)
    for key, net in nets.items():
        k = key[0]
        if net.hidden != hidden or net.in_dim != len(ifm.factors[k].var_scope):
            raise ModelFormatError(f"net {key} has the wrong shape")
    if obj["fingerprint"] != fingerprint(ifm):
        raise ModelFormatError("model fingerprint does not match its graph")
    return EnergyModel(ifm, grid, hidden, nets, seed)


def save_model(path, model: EnergyModel) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh)


def load_model(path) -> EnergyModel:
    return model_from_dict(read_json(path, ModelFormatError))
