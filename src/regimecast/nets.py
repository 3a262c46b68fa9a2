"""One-hidden-layer nets with hand-written backprop, Adam, and the one training loop.

Everything downstream (factor potentials, outcome regressors, simulator
equations) uses this same shape: tanh hidden layer, linear scalar output.
Zero-input nets are allowed and reduce to a learnable constant path.

Layout: the kernels take rows x of shape (n, in_dim) in any memory order and
keep the hidden layer hidden-major, h of shape (hidden, n), so the long
row axis is the contiguous one. A caller that runs the same x on every
step lays it out once in column-major (Fortran) order, where x.T is
contiguous for both matrix products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, ModelFormatError, NonFinite, require_keys


@dataclass
class Mlp:
    w1: np.ndarray  # (hidden, in_dim)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden,)
    b2: np.ndarray  # scalar, kept 0-d for uniform optimizer handling

    @property
    def in_dim(self) -> int:
        return self.w1.shape[1]

    @property
    def hidden(self) -> int:
        return self.w1.shape[0]

    def params(self) -> list:
        return [self.w1, self.b1, self.w2, self.b2]

    def copy(self) -> "Mlp":
        return Mlp(self.w1.copy(), self.b1.copy(), self.w2.copy(), self.b2.copy())


def init_mlp(in_dim: int, hidden: int, rng: np.random.Generator, out_scale: float = 0.0) -> Mlp:
    """Fresh net; hidden layer uniform in +-1/sqrt(fan_in), output scaled.

    With out_scale 0 the net is identically zero, which downstream code
    relies on (a zero potential is the uniform distribution, a zero
    regressor predicts 0). Raises InvalidSpec for a hidden width below 1.
    """
    if hidden < 1:
        raise InvalidSpec("hidden width must be >= 1")
    bound = 1.0 / np.sqrt(max(in_dim, 1))
    w1 = rng.uniform(-bound, bound, size=(hidden, in_dim))
    b1 = rng.uniform(-bound, bound, size=hidden)
    if out_scale == 0.0:
        w2 = np.zeros(hidden)
        b2 = np.zeros(())
    else:
        w2 = rng.normal(0.0, out_scale / np.sqrt(hidden), size=hidden)
        b2 = np.asarray(rng.normal(0.0, out_scale))
    return Mlp(w1, b1, w2, np.asarray(b2, dtype=float))


def mlp_forward(net: Mlp, x: np.ndarray):
    """Evaluate on rows x (n, in_dim); returns (outputs (n,), hidden (H, n)),
    the hidden array being the product `w1 @ x.T` with bias and tanh applied in place."""
    h = net.w1 @ x.T
    h += net.b1[:, None]
    np.tanh(h, out=h)
    return net.w2 @ h + float(net.b2), h


def mlp_backward(net: Mlp, x: np.ndarray, h: np.ndarray, dout: np.ndarray) -> list:
    """Gradients of sum(dout * output) w.r.t. params, same order as params();
    the first-layer reductions are matrix products scaled by w2 afterwards,
    and x, h, dout and the net are not written."""
    gw2 = h @ dout
    gb2 = np.asarray(dout.sum())
    dz = h * h
    np.subtract(1.0, dz, out=dz)
    dz *= dout
    gw1 = dz @ x
    gw1 *= net.w2[:, None]
    gb1 = dz @ np.ones(dz.shape[1])
    gb1 *= net.w2
    return [gw1, gb1, gw2, gb2]


def mlp_to_dict(net: Mlp) -> dict:
    return {
        "w1": net.w1.tolist(),
        "b1": net.b1.tolist(),
        "w2": net.w2.tolist(),
        "b2": float(net.b2),
    }


def mlp_from_dict(obj: dict) -> Mlp:
    """Rebuild a net; ModelFormatError on missing keys, bad shapes or non-finite weights."""
    require_keys(obj, ("w1", "b1", "w2", "b2"), "net")
    try:
        w1, b1, w2, b2 = (np.asarray(obj[k], dtype=float) for k in ("w1", "b1", "w2", "b2"))
    except (TypeError, ValueError):
        raise ModelFormatError("net weights must be numeric arrays") from None
    # a flat w1 is read row-major as (hidden, in_dim)
    if w1.ndim != 2 and b1.size and w1.size % b1.size == 0:
        w1 = w1.reshape(b1.size, -1)
    if (w1.ndim != 2 or b1.ndim != 1 or w1.shape[0] != b1.size
            or w2.shape != b1.shape or b2.shape != ()):
        raise ModelFormatError("net weights have inconsistent shapes")
    if not all(np.all(np.isfinite(p)) for p in (w1, b1, w2, b2)):
        raise ModelFormatError("net weights must be finite")
    return Mlp(w1, b1, w2, b2)


class Adam:
    """Standard Adam over one flat parameter array, updated in place."""

    def __init__(self, params: np.ndarray, lr: float = 1e-3):
        self.params = params
        self.lr = lr
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.t = 0

    def step(self, grads: np.ndarray) -> None:
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        # a diverging fit overflows here; train reports it as NonFinite
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            self.m *= b1
            self.m += (1 - b1) * grads
            self.v *= b2
            self.v += (1 - b2) * (grads * grads)
            mhat = self.m / (1 - b1 ** self.t)
            vhat = self.v / (1 - b2 ** self.t)
            self.params -= self.lr * mhat / (np.sqrt(vhat) + eps)


def train(nets: list, value_and_grad, steps: int, lr: float, what: str) -> tuple:
    """Adam descent on the nets, whose params() are rebound as views of one vector.

    `value_and_grad()` gives (objective, grads in params() order, net after net).
    Returns the objective of every step, each taken before its update.
    InvalidSpec for a bad schedule. A NonFinite names its step, from 0:
    "<what> is not finite (step N)", or the closure's own with " (step N)" added;
    "<what> parameters are not finite after step N" when the last update left any.
    """
    if steps < 0:
        raise InvalidSpec(f"steps must be >= 0, got {steps}")
    if not (math.isfinite(lr) and lr > 0):
        raise InvalidSpec(f"learning rate must be finite and > 0, got {lr}")
    flat = np.concatenate([p for net in nets for p in net.params()], axis=None)
    at = 0
    for net in nets:
        for name, p in zip(("w1", "b1", "w2", "b2"), net.params()):
            setattr(net, name, flat[at:at + p.size].reshape(p.shape))
            at += p.size
    opt = Adam(flat, lr=lr)
    trace = []
    for step in range(steps):
        try:
            obj, grads = value_and_grad()
        except NonFinite as exc:
            raise NonFinite(f"{exc} (step {step})") from None
        if not math.isfinite(obj):
            raise NonFinite(f"{what} is not finite (step {step})")
        trace.append(obj)
        opt.step(np.concatenate(grads, axis=None))
    if steps and not np.isfinite(flat).all():
        raise NonFinite(f"{what} parameters are not finite after step {steps - 1}")
    return tuple(trace)
