"""Small MLP forward/backward, the Adam updater and the training loop."""

import numpy as np
import pytest

from regimecast.errors import InvalidSpec, NonFinite
from regimecast.nets import (
    Adam,
    init_mlp,
    mlp_backward,
    mlp_forward,
    mlp_from_dict,
    mlp_to_dict,
    train,
)


def test_zero_output_scale_gives_zero_function():
    rng = np.random.default_rng(0)
    net = init_mlp(3, 5, rng, out_scale=0.0)
    out, _ = mlp_forward(net, rng.standard_normal((10, 3)))
    assert np.array_equal(out, np.zeros(10))


def test_forward_matches_manual_formula():
    rng = np.random.default_rng(1)
    net = init_mlp(2, 4, rng, out_scale=1.0)
    x = rng.standard_normal((6, 2))
    out, h = mlp_forward(net, x)
    h_ref = np.tanh(x @ net.w1.T + net.b1)
    assert np.allclose(h, h_ref)
    assert np.allclose(out, h_ref @ net.w2 + float(net.b2))


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(2)
    for in_dim in (1, 3):
        net = init_mlp(in_dim, 4, rng, out_scale=0.7)
        x = rng.standard_normal((8, in_dim))
        dout = rng.standard_normal(8)

        _, h = mlp_forward(net, x)
        grads = mlp_backward(net, x, h, dout)
        params = net.params()

        def objective():
            out, _ = mlp_forward(net, x)
            return float(dout @ out)

        eps = 1e-6
        for p, g in zip(params, grads):
            flat_p = p.reshape(-1)
            flat_g = np.asarray(g).reshape(-1)
            for i in range(flat_p.size):
                orig = flat_p[i]
                flat_p[i] = orig + eps
                up = objective()
                flat_p[i] = orig - eps
                dn = objective()
                flat_p[i] = orig
                fd = (up - dn) / (2 * eps)
                assert abs(fd - flat_g[i]) < 1e-5 * max(1.0, abs(fd))


def test_zero_input_net_is_constant():
    rng = np.random.default_rng(3)
    net = init_mlp(0, 4, rng, out_scale=1.0)
    out, _ = mlp_forward(net, np.zeros((5, 0)))
    assert np.allclose(out, out[0])


def test_serialization_round_trip():
    rng = np.random.default_rng(4)
    for in_dim in (0, 2):
        net = init_mlp(in_dim, 3, rng, out_scale=0.5)
        back = mlp_from_dict(mlp_to_dict(net))
        assert np.array_equal(back.w1, net.w1)
        assert np.array_equal(back.b1, net.b1)
        assert np.array_equal(back.w2, net.w2)
        assert np.array_equal(back.b2, net.b2)


def test_adam_first_step_size_is_lr():
    # with fresh moments the first update moves each coordinate by ~lr
    p = np.array([1.0, -2.0])
    opt = Adam([p], lr=0.01)
    opt.step([np.array([0.3, -0.7])])
    assert np.allclose(np.abs(p - np.array([1.0, -2.0])), 0.01, atol=1e-5)
    # descent moves against the gradient sign
    assert p[0] < 1.0 and p[1] > -2.0


def test_adam_maximize_flips_direction():
    p = np.array([0.0])
    Adam([p], lr=0.1, maximize=True).step([np.array([1.0])])
    assert p[0] > 0

    q = np.array([0.0])
    Adam([q], lr=0.1).step([np.array([1.0])])
    assert q[0] < 0


def test_adam_reference_two_steps():
    # hand-rolled reference with beta1=0.9, beta2=0.999, eps=1e-8
    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
    p = np.array([0.5])
    opt = Adam([p], lr=lr)
    m = v = 0.0
    ref = 0.5
    for t, g in enumerate([0.4, -0.2], start=1):
        opt.step([np.array([g])])
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        ref -= lr * mhat / (np.sqrt(vhat) + eps)
    assert np.allclose(p[0], ref, atol=1e-12)


def _quadratic(params, target):
    """value_and_grad of sum((p - target)^2) over the params, with a call log."""
    calls = []

    def value_and_grad():
        calls.append(len(calls))
        return (float(sum(np.sum((p - target) ** 2) for p in params)),
                [2.0 * (p - target) for p in params])

    return value_and_grad, calls


def test_train_with_zero_steps_never_calls_the_closure():
    p = np.array([1.0, 2.0])
    value_and_grad, calls = _quadratic([p], 0.0)
    train([p], value_and_grad, 0, 0.1, "loss")
    assert calls == []
    assert np.array_equal(p, [1.0, 2.0])


@pytest.mark.parametrize("steps, lr, says", [
    (-1, 0.1, "steps must be >= 0, got -1"),
    (3, float("nan"), "learning rate"),
    (3, float("inf"), "learning rate"),
    (3, 0.0, "learning rate"),
    (3, -1e-3, "learning rate"),
])
def test_train_rejects_bad_schedules(steps, lr, says):
    p = np.array([1.0])
    value_and_grad, calls = _quadratic([p], 0.0)
    with pytest.raises(InvalidSpec, match=says):
        train([p], value_and_grad, steps, lr, "loss")
    assert calls == []


def test_train_names_the_step_of_a_non_finite_objective():
    p = np.array([1.0])
    values = iter([1.0, 0.5, float("inf")])
    with pytest.raises(NonFinite, match=r"^toy loss is not finite \(step 2\)$"):
        train([p], lambda: (next(values), [np.ones(1)]), 5, 0.1, "toy loss")


def test_train_appends_the_step_to_a_closure_non_finite():
    p = np.array([1.0])
    calls = []

    def value_and_grad():
        calls.append(None)
        if len(calls) == 2:
            raise NonFinite("gradient for net 3 is not finite")
        return 0.0, [np.ones(1)]

    with pytest.raises(NonFinite, match=r"^gradient for net 3 is not finite \(step 1\)$"):
        train([p], value_and_grad, 5, 0.1, "loss")


@pytest.mark.parametrize("maximize", [False, True])
def test_train_matches_a_hand_written_adam_loop(maximize):
    rng = np.random.default_rng(5)
    start = [rng.standard_normal((3, 2)), rng.standard_normal(3), np.asarray(0.7)]
    target = rng.standard_normal()

    ours = [q.copy() for q in start]
    value_and_grad, calls = _quadratic(ours, target)
    train(ours, value_and_grad, 7, 0.03, "loss", maximize=maximize)

    ref = [q.copy() for q in start]
    opt = Adam(ref, lr=0.03, maximize=maximize)
    for _ in range(7):
        opt.step([2.0 * (q - target) for q in ref])

    assert len(calls) == 7
    for a, b in zip(ours, ref):
        assert np.array_equal(a, b)
