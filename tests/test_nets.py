"""Small MLP forward/backward, the Adam updater and the training loop."""

import numpy as np
import pytest

from regimecast import energy, estimators, simbench
from regimecast.errors import InvalidSpec, NonFinite
from regimecast.model import RegimeDataset
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
    rows = rng.standard_normal((6, 2))
    h_ref = np.tanh(rows @ net.w1.T + net.b1)
    for x in (rows, np.asfortranarray(rows)):
        out, h = mlp_forward(net, x)
        # the hidden layer is hidden-major: (hidden, n)
        np.testing.assert_allclose(h, h_ref.T, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(out, h_ref @ net.w2 + float(net.b2), rtol=1e-12, atol=0.0)


def forward_reference(net, x):
    """Row-major reference: the hidden layer as (n, hidden)."""
    h = np.tanh(x @ net.w1.T + net.b1)
    return h @ net.w2 + float(net.b2), h


def backward_reference(net, x, h, dout):
    dz = (dout[:, None] * net.w2) * (1.0 - h * h)
    return [dz.T @ x, dz.sum(axis=0), h.T @ dout, np.asarray(dout.sum())]


@pytest.mark.parametrize("n", [0, 1, 1400])
@pytest.mark.parametrize("in_dim", [0, 1, 4, 10])
@pytest.mark.parametrize("hidden", [1, 6])
def test_kernels_match_the_reference_and_write_no_input(n, in_dim, hidden):
    rng = np.random.default_rng(100 * n + 10 * in_dim + hidden)
    net = init_mlp(in_dim, hidden, rng, out_scale=0.8)
    rows = rng.standard_normal((n, in_dim))
    dout = rng.standard_normal(n)
    ref_out, ref_h = forward_reference(net, rows)
    ref_grads = backward_reference(net, rows, ref_h, dout)

    for x in (rows, np.asfortranarray(rows)):
        before = [a.copy() for a in (x, dout, *net.params())]
        out, h = mlp_forward(net, x)
        h_seen = h.copy()
        grads = mlp_backward(net, x, h, dout)

        # the kernels add in another order than the reference, and C- and
        # F-ordered x differ in the last bits, so equal only to rounding
        for got, ref in zip([h, out, *grads], [ref_h.T, ref_out, *ref_grads]):
            assert np.shape(got) == np.shape(ref)
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)
        for a, b in zip((x, dout, *net.params(), h), (*before, h_seen)):
            assert np.array_equal(a, b)


def test_training_loops_and_table_builds_lay_their_rows_out_column_major(monkeypatch):
    bundle = simbench.builtin_structure("sachs")
    truth = simbench.make_dag_truth(bundle, seed=29)
    data = []
    for i, regime in enumerate(list(bundle.train)[:3]):
        x = truth.sample(regime, 30, seed=31 + i)
        data.append(RegimeDataset(regime, x, np.tanh(x[:, 0]) + x[:, 1]))
    model = energy.new_model(bundle.ifm, energy.discretize(data, bins=4), hidden=3, seed=1)
    k = max(range(len(bundle.ifm.factors)), key=lambda j: len(bundle.ifm.factors[j].var_scope))

    seen = []

    def recording(net, x):
        seen.append((x.shape, net.in_dim, x.flags.f_contiguous))
        return mlp_forward(net, x)

    for module in (energy, estimators, simbench):
        monkeypatch.setattr(module, "mlp_forward", recording)
    runs = {
        "energy.fit": lambda: energy.fit(model, data, steps=1, lr=1e-2),
        "fit_outcome": lambda: estimators.fit_outcome(data, hidden=3, steps=1),
        "fit_dag": lambda: simbench.fit_dag(bundle, data, hidden=3, steps=1),
        "factor_table": lambda: energy.factor_table(model, k, bundle.train[0]),
    }
    for name, run in runs.items():
        seen.clear()
        run()
        assert seen, name
        for shape, in_dim, f_contiguous in seen:
            assert len(shape) == 2 and shape[1] == in_dim, name
            assert f_contiguous, f"{name} passed {shape} rows that are not column-major"
        # a (rows, in_dim) array with both above 1 is column-major only by construction
        assert any(rows > 1 and in_dim > 1 for (rows, _), in_dim, _ in seen), name


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(2)
    for in_dim, n in ((1, 8), (3, 8), (0, 8), (3, 1)):
        net = init_mlp(in_dim, 4, rng, out_scale=0.7)
        x = rng.standard_normal((n, in_dim))
        dout = rng.standard_normal(n)

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
    opt = Adam(p, lr=0.01)
    opt.step(np.array([0.3, -0.7]))
    assert np.allclose(np.abs(p - np.array([1.0, -2.0])), 0.01, atol=1e-5)
    # descent moves against the gradient sign
    assert p[0] < 1.0 and p[1] > -2.0


def test_adam_reference_two_steps():
    # hand-rolled reference with beta1=0.9, beta2=0.999, eps=1e-8
    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
    p = np.array([0.5])
    opt = Adam(p, lr=lr)
    m = v = 0.0
    ref = 0.5
    for t, g in enumerate([0.4, -0.2], start=1):
        opt.step(np.array([g]))
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        ref -= lr * mhat / (np.sqrt(vhat) + eps)
    assert np.allclose(p[0], ref, atol=1e-12)


def _quadratic(nets, target):
    """value_and_grad of sum((p - target)^2) over the nets' params, with a call log."""
    calls = []

    def value_and_grad():
        calls.append(len(calls))
        params = [p for net in nets for p in net.params()]
        return (float(sum(np.sum((p - target) ** 2) for p in params)),
                [2.0 * (p - target) for p in params])

    return value_and_grad, calls


def _net(in_dim=1, hidden=2, seed=0):
    return init_mlp(in_dim, hidden, np.random.default_rng(seed), out_scale=0.5)


def _same(a, b):
    return all(np.array_equal(p, q) and p.shape == q.shape for p, q in zip(a.params(), b.params()))


def test_train_with_zero_steps_never_calls_the_closure():
    net = _net()
    start = net.copy()
    value_and_grad, calls = _quadratic([net], 0.0)
    train([net], value_and_grad, 0, 0.1, "loss")
    assert calls == []
    assert _same(net, start)


def test_train_returns_the_objective_before_each_update():
    net = _net()
    value_and_grad, _ = _quadratic([net], 0.0)
    seen = []

    def logged():
        obj, grads = value_and_grad()
        seen.append(obj)
        return obj, grads

    trace = train([net], logged, 4, 0.1, "loss")
    assert trace == tuple(seen) and len(trace) == 4
    assert trace[-1] < trace[0]
    assert train([net], logged, 0, 0.1, "loss") == ()


@pytest.mark.parametrize("steps, lr, says", [
    (-1, 0.1, "steps must be >= 0, got -1"),
    (3, float("nan"), "learning rate"),
    (3, float("inf"), "learning rate"),
    (3, 0.0, "learning rate"),
    (3, -1e-3, "learning rate"),
])
def test_train_rejects_bad_schedules(steps, lr, says):
    net = _net()
    start = net.copy()
    value_and_grad, calls = _quadratic([net], 0.0)
    with pytest.raises(InvalidSpec, match=says):
        train([net], value_and_grad, steps, lr, "loss")
    assert calls == []
    assert _same(net, start)


def test_train_names_the_step_of_a_non_finite_objective():
    net = _net()
    values = iter([1.0, 0.5, float("inf")])
    with pytest.raises(NonFinite, match=r"^toy loss is not finite \(step 2\)$"):
        train([net], lambda: (next(values), [np.ones_like(p) for p in net.params()]),
              5, 0.1, "toy loss")


def test_train_catches_parameters_that_diverge_on_the_last_step():
    net = _net()
    # the objective stays finite, so only the updated parameters show the divergence
    with np.errstate(all="ignore"), \
            pytest.raises(NonFinite, match=r"^toy loss parameters are not finite after step 2$"):
        train([net], lambda: (1.0, [np.full_like(p, np.inf) for p in net.params()]),
              3, 0.1, "toy loss")


def test_train_appends_the_step_to_a_closure_non_finite():
    net = _net()
    calls = []

    def value_and_grad():
        calls.append(None)
        if len(calls) == 2:
            raise NonFinite("gradient for net 3 is not finite")
        return 0.0, [np.ones_like(p) for p in net.params()]

    with pytest.raises(NonFinite, match=r"^gradient for net 3 is not finite \(step 1\)$"):
        train([net], value_and_grad, 5, 0.1, "loss")


def _per_array_adam(params, grads_of, steps, lr):
    """Adam with one (m, v) pair per parameter array, updated array by array."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    ms = [np.zeros_like(p) for p in params]
    vs = [np.zeros_like(p) for p in params]
    for t in range(1, steps + 1):
        for p, g, m, v in zip(params, grads_of(), ms, vs):
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * (g * g)
            mhat = m / (1 - b1 ** t)
            vhat = v / (1 - b2 ** t)
            p -= lr * mhat / (np.sqrt(vhat) + eps)


def _regression(nets, xs, ys):
    """Summed squared error of each net on its own rows, gradients net after net."""
    def value_and_grad():
        loss, grads = 0.0, []
        for net, x, y in zip(nets, xs, ys):
            out, h = mlp_forward(net, x)
            loss += float(np.sum((out - y) ** 2))
            grads += mlp_backward(net, x, h, 2.0 * (out - y))
        return loss, grads

    return value_and_grad


def test_train_matches_a_hand_written_adam_loop():
    rng = np.random.default_rng(5)
    start = [init_mlp(d, h, rng, out_scale=0.8) for d, h in ((0, 3), (1, 2), (3, 4), (1, 5))]
    xs = [rng.standard_normal((6, net.in_dim)) for net in start]
    ys = [rng.standard_normal(6) for _ in start]

    ours = [net.copy() for net in start]
    closure, calls = _regression(ours, xs, ys), []

    def counted():
        calls.append(None)
        return closure()

    train(ours, counted, 7, 0.03, "loss")

    ref = [net.copy() for net in start]
    ref_closure = _regression(ref, xs, ys)
    _per_array_adam([p for net in ref for p in net.params()], lambda: ref_closure()[1],
                    7, 0.03)

    assert len(calls) == 7
    for a, b, s in zip(ours, ref, start):
        assert _same(a, b)
        assert a.b2.shape == () and not _same(a, s)
    # every array of every net is a view of one vector
    flat = ours[0].w1.base
    assert flat.ndim == 1 and flat.size == sum(p.size for net in ours for p in net.params())
    assert all(p.base is flat for net in ours for p in net.params())
