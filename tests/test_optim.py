"""The Adam update against hand-computed traces, and ``nn.fit``'s
epoch-end weight averaging."""

import numpy as np
import pytest

from boneage import nn, optim
from boneage import tensor as T
from boneage.errors import ContractError, TrainingError
from boneage.optim import TrainSettings
from boneage.tensor import Tensor

from reference import adam_trace_ref


def _step_scalar(lr, grads):
    params = {"p": Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)}
    state = optim.OptimizerState(learning_rate=lr)
    trace = []
    for g in grads:
        params["p"].grad = np.array([g], dtype=np.float32)
        optim.optimizer_step(params, state)
        trace.append(float(params["p"].data[0]))
    return trace


def test_adaptive_matches_hand_trace():
    """With constant unit gradients and lr 0.1 the bias-corrected step is
    almost exactly lr each time: 1.0 -> 0.9 -> 0.8 -> 0.7."""
    got = _step_scalar(0.1, [1.0, 1.0, 1.0])
    np.testing.assert_allclose(got, [0.9, 0.8, 0.7], atol=1e-5)
    want = adam_trace_ref(1.0, [1.0, 1.0, 1.0], 0.1)
    # the state buffers are float32, so allow a few ulps against the
    # float64 trace
    np.testing.assert_allclose(got, want, atol=1e-5)


@pytest.mark.parametrize("seed", range(10))
def test_adaptive_matches_reference_on_random_gradients(seed):
    rng = np.random.default_rng(seed)
    grads = rng.standard_normal(8).tolist()
    got = _step_scalar(0.03, grads)
    want = adam_trace_ref(1.0, grads, 0.03)
    np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)


def test_learning_rate_must_be_positive():
    with pytest.raises(ContractError):
        optim.OptimizerState(learning_rate=0.0)


def test_missing_gradients_leave_parameters_untouched():
    params = {
        "a": Tensor(np.array([1.0], dtype=np.float32), requires_grad=True),
        "b": Tensor(np.array([2.0], dtype=np.float32), requires_grad=True),
    }
    params["a"].grad = np.array([1.0], dtype=np.float32)
    state = optim.OptimizerState(learning_rate=0.5)
    optim.optimizer_step(params, state)
    assert params["a"].data[0] == pytest.approx(adam_trace_ref(1.0, [1.0], 0.5)[0], abs=1e-5)
    assert params["b"].data[0] == 2.0
    assert set(state.m) == {"a"}


def test_shape_mismatch_rejected():
    params = {"a": Tensor(np.zeros((2, 2)), requires_grad=True)}
    params["a"].grad = np.zeros(3, dtype=np.float32)
    state = optim.OptimizerState(learning_rate=0.1)
    with pytest.raises(ContractError):
        optim.optimizer_step(params, state)


def test_non_finite_gradient_raises_naming_the_parameter():
    params = {"fc.w": Tensor(np.zeros(2), requires_grad=True)}
    params["fc.w"].grad = np.array([np.nan, 0.0], dtype=np.float32)
    state = optim.OptimizerState(learning_rate=0.1)
    with pytest.raises(TrainingError, match="fc.w"):
        optim.optimizer_step(params, state)


def test_zero_grads_clears_every_gradient():
    p = Tensor(np.zeros(2), requires_grad=True)
    q = Tensor(np.zeros(2), requires_grad=True)
    p.grad = np.ones(2, dtype=np.float32)
    optim.zero_grads({"p": p, "q": q})
    assert p.grad is None and q.grad is None


def _fit_toy(epochs, learning_rate=0.05, n=12):
    """A dense layer fitted by ``nn.fit`` on ``n`` samples; returns its
    parameters, their values at each epoch end (read from the log hook,
    which runs then) and the loss history."""
    rng = np.random.default_rng(11)
    x = rng.standard_normal((n, 3)).astype(np.float32)
    y = rng.standard_normal((n, 2)).astype(np.float32)
    params = {
        "w": Tensor(rng.standard_normal((3, 2)) * 0.1, requires_grad=True),
        "b": Tensor(np.zeros(2), requires_grad=True),
    }
    ends = []

    def loss_fn(idx):
        return T.loss(T.dense(T.Tensor(x[idx]), params["w"], params["b"]), T.Tensor(y[idx]), "mse")

    def log_fn(line):
        ends.append({name: p.data.copy() for name, p in params.items()})

    settings = TrainSettings(epochs=epochs, learning_rate=learning_rate, batch_size=4)
    history = nn.fit(params, len(x), loss_fn, settings, seed=3, label="toy", log_fn=log_fn)
    return params, ends, history


@pytest.mark.parametrize("epochs", [2, 5, 6])
def test_fit_returns_the_mean_of_the_later_half_epoch_end_weights(epochs):
    params, ends, history = _fit_toy(epochs)
    assert len(ends) == len(history) == epochs
    for name, p in params.items():
        window = np.stack([end[name] for end in ends[epochs // 2 :]]).astype(np.float64)
        assert p.data.dtype == np.float32
        np.testing.assert_allclose(p.data, window.mean(axis=0), rtol=1e-6, atol=1e-7)
        if epochs > 2:
            assert not np.array_equal(p.data, ends[-1][name])


def test_fit_with_one_epoch_returns_the_final_weights():
    params, ends, _ = _fit_toy(1)
    for name, p in params.items():
        assert p.data.tobytes() == ends[0][name].tobytes()


def test_fit_refuses_to_return_weights_that_hold_nan_or_inf():
    # 3.4e38 is finite in float32, but its step overflows for a gradient
    # above about 1; with one batch per epoch there is no later loss to
    # see the weights that step leaves
    with pytest.raises(TrainingError, match=r"^toy training ended with NaN or inf in parameter 'w'$"):
        _fit_toy(1, learning_rate=3.4e38, n=4)
