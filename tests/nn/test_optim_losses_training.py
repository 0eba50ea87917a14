"""Tests for optimisers, losses, metrics, serialisation and training history."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.nn import metrics
from repro.nn.layers import MLP, Dense
from repro.nn.module import Module, Parameter
from repro.nn.optimizers import (
    Adam,
    ConstantSchedule,
    ExponentialDecay,
    Momentum,
    RMSProp,
    SGD,
    StepDecay,
    clip_gradients_by_norm,
)
from repro.nn.serialization import load_checkpoint, load_parameters, save_checkpoint, save_parameters
from repro.nn.tensor import Tensor
from repro.nn.training import EarlyStopping, History

RNG = np.random.default_rng(21)


class Quadratic(Module):
    """Simple quadratic bowl f(w) = ||w - target||^2 for optimiser tests."""

    def __init__(self, dim=4, target=3.0):
        super().__init__()
        self.w = Parameter(np.zeros(dim))
        self.target = target

    def loss(self) -> Tensor:
        return ((self.w - self.target) ** 2).sum()


@pytest.mark.parametrize("optimizer_cls,kwargs", [
    (SGD, {"learning_rate": 0.1}),
    (Momentum, {"learning_rate": 0.05, "momentum": 0.9}),
    (Momentum, {"learning_rate": 0.05, "momentum": 0.9, "nesterov": True}),
    (RMSProp, {"learning_rate": 0.05}),
    (Adam, {"learning_rate": 0.2}),
])
def test_optimizers_converge_on_quadratic(optimizer_cls, kwargs):
    model = Quadratic()
    optimizer = optimizer_cls(model.parameters(), **kwargs)
    for _ in range(200):
        optimizer.zero_grad()
        loss = model.loss()
        loss.backward()
        optimizer.step()
    np.testing.assert_allclose(model.w.data, 3.0, atol=0.05)


def test_weight_decay_pulls_towards_zero():
    model = Quadratic(target=0.0)
    model.w.data = np.full(4, 5.0)
    optimizer = SGD(model.parameters(), learning_rate=0.01, weight_decay=1.0)
    for _ in range(100):
        optimizer.zero_grad()
        # Loss gradient is zero at w=0 target, decay should still shrink w.
        loss = (model.w * 0.0).sum()
        loss.backward()
        optimizer.step()
    assert np.all(np.abs(model.w.data) < 5.0)


def test_optimizer_requires_parameters():
    with pytest.raises(ValueError):
        SGD([], learning_rate=0.1)


def test_gradient_clipping_scales_norm():
    params = [Parameter(np.zeros(3))]
    params[0].grad = np.array([3.0, 4.0, 0.0])
    norm_before = clip_gradients_by_norm(params, max_norm=1.0)
    assert norm_before == pytest.approx(5.0)
    assert np.linalg.norm(params[0].grad) == pytest.approx(1.0, rel=1e-6)


def test_gradient_clipping_noop_below_threshold():
    params = [Parameter(np.zeros(2))]
    params[0].grad = np.array([0.3, 0.4])
    clip_gradients_by_norm(params, max_norm=10.0)
    np.testing.assert_allclose(params[0].grad, [0.3, 0.4])


def test_gradient_clipping_empty():
    assert clip_gradients_by_norm([Parameter(np.zeros(2))], 1.0) == 0.0


class TestSchedules:
    def test_constant(self):
        schedule = ConstantSchedule(0.01)
        assert schedule(0) == schedule(1000) == 0.01

    def test_exponential_decay(self):
        schedule = ExponentialDecay(1.0, decay_steps=10, decay_rate=0.5)
        assert schedule(10) == pytest.approx(0.5)
        assert schedule(20) == pytest.approx(0.25)

    def test_step_decay(self):
        schedule = StepDecay(1.0, every=5, factor=10.0)
        assert schedule(4) == pytest.approx(1.0)
        assert schedule(5) == pytest.approx(0.1)

    def test_schedule_in_optimizer(self):
        model = Quadratic()
        optimizer = SGD(model.parameters(), learning_rate=ExponentialDecay(0.1, 10, 0.5))
        assert optimizer.learning_rate == pytest.approx(0.1)
        for _ in range(10):
            optimizer.zero_grad()
            model.loss().backward()
            optimizer.step()
        assert optimizer.learning_rate < 0.1

    def test_early_stopping_rejects_nonpositive_patience(self):
        with pytest.raises(ValueError):
            EarlyStopping(patience=0)

    def test_invalid_schedules(self):
        with pytest.raises(ValueError):
            ConstantSchedule(-1.0)
        with pytest.raises(ValueError):
            ExponentialDecay(1.0, 0, 0.5)
        with pytest.raises(ValueError):
            StepDecay(1.0, 5, 0.5)


class TestLosses:
    def test_mse_value(self):
        loss = nn.mse_loss(Tensor([1.0, 2.0]), Tensor([0.0, 0.0]))
        assert loss.item() == pytest.approx(2.5)

    def test_mae_value(self):
        loss = nn.mae_loss(Tensor([1.0, -2.0]), Tensor([0.0, 0.0]))
        assert loss.item() == pytest.approx(1.5)

    def test_huber_quadratic_region(self):
        loss = nn.huber_loss(Tensor([0.5]), Tensor([0.0]), delta=1.0)
        assert loss.item() == pytest.approx(0.125)

    def test_huber_linear_region(self):
        loss = nn.huber_loss(Tensor([3.0]), Tensor([0.0]), delta=1.0)
        assert loss.item() == pytest.approx(2.5)

    def test_huber_invalid_delta(self):
        with pytest.raises(ValueError):
            nn.huber_loss(Tensor([1.0]), Tensor([0.0]), delta=0.0)

    def test_mape(self):
        loss = nn.mape_loss(Tensor([1.1]), Tensor([1.0]))
        assert loss.item() == pytest.approx(0.1, rel=1e-6)

    def test_log_mse_scale_invariance(self):
        small = nn.log_mse_loss(Tensor([0.002]), Tensor([0.001]))
        large = nn.log_mse_loss(Tensor([2.0]), Tensor([1.0]))
        assert small.item() == pytest.approx(large.item(), rel=1e-9)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            nn.mse_loss(Tensor([1.0, 2.0]), Tensor([1.0]))

    def test_losses_differentiable(self):
        for loss_fn in (nn.mse_loss, nn.mae_loss, nn.huber_loss, nn.mape_loss, nn.log_mse_loss):
            pred = Tensor(np.array([1.5, 2.5]), requires_grad=True)
            loss_fn(pred, Tensor([1.0, 2.0])).backward()
            assert pred.grad is not None


class TestMetrics:
    def test_relative_errors_signed(self):
        err = metrics.relative_errors([1.2, 0.8], [1.0, 1.0])
        np.testing.assert_allclose(err, [0.2, -0.2], atol=1e-12)

    def test_mean_relative_error(self):
        assert metrics.mean_relative_error([1.2, 0.8], [1.0, 1.0]) == pytest.approx(0.2)

    def test_mape_is_percent(self):
        assert metrics.mean_absolute_percentage_error([1.1], [1.0]) == pytest.approx(10.0)

    def test_r2_perfect(self):
        assert metrics.r2_score([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0)

    def test_r2_mean_predictor_zero(self):
        targets = [1.0, 2.0, 3.0]
        assert metrics.r2_score([2.0, 2.0, 2.0], targets) == pytest.approx(0.0)

    def test_pearson_linear(self):
        x = np.linspace(0, 1, 20)
        assert metrics.pearson_correlation(2 * x + 1, x) == pytest.approx(1.0)

    def test_pearson_degenerate(self):
        assert metrics.pearson_correlation([1.0, 1.0], [1.0, 2.0]) == 0.0

    def test_rmse(self):
        assert metrics.root_mean_squared_error([3.0], [0.0]) == pytest.approx(3.0)

    def test_cdf_monotonic_and_normalised(self):
        values = RNG.normal(size=500)
        xs, cdf = metrics.cumulative_distribution(values, num_points=100)
        assert np.all(np.diff(cdf) >= 0)
        assert cdf[-1] == pytest.approx(1.0)
        assert xs[0] == pytest.approx(values.min())

    def test_cdf_empty_raises(self):
        with pytest.raises(ValueError):
            metrics.cumulative_distribution([])

    def test_quantiles(self):
        out = metrics.error_quantiles(np.arange(101))
        assert out["p50"] == pytest.approx(50.0)
        assert out["p99"] == pytest.approx(99.0)

    def test_mismatched_sizes_raise(self):
        with pytest.raises(ValueError):
            metrics.mean_relative_error([1.0], [1.0, 2.0])

    @given(st.lists(st.floats(0.1, 100), min_size=1, max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_relative_error_zero_for_perfect_predictions(self, targets):
        err = metrics.relative_errors(targets, targets)
        np.testing.assert_allclose(err, 0.0, atol=1e-12)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        model = MLP(3, [8], 1, rng=np.random.default_rng(0))
        path = save_parameters(model, str(tmp_path / "model"))
        clone = MLP(3, [8], 1, rng=np.random.default_rng(99))
        load_parameters(clone, path)
        x = Tensor(RNG.normal(size=(4, 3)))
        np.testing.assert_allclose(model(x).data, clone(x).data)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_parameters(MLP(2, [2], 1), str(tmp_path / "missing"))

    def test_strict_mismatch_raises(self, tmp_path):
        model = Dense(2, 2)
        path = save_parameters(model, str(tmp_path / "dense"))
        other = Dense(3, 2)
        with pytest.raises((KeyError, ValueError)):
            load_parameters(other, path)

    def test_checkpoint_metadata(self, tmp_path):
        model = Dense(2, 2)
        save_checkpoint(model, str(tmp_path / "ckpt"), metadata={"epoch": 7})
        meta = load_checkpoint(Dense(2, 2), str(tmp_path / "ckpt"))
        assert meta["epoch"] == 7

    def test_history_dict(self):
        history = History()
        history.record(1, 0.5, 0.6, 0.1)
        out = history.as_dict()
        assert out["train_loss"] == [0.5]
        assert out["val_loss"] == [0.6]

    def test_state_dict_load_shape_check(self):
        model = Dense(2, 2)
        state = model.state_dict()
        state["weight"] = np.zeros((5, 5))
        with pytest.raises(ValueError):
            model.load_state_dict(state)


class TestModuleBasics:
    def test_named_parameters_nested(self):
        model = MLP(2, [3], 1, rng=np.random.default_rng(0))
        names = [name for name, _ in model.named_parameters()]
        assert any("layer0" in n for n in names)
        assert all("." in n for n in names)

    def test_num_parameters(self):
        model = Dense(3, 2)
        assert model.num_parameters() == 3 * 2 + 2

    def test_zero_grad_clears(self):
        model = Dense(2, 1)
        (model(Tensor(np.ones((1, 2)))) ** 2).sum().backward()
        assert model.weight.grad is not None
        model.zero_grad()
        assert model.weight.grad is None

    def test_train_eval_propagates(self):
        model = nn.Sequential([Dense(2, 2), Dropout(0.5)])
        model.eval()
        assert not model.layers[1].training
        model.train()
        assert model.layers[1].training


from repro.nn.layers import Dropout  # noqa: E402  (used in TestModuleBasics)


class TestOptimizerStateDict:
    """The optimiser state must round-trip its moment buffers, not just the
    step count — resuming Adam with zeroed moments applies the bias
    correction 1/(1 - beta**step_count) to the wrong statistics."""

    @pytest.mark.parametrize("optimizer_cls,buffer_names", [
        (SGD, ()),
        (Momentum, ("velocity",)),
        (RMSProp, ("mean_square",)),
        (Adam, ("first_moment", "second_moment")),
    ])
    def test_state_round_trip_restores_buffers(self, optimizer_cls, buffer_names):
        model = Quadratic()
        optimizer = optimizer_cls(model.parameters(), learning_rate=0.05)
        for _ in range(5):
            optimizer.zero_grad()
            model.loss().backward()
            optimizer.step()
        state = optimizer.state_dict()
        assert state["step_count"] == 5
        for name in buffer_names:
            assert name in state
            assert any(np.abs(buffer).max() > 0 for buffer in state[name])

        fresh_model = Quadratic()
        fresh = optimizer_cls(fresh_model.parameters(), learning_rate=0.05)
        fresh.load_state_dict(state)
        assert fresh.step_count == 5
        for name in buffer_names:
            for restored, original in zip(getattr(fresh, f"_{name}"),
                                          getattr(optimizer, f"_{name}")):
                assert np.array_equal(restored, original)

    def test_state_dict_is_a_copy(self):
        model = Quadratic()
        optimizer = Adam(model.parameters(), learning_rate=0.05)
        optimizer.zero_grad()
        model.loss().backward()
        optimizer.step()
        state = optimizer.state_dict()
        state["first_moment"][0][...] = 123.0
        assert np.abs(optimizer._first_moment[0]).max() < 100

    def test_resumed_adam_matches_uninterrupted_run(self):
        def run(steps, optimizer=None, model=None):
            model = model if model is not None else Quadratic()
            optimizer = optimizer if optimizer is not None else Adam(
                model.parameters(), learning_rate=0.1)
            for _ in range(steps):
                optimizer.zero_grad()
                model.loss().backward()
                optimizer.step()
            return model, optimizer

        straight_model, _ = run(10)
        half_model, half_optimizer = run(5)
        state = half_optimizer.state_dict()
        resumed_model = Quadratic()
        resumed_model.load_state_dict(half_model.state_dict())
        resumed_optimizer = Adam(resumed_model.parameters(), learning_rate=0.1)
        resumed_optimizer.load_state_dict(state)
        run(5, optimizer=resumed_optimizer, model=resumed_model)
        assert np.array_equal(resumed_model.w.data, straight_model.w.data)

    def test_missing_buffers_raise(self):
        model = Quadratic()
        optimizer = Adam(model.parameters())
        with pytest.raises(KeyError, match="first_moment"):
            optimizer.load_state_dict({"step_count": 3})

    def test_shape_mismatch_raises(self):
        small = Quadratic(dim=2)
        large = Quadratic(dim=4)
        source = Momentum(large.parameters(), learning_rate=0.05)
        source.zero_grad()
        large.loss().backward()
        source.step()
        target = Momentum(small.parameters(), learning_rate=0.05)
        with pytest.raises(ValueError, match="shape"):
            target.load_state_dict(source.state_dict())

    def test_buffer_count_mismatch_raises(self):
        model = Quadratic()
        optimizer = Momentum(model.parameters(), learning_rate=0.05)
        state = optimizer.state_dict()
        state["velocity"] = state["velocity"] + [np.zeros(4)]
        with pytest.raises(ValueError, match="buffers"):
            optimizer.load_state_dict(state)
