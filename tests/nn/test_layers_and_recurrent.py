"""Tests for dense layers, normalisation, embeddings and recurrent cells."""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn.layers import MLP, Dense, Dropout, Embedding, LayerNorm, Sequential, get_activation
from repro.nn.recurrent import GRUCell, run_rnn_over_sequence
from repro.nn.tensor import Tensor

RNG = np.random.default_rng(11)


class TestDense:
    def test_output_shape(self):
        layer = Dense(5, 3, rng=RNG)
        out = layer(Tensor(RNG.normal(size=(7, 5))))
        assert out.shape == (7, 3)

    def test_linear_is_affine(self):
        layer = Dense(2, 1, rng=RNG)
        x1 = np.array([[1.0, 0.0]])
        x2 = np.array([[0.0, 1.0]])
        both = np.array([[1.0, 1.0]])
        y1 = layer(Tensor(x1)).data - layer.bias.data
        y2 = layer(Tensor(x2)).data - layer.bias.data
        y_both = layer(Tensor(both)).data - layer.bias.data
        np.testing.assert_allclose(y_both, y1 + y2, atol=1e-10)

    def test_activation_applied(self):
        layer = Dense(3, 4, activation="relu", rng=RNG)
        out = layer(Tensor(RNG.normal(size=(10, 3))))
        assert np.all(out.data >= 0)

    def test_no_bias(self):
        layer = Dense(3, 2, use_bias=False, rng=RNG)
        assert len(layer.parameters()) == 1
        out = layer(Tensor(np.zeros((4, 3))))
        np.testing.assert_allclose(out.data, 0.0)

    def test_wrong_input_dim_raises(self):
        layer = Dense(3, 2, rng=RNG)
        with pytest.raises(ValueError):
            layer(Tensor(np.zeros((4, 5))))

    def test_invalid_sizes_raise(self):
        with pytest.raises(ValueError):
            Dense(0, 2)

    def test_gradients_flow_to_weights(self):
        layer = Dense(3, 2, rng=RNG)
        loss = (layer(Tensor(RNG.normal(size=(5, 3)))) ** 2).sum()
        loss.backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None
        assert layer.weight.grad.shape == (3, 2)

    def test_unknown_activation_raises(self):
        with pytest.raises(ValueError):
            get_activation("not-an-activation")

    def test_callable_activation_passthrough(self):
        layer = Dense(2, 2, activation=lambda x: x * 0.0, rng=RNG)
        out = layer(Tensor(np.ones((1, 2))))
        np.testing.assert_allclose(out.data, 0.0)


class TestSequentialAndMLP:
    def test_sequential_composition(self):
        model = Sequential([Dense(4, 8, activation="relu", rng=RNG), Dense(8, 1, rng=RNG)])
        out = model(Tensor(RNG.normal(size=(3, 4))))
        assert out.shape == (3, 1)
        assert len(model) == 2
        assert isinstance(model[0], Dense)

    def test_mlp_shapes_and_params(self):
        mlp = MLP(6, [16, 8], 2, rng=RNG)
        out = mlp(Tensor(RNG.normal(size=(5, 6))))
        assert out.shape == (5, 2)
        # 3 dense layers, each with weight + bias.
        assert len(mlp.parameters()) == 6

    def test_mlp_trains_on_toy_regression(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(64, 2))
        y = (x[:, :1] * 2.0 - x[:, 1:] * 0.5 + 0.3)
        mlp = MLP(2, [16], 1, rng=rng)
        optimizer = nn.Adam(mlp.parameters(), learning_rate=0.01)
        first_loss = None
        for _ in range(150):
            optimizer.zero_grad()
            loss = nn.mse_loss(mlp(Tensor(x)), Tensor(y))
            if first_loss is None:
                first_loss = loss.item()
            loss.backward()
            optimizer.step()
        assert loss.item() < first_loss * 0.1


class TestDropoutAndNorm:
    def test_dropout_eval_identity(self):
        layer = Dropout(0.5, rng=np.random.default_rng(0))
        layer.eval()
        x = Tensor(RNG.normal(size=(10, 10)))
        np.testing.assert_allclose(layer(x).data, x.data)

    def test_dropout_training_zeroes_entries(self):
        layer = Dropout(0.5, rng=np.random.default_rng(0))
        out = layer(Tensor(np.ones((50, 50))))
        fraction_zero = float((out.data == 0).mean())
        assert 0.3 < fraction_zero < 0.7

    def test_dropout_scales_survivors(self):
        layer = Dropout(0.5, rng=np.random.default_rng(0))
        out = layer(Tensor(np.ones((20, 20))))
        surviving = out.data[out.data != 0]
        np.testing.assert_allclose(surviving, 2.0)

    def test_dropout_invalid_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0)

    def test_layernorm_statistics(self):
        layer = LayerNorm(8)
        out = layer(Tensor(RNG.normal(size=(4, 8)) * 5 + 3))
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.data.std(axis=-1), 1.0, atol=1e-2)

    def test_layernorm_learnable_shift(self):
        layer = LayerNorm(4)
        layer.bias.data = np.full(4, 7.0)
        out = layer(Tensor(RNG.normal(size=(2, 4))))
        np.testing.assert_allclose(out.data.mean(axis=-1), 7.0, atol=1e-6)


class TestEmbedding:
    def test_lookup_shape(self):
        emb = Embedding(10, 4, rng=RNG)
        out = emb([1, 2, 3])
        assert out.shape == (3, 4)

    def test_out_of_range_raises(self):
        emb = Embedding(5, 2, rng=RNG)
        with pytest.raises(IndexError):
            emb([7])

    def test_gradient_reaches_rows(self):
        emb = Embedding(6, 3, rng=RNG)
        out = emb([2, 2, 4])
        (out ** 2).sum().backward()
        grad_rows = np.abs(emb.weight.grad).sum(axis=1)
        assert grad_rows[2] > 0 and grad_rows[4] > 0
        assert grad_rows[0] == 0


class TestGRUCell:
    def test_state_shape(self):
        cell = GRUCell(4, 8, rng=RNG)
        state = cell.initial_state(5)
        new_state = cell(Tensor(RNG.normal(size=(5, 4))), state)
        assert new_state.shape == (5, 8)

    def test_state_bounded_by_tanh_dynamics(self):
        cell = GRUCell(3, 6, rng=RNG)
        state = cell.initial_state(2)
        for _ in range(50):
            state = cell(Tensor(RNG.normal(size=(2, 3))), state)
        assert np.all(np.abs(state.data) <= 1.0 + 1e-9)

    def test_gradient_flows_through_time(self):
        cell = GRUCell(2, 4, rng=RNG)
        state = cell.initial_state(1)
        inputs = Tensor(RNG.normal(size=(1, 2)), requires_grad=True)
        for _ in range(3):
            state = cell(inputs, state)
        state.sum().backward()
        assert inputs.grad is not None
        assert np.abs(inputs.grad).sum() > 0
        assert cell.weight_input.grad is not None

    def test_zero_update_gate_keeps_candidate(self):
        # With all weights zero the update gate is 0.5 and candidate 0, so the
        # state decays towards zero.
        cell = GRUCell(2, 3, rng=RNG)
        for param in cell.parameters():
            param.data = np.zeros_like(param.data)
        state = Tensor(np.ones((1, 3)))
        new_state = cell(Tensor(np.zeros((1, 2))), state)
        np.testing.assert_allclose(new_state.data, 0.5)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            GRUCell(0, 4)


class TestSequenceScan:
    def test_output_shapes(self):
        cell = GRUCell(3, 4, rng=RNG)
        sequence = Tensor(RNG.normal(size=(2, 5, 3)))
        mask = np.ones((2, 5))
        outputs, final = run_rnn_over_sequence(cell, sequence, mask)
        assert outputs.shape == (2, 5, 4)
        assert final.shape == (2, 4)

    def test_mask_freezes_state(self):
        cell = GRUCell(2, 3, rng=RNG)
        sequence = Tensor(RNG.normal(size=(1, 4, 2)))
        # Only the first step is valid; the remaining are padding.
        mask = np.array([[1.0, 0.0, 0.0, 0.0]])
        outputs, final = run_rnn_over_sequence(cell, sequence, mask)
        np.testing.assert_allclose(final.data, outputs.data[:, 0, :])
        np.testing.assert_allclose(outputs.data[:, 3, :], outputs.data[:, 0, :])

    def test_different_lengths_per_sequence(self):
        cell = GRUCell(2, 3, rng=RNG)
        sequence = Tensor(RNG.normal(size=(2, 3, 2)))
        mask = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0]])
        outputs, final = run_rnn_over_sequence(cell, sequence, mask)
        np.testing.assert_allclose(final.data[1], outputs.data[1, 0, :])

    def test_bad_mask_shape_raises(self):
        cell = GRUCell(2, 3, rng=RNG)
        with pytest.raises(ValueError):
            run_rnn_over_sequence(cell, Tensor(np.zeros((2, 3, 2))), np.ones((3, 2)))

    def test_bad_sequence_rank_raises(self):
        cell = GRUCell(2, 3, rng=RNG)
        with pytest.raises(ValueError):
            run_rnn_over_sequence(cell, Tensor(np.zeros((2, 3))), np.ones((2, 3)))


class TestFunctionalExtras:
    def test_softmax_sums_to_one(self):
        out = F.softmax(Tensor(RNG.normal(size=(4, 6))))
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-9)

    def test_one_hot(self):
        out = F.one_hot([0, 2], 3)
        np.testing.assert_allclose(out.data, [[1, 0, 0], [0, 0, 1]])

    def test_one_hot_out_of_range(self):
        with pytest.raises(ValueError):
            F.one_hot([3], 3)

    def test_leaky_relu_negative_slope(self):
        out = F.leaky_relu(Tensor(np.array([-2.0, 2.0])), negative_slope=0.1)
        np.testing.assert_allclose(out.data, [-0.2, 2.0])

    def test_elu_continuity(self):
        out = F.elu(Tensor(np.array([-1e-9, 1e-9])))
        np.testing.assert_allclose(out.data, [0.0, 0.0], atol=1e-8)

    def test_l2_norm(self):
        total = F.l2_norm([Tensor(np.array([3.0])), Tensor(np.array([4.0]))])
        assert total.item() == pytest.approx(25.0)

    def test_l2_norm_empty(self):
        assert F.l2_norm([]).item() == 0.0

    def test_gather_function(self):
        out = F.gather(Tensor(np.arange(6).reshape(3, 2)), np.array([2, 0]))
        np.testing.assert_allclose(out.data, [[4, 5], [0, 1]])
