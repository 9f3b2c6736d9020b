"""Module system: parameter discovery, train/eval, state dicts."""

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor


def make_mlp():
    return nn.Sequential(
        nn.Linear(4, 8, rng=np.random.default_rng(0)),
        nn.ReLU(),
        nn.Linear(8, 2, rng=np.random.default_rng(1)),
    )


class TestModule:
    def test_parameters_discovered_recursively(self):
        mlp = make_mlp()
        assert len(mlp.parameters()) == 4  # two weights + two biases

    def test_named_parameters_have_dotted_paths(self):
        mlp = make_mlp()
        names = dict(mlp.named_parameters())
        assert "0.weight" in names and "2.bias" in names

    def test_num_parameters(self):
        mlp = make_mlp()
        assert mlp.num_parameters() == 4 * 8 + 8 + 8 * 2 + 2

    def test_train_eval_propagates(self):
        model = nn.Sequential(nn.ConvBlock(3, 8), nn.ConvBlock(8, 8))
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_zero_grad_clears(self):
        mlp = make_mlp()
        out = mlp(Tensor(np.ones((2, 4), dtype=np.float32)))
        out.sum().backward()
        assert any(p.grad is not None for p in mlp.parameters())
        mlp.zero_grad()
        assert all(p.grad is None for p in mlp.parameters())

    def test_frozen_restores_mixed_previous_flags(self):
        mlp = make_mlp()
        params = mlp.parameters()
        params[1].requires_grad = False
        params[2].requires_grad = False
        before = [p.requires_grad for p in params]
        with mlp.frozen() as module:
            assert module is mlp
            assert not any(p.requires_grad for p in params)
            out = mlp(Tensor(np.ones((2, 4), dtype=np.float32),
                             requires_grad=True))
            assert out.requires_grad  # gradients still flow to the input
        assert [p.requires_grad for p in params] == before == [
            True, False, False, True]

    def test_frozen_restores_flags_when_the_block_raises(self):
        mlp = make_mlp()
        params = mlp.parameters()
        params[0].requires_grad = False
        before = [p.requires_grad for p in params]
        with pytest.raises(FloatingPointError, match="diverged"):
            with mlp.frozen():
                raise FloatingPointError("diverged")
        assert [p.requires_grad for p in params] == before

    def test_state_dict_roundtrip(self):
        a = make_mlp()
        b = make_mlp()
        for p in a.parameters():
            p.data += 1.0
        b.load_state_dict(a.state_dict())
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_allclose(pa.data, pb.data)

    def test_load_state_dict_rejects_unknown_key(self):
        mlp = make_mlp()
        with pytest.raises(KeyError):
            mlp.load_state_dict({"nope": np.zeros(3)})

    def test_load_state_dict_rejects_shape_mismatch(self):
        mlp = make_mlp()
        state = mlp.state_dict()
        key = next(iter(state))
        state[key] = np.zeros((1, 1), dtype=np.float32)
        with pytest.raises(ValueError):
            mlp.load_state_dict(state)

    def test_buffers_in_state_dict(self):
        bn = nn.BatchNorm2d(3)
        state = bn.state_dict()
        assert "buffer:running_mean" in state
        assert "buffer:running_var" in state


class TestLayers:
    def test_conv_block_shape(self):
        block = nn.ConvBlock(3, 8, 3)
        out = block(Tensor(np.zeros((2, 3, 16, 16), dtype=np.float32)))
        assert out.shape == (2, 8, 16, 16)

    def test_conv_stride_halves(self):
        conv = nn.Conv2d(3, 4, 3, stride=2, padding=1)
        out = conv(Tensor(np.zeros((1, 3, 8, 8), dtype=np.float32)))
        assert out.shape == (1, 4, 4, 4)

    def test_linear_shape(self):
        layer = nn.Linear(10, 3)
        assert layer(Tensor(np.zeros((7, 10), dtype=np.float32))).shape == (7, 3)

    def test_flatten(self):
        flat = nn.Flatten()
        assert flat(Tensor(np.zeros((2, 3, 4, 5), dtype=np.float32))).shape == (2, 60)

    def test_sequential_iteration_and_indexing(self):
        mlp = make_mlp()
        assert len(list(mlp)) == 3
        assert isinstance(mlp[0], nn.Linear)

    def test_sequential_append(self):
        seq = nn.Sequential(nn.ReLU())
        seq.append(nn.Tanh())
        assert len(list(seq)) == 2
        assert len(list(seq.modules())) == 3

    def test_upsample_layer(self):
        up = nn.Upsample(2)
        assert up(Tensor(np.zeros((1, 2, 3, 3), dtype=np.float32))).shape == (1, 2, 6, 6)


class TestSerialization:
    def test_save_load_roundtrip(self, tmp_path):
        from repro.nn import load_module, save_module

        a = make_mlp()
        path = str(tmp_path / "model.npz")
        save_module(a, path)
        b = make_mlp()
        for p in b.parameters():
            p.data *= 0.0
        load_module(b, path)
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_allclose(pa.data, pb.data)

    def test_save_load_preserves_buffers(self, tmp_path):
        from repro.nn import load_module, save_module

        bn = nn.BatchNorm2d(3)
        bn.running_mean += 5.0
        path = str(tmp_path / "bn.npz")
        save_module(bn, path)
        fresh = nn.BatchNorm2d(3)
        load_module(fresh, path)
        np.testing.assert_allclose(fresh.running_mean, bn.running_mean)
