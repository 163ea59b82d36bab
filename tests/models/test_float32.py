"""Float32 discipline of the model stack.

Every model op computes in float32 for float32 input.  A silent float64
upcast inside a block (a float64 array scalar such as ``np.sqrt(2 / pi)``
promotes a whole expression under NumPy 2) does not show in the block's
output, because the next linear layer casts back to float32; the spy test
therefore records the dtype of every functional op *inside* the forwards.
"""

import numpy as np
import pytest

from repro.kernels.spatha import Spatha
from repro.models import attention as attention_module
from repro.models import functional as F
from repro.models import transformer as transformer_module
from repro.models.config import tiny_config
from repro.models.layers import SparseLinear
from repro.models.transformer import TransformerEncoder


@pytest.fixture(scope="module")
def cfg():
    return tiny_config(hidden_size=64, num_layers=2, num_heads=4, intermediate_size=128)


def _sparse_encoder(cfg) -> TransformerEncoder:
    """A two-layer encoder whose first layer's projections are all V:N:M."""
    encoder = TransformerEncoder.init(cfg, seed=3)
    layer = encoder.layers[0]
    for name, lin in list(layer.named_linear_layers().items()):
        layer.replace_linear(
            name, SparseLinear.from_dense(lin, v=16, n=2, m=8, spatha=Spatha(autotune=False))
        )
    return encoder


class TestFunctionalOpsFloat32:
    @pytest.fixture
    def x(self, rng):
        return rng.normal(size=(2, 4, 6, 8)).astype(np.float32)

    def test_elementwise_and_reductions(self, x):
        assert F.gelu(x).dtype == np.float32
        assert F.softmax(x).dtype == np.float32
        assert F.softmax(x, mask=F.padding_mask([6, 3], 8)).dtype == np.float32
        assert F.layer_norm(x, np.ones(8, np.float32), np.zeros(8, np.float32)).dtype == np.float32
        assert F.dropout_eval(x).dtype == np.float32

    def test_attention_ops(self, x):
        assert F.attention_scores(x, x).dtype == np.float32
        assert F.attention_scores(x, x, scale=0.5).dtype == np.float32
        assert F.attention_scores(x, x, scale=np.float64(0.5)).dtype == np.float32
        assert F.attention_scores(x, x, mask=F.causal_mask(6)).dtype == np.float32
        probs = F.softmax(F.attention_scores(x, x))
        assert F.attention_context(probs, x).dtype == np.float32

    def test_head_reshapes_and_masks(self, x):
        h = x.reshape(2, 24, 8)
        assert F.split_heads(h, 2).dtype == np.float32
        assert F.merge_heads(F.split_heads(h, 2)).dtype == np.float32
        assert F.padding_mask([3, 1], 4).dtype == np.float32
        assert F.causal_mask(4).dtype == np.float32
        assert F.grouped_by_length(h, np.array([24, 10]), F.gelu).dtype == np.float32


class TestModelForwardsFloat32:
    def test_forward_and_forward_step(self, cfg, rng):
        encoder = _sparse_encoder(cfg)
        hidden = rng.normal(size=(2, 5, cfg.hidden_size)).astype(np.float32)
        token = hidden[0, :1]
        layer = encoder.layers[0]
        mha = layer.attention

        assert mha.forward(hidden).dtype == np.float32
        assert mha.forward(hidden, mask=F.padding_mask([5, 3], 5)).dtype == np.float32
        assert mha.forward_step(token, encoder.new_sequence_kv().view(0)).dtype == np.float32
        assert layer.forward(hidden).dtype == np.float32
        assert layer.forward(hidden, attention_mask=F.causal_mask(5)).dtype == np.float32
        assert layer.forward_step(token, encoder.new_sequence_kv().view(0)).dtype == np.float32
        assert encoder.forward(hidden).dtype == np.float32
        assert encoder.forward(hidden, attention_mask=F.padding_mask([5, 2], 5)).dtype == np.float32
        kv = encoder.new_sequence_kv()
        assert encoder.forward_step(token, kv).dtype == np.float32

    def test_no_op_inside_the_forwards_returns_float64(self, cfg, rng, monkeypatch):
        """Spy on every functional op the model modules call and require a
        float32 result from each one, through forward and forward_step."""
        seen = []

        def spy(fn):
            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                seen.append((fn.__name__, out.dtype))
                return out

            return wrapped

        for module in (attention_module, transformer_module):
            for name in (
                "attention_context",
                "attention_scores",
                "gelu",
                "layer_norm",
                "merge_heads",
                "softmax",
                "split_heads",
            ):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, spy(getattr(module, name)))

        encoder = _sparse_encoder(cfg)
        hidden = rng.normal(size=(2, 5, cfg.hidden_size)).astype(np.float32)
        encoder.forward(hidden)
        kv = encoder.new_sequence_kv()
        for t in range(3):
            encoder.forward_step(hidden[0, t][None], kv)

        names = {name for name, _ in seen}
        assert {"attention_scores", "gelu", "layer_norm", "softmax"} <= names
        upcast = sorted({name for name, dtype in seen if dtype != np.float32})
        assert not upcast, f"ops returned non-float32 results: {upcast}"


class TestGeluMatchesReference:
    def test_within_1e6_of_float64(self, rng):
        """The float32 GELU stays within 1e-6 of the float64 evaluation:
        relative above magnitude 1, absolute below it, where the negative
        tail's ``1 + tanh`` cancels in any precision."""
        x = np.concatenate(
            [
                np.linspace(-12.0, 12.0, 200_001, dtype=np.float32),
                rng.normal(scale=3.0, size=100_000).astype(np.float32),
                np.float32([0.0, -0.0, 1e-30, -1e-30, 1e4, -1e4]),
            ]
        )
        out = F.gelu(x)
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, F.gelu_reference(x), rtol=1e-6, atol=1e-6)

    def test_does_not_modify_its_input(self, rng):
        x = rng.normal(size=(4, 8)).astype(np.float32)
        before = x.copy()
        F.gelu(x)
        assert np.array_equal(x, before)
