"""Single-shot forward pass of the functional transformer.

:class:`repro.inference.engine.CooperativeEngine` runs a
:class:`~repro.inference.transformer.TinyTransformer` token by token
with a KV cache, placing each sublayer on a simulated device.
:func:`forward_reference` runs the same sublayer primitives over the
whole context at once, with no cache and no placement: the ground
truth the engine's logits must match.
"""

import numpy as np

from repro.inference.transformer import TinyTransformer


def forward_reference(model: TinyTransformer,
                      tokens: np.ndarray) -> np.ndarray:
    """Logits of every position of ``tokens`` (batch, seq)."""
    hidden = model.embed(tokens)
    for layer in range(model.spec.n_layers):
        q, k, v = model.qkv_mapping(hidden, layer)
        scores = model.attention_scores(q, k, causal=True)
        context = model.attention_context(scores, v)
        attn_out = model.output_projection(context, hidden, layer)
        ffn_hidden = model.fc1(attn_out, layer)
        hidden = model.fc2(ffn_hidden, attn_out, layer)
    return model.lm_head(hidden)
