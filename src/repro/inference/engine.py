"""The cooperative execution engine (the functional half of C2).

Runs a :class:`TinyTransformer` through prefill + decode with every
sublayer placed on the device its offload policy dictates, moving
activations, weights, KV cache, and residuals across the simulated
PCIe boundary exactly as the latency model charges them.  The engine
therefore demonstrates, with real numbers, the two properties LIA's
correctness rests on:

* **Policy invariance** — generated tokens are identical for every
  policy pair (the devices share BF16/FP32 matmul semantics).
* **Traffic fidelity** — the logged PCIe bytes equal the Table 1
  ``D_X``/``D_Y``/``D_KV`` terms for the boundary crossings the
  policy induces.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Optional

import numpy as np

from repro.core.policy import OffloadPolicy
from repro.errors import ConfigurationError
from repro.inference.kv_cache import KVCache, make_caches
from repro.inference.tensors import (DeviceTensor, TransferLog,
                                     TransferRecord)
from repro.inference.transformer import TinyTransformer
from repro.models.sublayers import Sublayer
from repro.telemetry.runtime import current as current_telemetry
from repro.telemetry.spans import TickClock


@dataclass
class GenerationResult:
    """Output of one generation run."""

    tokens: np.ndarray
    logits: np.ndarray
    transfers: TransferLog

    @property
    def pcie_bytes(self) -> int:
        return self.transfers.total_bytes


def _device_name(policy: OffloadPolicy, sublayer: Sublayer) -> str:
    return "cpu" if policy.on_cpu(sublayer) else "gpu"


class CooperativeEngine:
    """Executes generation under (prefill_policy, decode_policy).

    Parameters live on the CPU (LIA's framework assumption); a
    GPU-computed parameter sublayer logs a weight transfer per use,
    unless the layer index is in ``resident_layers`` (Optimization-1).
    """

    def __init__(self, model: TinyTransformer,
                 prefill_policy: OffloadPolicy,
                 decode_policy: OffloadPolicy,
                 resident_layers: Optional[List[int]] = None) -> None:
        self.model = model
        self.prefill_policy = prefill_policy
        self.decode_policy = decode_policy
        self.resident_layers = set(resident_layers or [])
        self.log = TransferLog()
        self.caches: List[KVCache] = make_caches(model.spec.n_layers)
        self._position = 0
        self.log.subscribe(self._on_transfer)

    # ------------------------------------------------------------------
    # Telemetry, under ``repro.telemetry.activate``: sublayer spans on
    # the device tracks, transfer spans on the pcie track, byte
    # counters mirroring the TransferLog.
    # The engine has no latency model, so spans run on a logical
    # TickClock — one tick per event — giving an ordered,
    # Perfetto-loadable structure trace rather than a timing claim.
    # ------------------------------------------------------------------
    def _on_transfer(self, record: TransferRecord) -> None:
        telemetry = current_telemetry()
        if telemetry is None:
            return
        telemetry.metrics.counter(
            "pcie.bytes", source=record.source,
            destination=record.destination).inc(record.num_bytes)
        telemetry.metrics.counter(
            "pcie.transfers", source=record.source,
            destination=record.destination).inc()
        tracer = telemetry.tracer
        start = tracer.clock()
        if isinstance(tracer.clock, TickClock):
            tracer.clock.advance(1.0)
        tracer.add_span(record.label, "pcie", start, tracer.clock(),
                        bytes=record.num_bytes, source=record.source,
                        destination=record.destination)

    @contextmanager
    def _span(self, name: str, track: str, **args: object) -> Iterator[None]:
        """A tracer span that costs one tick of engine compute."""
        telemetry = current_telemetry()
        if telemetry is None:
            yield
            return
        with telemetry.tracer.span(name, track=track, **args):
            yield
            if isinstance(telemetry.tracer.clock, TickClock):
                telemetry.tracer.clock.advance(1.0)

    # ------------------------------------------------------------------
    def _charge_weights(self, layer: int, sublayer: Sublayer,
                        device: str, num_bytes: int) -> None:
        """Log a weight fetch when the consumer is not the CPU and the
        layer is not GPU-resident."""
        if device == "cpu" or layer in self.resident_layers:
            return
        self.log.record(f"weights:L{layer}:{sublayer.name}", "cpu",
                        device, num_bytes)

    def _forward_layer(self, hidden: DeviceTensor, layer: int,
                       policy: OffloadPolicy, causal: bool) -> DeviceTensor:
        model = self.model
        weights = model.layers[layer]
        spec = model.spec

        # Sublayer 1: QKV mapping (+ fused LN); emits KV to the cache.
        dev1 = _device_name(policy, Sublayer.QKV_MAPPING)
        with self._span(f"L{layer}:S1:qkv", dev1, layer=layer):
            x1 = hidden.to(dev1, self.log, f"act:L{layer}:S1")
            self._charge_weights(layer, Sublayer.QKV_MAPPING, dev1,
                                 2 * weights.w_qkv.size)
            q_raw, k_raw, v_raw = model.qkv_mapping(x1.require_on(dev1),
                                                    layer)
            # During prefill the fresh K/V *are* the whole history:
            # keep the device-local copies so a colocated consumer (or
            # one on the cache's home) never re-crosses PCIe —
            # matching the Eq. (7)/(9) accounting.
            fresh_is_history = self.caches[layer].seq_len == 0
            k_local = DeviceTensor(k_raw, dev1)
            v_local = DeviceTensor(v_raw, dev1)
            self.caches[layer].append(k_local, v_local, self.log, layer)

        def history(tensor_local, reader, device):
            if fresh_is_history and device == dev1:
                return tensor_local
            return reader(device, self.log, layer)

        # Sublayer 2: attention scores against the full KV history.
        dev2 = _device_name(policy, Sublayer.ATTENTION_SCORE)
        with self._span(f"L{layer}:S2:score", dev2, layer=layer):
            q = DeviceTensor(q_raw, dev1).to(dev2, self.log,
                                             f"act:L{layer}:S2")
            k_hist = history(k_local, self.caches[layer].read_k, dev2)
            scores = model.attention_scores(q.require_on(dev2),
                                            k_hist.require_on(dev2),
                                            causal=causal)

        # Sublayer 3: attention context.
        dev3 = _device_name(policy, Sublayer.ATTENTION_CONTEXT)
        with self._span(f"L{layer}:S3:context", dev3, layer=layer):
            s = DeviceTensor(scores, dev2).to(dev3, self.log,
                                              f"act:L{layer}:S3")
            v_hist = history(v_local, self.caches[layer].read_v, dev3)
            context = model.attention_context(s.require_on(dev3),
                                              v_hist.require_on(dev3))

        # Sublayer 4: output projection + residual from sublayer 1's
        # input (moves if placed elsewhere, Eq. (6)).
        dev4 = _device_name(policy, Sublayer.OUTPUT_PROJECTION)
        with self._span(f"L{layer}:S4:proj", dev4, layer=layer):
            ctx = DeviceTensor(context, dev3).to(dev4, self.log,
                                                 f"act:L{layer}:S4")
            # The residual operand is sublayer 1's input *value*;
            # reuse the copy already moved for sublayer 1 (Eq. 6
            # charges the p4 ^ p1 crossing only).
            residual1 = x1.to(dev4, self.log, f"residual:L{layer}:S4")
            self._charge_weights(layer, Sublayer.OUTPUT_PROJECTION, dev4,
                                 2 * weights.w_out.size)
            attn_out_raw = model.output_projection(
                ctx.require_on(dev4), residual1.require_on(dev4), layer)
            attn_out = DeviceTensor(attn_out_raw, dev4)

        # Sublayer 5: FC1 (+ fused LN and GELU).
        dev5 = _device_name(policy, Sublayer.FC1)
        with self._span(f"L{layer}:S5:fc1", dev5, layer=layer):
            x5 = attn_out.to(dev5, self.log, f"act:L{layer}:S5")
            self._charge_weights(layer, Sublayer.FC1, dev5,
                                 2 * weights.w_fc1.size)
            ffn_hidden_raw = model.fc1(x5.require_on(dev5), layer)

        # Sublayer 6: FC2 + residual from sublayer 4's output.
        dev6 = _device_name(policy, Sublayer.FC2)
        with self._span(f"L{layer}:S6:fc2", dev6, layer=layer):
            x6 = DeviceTensor(ffn_hidden_raw, dev5).to(dev6, self.log,
                                                       f"act:L{layer}:S6")
            residual4 = attn_out.to(dev6, self.log,
                                    f"residual:L{layer}:S6")
            self._charge_weights(layer, Sublayer.FC2, dev6,
                                 2 * weights.w_fc2.size)
            out_raw = model.fc2(x6.require_on(dev6),
                                residual4.require_on(dev6), layer)
        return DeviceTensor(out_raw, dev6)

    def _forward(self, tokens: np.ndarray, policy: OffloadPolicy,
                 causal: bool) -> np.ndarray:
        hidden_raw = self.model.embed(tokens,
                                      position_offset=self._position)
        self._position += tokens.shape[1]
        # The hidden state enters the first layer from the device that
        # computed the previous layer's sublayer 6 (p_0 = p_6); the
        # embedding itself runs on the host.
        hidden = DeviceTensor(hidden_raw, "cpu")
        entry = _device_name(policy, Sublayer.FC2)
        hidden = hidden.to(entry, self.log, "act:entry")
        for layer in range(self.model.spec.n_layers):
            hidden = self._forward_layer(hidden, layer, policy, causal)
        # LM head runs on the host in the reproduction.
        final = hidden.to("cpu", self.log, "act:lm-head")
        return self.model.lm_head(final.require_on("cpu"))

    # ------------------------------------------------------------------
    def generate(self, prompt: np.ndarray,
                 max_new_tokens: int) -> GenerationResult:
        """Greedy generation: one prefill, then decode steps."""
        if prompt.ndim != 2:
            raise ConfigurationError(
                f"prompt must be (batch, seq), got {prompt.shape}")
        if max_new_tokens < 1:
            raise ConfigurationError("max_new_tokens must be >= 1")
        self._position = 0
        with self._span("prefill", "engine",
                        batch=int(prompt.shape[0]),
                        input_len=int(prompt.shape[1])):
            logits = self._forward(prompt, self.prefill_policy,
                                   causal=True)
        next_token = logits[:, -1, :].argmax(axis=-1)
        generated = [next_token]
        for step in range(max_new_tokens - 1):
            step_input = next_token[:, None]
            with self._span(f"decode[{step}]", "engine"):
                logits = self._forward(step_input, self.decode_policy,
                                       causal=True)
            next_token = logits[:, -1, :].argmax(axis=-1)
            generated.append(next_token)
        tokens = np.stack(generated, axis=1)
        telemetry = current_telemetry()
        if telemetry is not None:
            telemetry.metrics.counter("engine.generated_tokens").inc(
                tokens.size)
        return GenerationResult(tokens=tokens, logits=logits,
                                transfers=self.log)
