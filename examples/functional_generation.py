#!/usr/bin/env python3
"""Functional generation: run real tokens through the cooperative
engine and audit the PCIe traffic it produces.

Uses the `opt-tiny` spec (same OPT architecture, laptop-sized) so the
numpy transformer actually executes.  Demonstrates the two properties
the performance results rest on:

* any offload policy, LIA's own choice included, produces identical
  tokens, and
* the logged cross-device traffic equals the Table 1 byte counts the
  latency model charges.

Run:  python examples/functional_generation.py
"""

from __future__ import annotations

import numpy as np

from repro import LiaRuntime, get_model, get_system
from repro.core.policy import FULL_CPU, FULL_GPU, PARTIAL_CPU
from repro.inference.engine import CooperativeEngine
from repro.inference.transformer import TinyTransformer
from repro.models.sublayers import Stage, Sublayer, sublayer_cost
from repro.models.workload import InferenceRequest


def main() -> None:
    spec = get_model("opt-tiny")
    model = TinyTransformer(spec, seed=0)
    rng = np.random.default_rng(1)
    prompt = rng.integers(0, spec.vocab_size, (2, 8))
    new_tokens = 6

    print(f"model: {spec.describe()}")
    print(f"prompt: batch={prompt.shape[0]}, L_in={prompt.shape[1]}, "
          f"generating {new_tokens} tokens\n")

    results = {}
    for label, prefill, decode in (
            ("full-CPU        ", FULL_CPU, FULL_CPU),
            ("full-GPU        ", FULL_GPU, FULL_GPU),
            ("partial (paper) ", FULL_GPU, PARTIAL_CPU)):
        engine = CooperativeEngine(model, prefill, decode)
        result = engine.generate(prompt, new_tokens)
        results[label] = result
        print(f"{label} policy {prefill}/{decode}: "
              f"tokens {result.tokens[0].tolist()}  "
              f"PCIe traffic {result.pcie_bytes / 1024:.1f} KiB")

    reference = next(iter(results.values())).tokens
    assert all(np.array_equal(reference, r.tokens)
               for r in results.values())
    print("\nall policies generated identical tokens ✔\n")

    # The policies LIA itself picks for this request shape on SPR-A100.
    runtime = LiaRuntime(spec, get_system("spr-a100"))
    plan = runtime.plan(InferenceRequest(*prompt.shape, new_tokens))
    chosen = runtime.generate(prompt, new_tokens)
    assert np.array_equal(reference, chosen.tokens)
    print(f"LIA's choice on spr-a100, policy {plan.prefill_policy}/"
          f"{plan.decode_policy}: identical tokens ✔\n")

    # ------------------------------------------------------------------
    # Audit: the engine's logged weight traffic equals Table 1's D_Y.
    # ------------------------------------------------------------------
    full_gpu = CooperativeEngine(model, FULL_GPU, FULL_GPU)
    result = full_gpu.generate(prompt, 2)  # one prefill + one decode
    logged = result.transfers.bytes_by_label()
    print("weight-traffic audit (full-GPU, per layer, 2 forward passes):")
    for sub in (Sublayer.QKV_MAPPING, Sublayer.FC1, Sublayer.FC2,
                Sublayer.OUTPUT_PROJECTION):
        expected = 2 * sublayer_cost(spec, sub, Stage.DECODE, 1, 1).d_y
        actual = logged[f"weights:L0:{sub.name}"]
        status = "✔" if actual == expected else "✘"
        print(f"  {sub.name:<18} expected {expected:>8.0f} B   "
              f"logged {actual:>8d} B   {status}")

    kv_expected = (
        sublayer_cost(spec, Sublayer.QKV_MAPPING, Stage.PREFILL, 2,
                      prompt.shape[1]).d_kv_out
        + sublayer_cost(spec, Sublayer.QKV_MAPPING, Stage.DECODE, 2,
                        prompt.shape[1] + 1).d_kv_out)
    print(f"  KV store (Eq. 9)   expected {kv_expected:>8.0f} B   "
          f"logged {logged['kv-store:L0']:>8d} B   "
          f"{'✔' if logged['kv-store:L0'] == kv_expected else '✘'}")


if __name__ == "__main__":
    main()
