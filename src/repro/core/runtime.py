"""The LIA runtime: the user-facing faces of the framework.

Combines the algorithm front-end (policy optimization) with the two
execution back-ends this reproduction provides:

* the **analytic estimator** for paper-scale models (OPT-175B does not
  fit in RAM as real tensors anywhere, let alone here), and
* the **functional engine** for small specs, which actually runs
  tokens through a numpy transformer under the chosen policies, and
* the **discrete-event simulator**, which replays the chosen schedule
  with explicit PCIe/compute resources to produce a Fig. 7-style
  timeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.config import LiaConfig
from repro.core.estimator import InferenceEstimate, LiaEstimator
from repro.core.gpu_residency import ResidencyPlan, plan_layer_residency
from repro.core.latency import layer_latency
from repro.core.optimizer import optimal_policy
from repro.core.overlap import build_stage_graph
from repro.core.policy import OffloadPolicy
from repro.errors import ConfigurationError
from repro.hardware.system import SystemConfig
from repro.inference.engine import CooperativeEngine, GenerationResult
from repro.inference.transformer import TinyTransformer
from repro.models.spec import ModelSpec
from repro.models.sublayers import Stage
from repro.models.workload import InferenceRequest
from repro.sim.engine import Simulator
from repro.sim.trace import Timeline

#: Upper bound on parameters for the functional engine (beyond this a
#: real run would not fit in process memory; use the estimator).
_FUNCTIONAL_PARAM_LIMIT = 50_000_000


def _check_cap(name: str, value: Optional[int], least: int) -> None:
    """Reject a replay cap that is not an int of at least ``least``
    (``None`` means no cap)."""
    if value is None:
        return
    if (not isinstance(value, (int, np.integer)) or isinstance(value, bool)
            or value < least):
        raise ConfigurationError(
            f"{name} must be an int >= {least}, got {value!r}")


@dataclass(frozen=True)
class RuntimePlan:
    """Everything LIA decides before executing a request."""

    request: InferenceRequest
    prefill_policy: OffloadPolicy
    decode_policy: OffloadPolicy
    residency: ResidencyPlan
    estimate: InferenceEstimate


class LiaRuntime:
    """End-to-end LIA for one (model, system, config) binding."""

    def __init__(self, spec: ModelSpec, system: SystemConfig,
                 config: Optional[LiaConfig] = None,
                 seed: int = 0) -> None:
        self.spec = spec
        self.system = system
        self.config = config or LiaConfig()
        self.estimator = LiaEstimator(spec, system, self.config)
        self._seed = seed
        self._model: Optional[TinyTransformer] = None

    # ------------------------------------------------------------------
    def plan(self, request: InferenceRequest) -> RuntimePlan:
        """Choose policies and residency; estimate performance."""
        estimate = self.estimator.estimate(request)
        residency = plan_layer_residency(self.spec, self.system, request,
                                         self.config)
        return RuntimePlan(
            request=request,
            prefill_policy=estimate.prefill_policy,
            decode_policy=estimate.decode_policy,
            residency=residency,
            estimate=estimate,
        )

    # ------------------------------------------------------------------
    def functional_model(self) -> TinyTransformer:
        """The numpy model backing `generate` (small specs only)."""
        if self.spec.total_params > _FUNCTIONAL_PARAM_LIMIT:
            raise ConfigurationError(
                f"{self.spec.name} is too large for the functional "
                "engine; use the estimator for performance results")
        if self._model is None:
            self._model = TinyTransformer(self.spec, seed=self._seed)
        return self._model

    def generate(self, prompt: np.ndarray,
                 max_new_tokens: int) -> GenerationResult:
        """Run real tokens through the cooperative engine using the
        policies LIA would pick for this request shape."""
        request = InferenceRequest(prompt.shape[0], prompt.shape[1],
                                   max_new_tokens)
        plan = self.plan(request)
        resident = list(range(plan.residency.n_resident_layers))
        engine = CooperativeEngine(
            self.functional_model(),
            prefill_policy=plan.prefill_policy,
            decode_policy=plan.decode_policy,
            resident_layers=resident,
        )
        return engine.generate(prompt, max_new_tokens)

    # ------------------------------------------------------------------
    def simulate_timeline(self, request: InferenceRequest, stage: Stage,
                          n_layers: Optional[int] = None) -> Timeline:
        """Replay the chosen stage schedule on the DES (Fig. 7).

        Uses the streamed-layer policy; ``n_layers`` defaults to the
        model's depth (cap it for readable Gantt output).
        """
        _check_cap("n_layers", n_layers, 1)
        layer = optimal_policy(self.spec, stage, request.batch_size,
                               request.input_len, self.system,
                               self.config).layer
        depth = n_layers if n_layers is not None else self.spec.n_layers
        minibatches = (self.config.prefill_minibatches
                       if stage is Stage.PREFILL else 1)
        if not self.config.overlap:
            minibatches = 1
        graph = build_stage_graph(layer, depth, minibatches=minibatches)
        return Simulator(graph).run()

    def simulate_request(self, request: InferenceRequest,
                         n_layers: Optional[int] = None,
                         decode_steps: Optional[int] = None) -> Timeline:
        """Replay a whole request (prefill + decode steps) on the DES.

        Uses the same policies and residency split the estimator
        chooses; cap ``n_layers``/``decode_steps`` to keep the
        timeline readable.  The returned makespan validates the
        closed-form estimate within the pipeline-fill slack.
        """
        from repro.core.overlap import build_request_graph

        _check_cap("n_layers", n_layers, 1)
        _check_cap("decode_steps", decode_steps, 0)
        plan = self.plan(request)
        depth = n_layers if n_layers is not None else self.spec.n_layers
        steps = (decode_steps if decode_steps is not None
                 else request.output_len)
        n_resident = round(plan.residency.resident_fraction * depth)

        def policies_for(stage: Stage) -> List[OffloadPolicy]:
            # The estimator's policies, chosen at L_in per residency
            # (streamed, then resident): one search each per stage.
            return [optimal_policy(
                self.spec, stage, request.batch_size, request.input_len,
                self.system, self.config,
                weights_resident=weights_resident).policy
                for weights_resident in (False, True)]

        def layers_for(stage: Stage, policies: List[OffloadPolicy],
                       context_len: int):
            streamed, resident = (
                layer_latency(self.spec, stage, policy, request.batch_size,
                              context_len, self.system, self.config,
                              weights_resident=weights_resident)
                for policy, weights_resident in zip(policies,
                                                    (False, True)))
            return [resident if index < n_resident else streamed
                    for index in range(depth)]

        prefill_layers = layers_for(Stage.PREFILL,
                                    policies_for(Stage.PREFILL),
                                    request.input_len)
        decode_policies = policies_for(Stage.DECODE)
        decode_layers = [layers_for(Stage.DECODE, decode_policies,
                                    request.input_len + step)
                         for step in range(steps)]
        minibatches = (self.config.prefill_minibatches
                       if self.config.overlap else 1)
        graph = build_request_graph(prefill_layers, decode_layers,
                                    prefill_minibatches=minibatches)
        return Simulator(graph).run()
