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
from typing import Optional

import numpy as np

from repro.core.config import LiaConfig
from repro.core.estimator import InferenceEstimate, LiaEstimator
from repro.core.gpu_residency import ResidencyPlan, plan_layer_residency
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
                 config: Optional[LiaConfig] = None) -> None:
        self.spec = spec
        self.system = system
        self.config = config or LiaConfig()
        self.estimator = LiaEstimator(spec, system, self.config)
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
            self._model = TinyTransformer(self.spec)
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
        if n_layers is not None and (
                not isinstance(n_layers, (int, np.integer))
                or isinstance(n_layers, bool) or n_layers < 1):
            raise ConfigurationError(
                f"n_layers must be an int >= 1, got {n_layers!r}")
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
