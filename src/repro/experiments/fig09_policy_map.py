"""Figure 9: optimal compute-offloading policies over the (L, B) grid.

For OPT-175B on SPR-A100 and SPR-H100: the prefill stage flips from
full-CPU to full-GPU around a constant B*L product; the decode stage
flips from full-CPU to partial-CPU (attention stays on the CPU) at a
batch-size threshold that is independent of L.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.optimizer import (
    decode_policy_threshold,
    policy_map,
    prefill_policy_transition,
)
from repro.experiments.frameworks import EVAL_CONFIG
from repro.experiments.reporting import ExperimentResult
from repro.hardware.system import get_system
from repro.models.sublayers import Stage
from repro.models.zoo import get_model

DEFAULT_BATCHES = (1, 4, 16, 64, 180, 256, 512, 900, 1400)
DEFAULT_LENGTHS = (32, 128, 512, 1024, 2048)


def run(model: str = "opt-175b",
        system_names: Sequence[str] = ("spr-a100", "spr-h100"),
        batch_sizes: Sequence[int] = DEFAULT_BATCHES,
        input_lens: Sequence[int] = DEFAULT_LENGTHS) -> ExperimentResult:
    """Policy-map rows plus the two transition thresholds per system.

    Each (system, stage) grid is one :func:`policy_map` call — one
    term table and one Eq. (1) grid search.  Each bisection threshold
    solves its probes in a few term tables, each holding every
    midpoint the next halvings could visit.
    """
    spec = get_model(model)
    result = ExperimentResult(
        experiment_id="fig09",
        title=f"optimal offloading policies, {model}")
    for system_name in system_names:
        system = get_system(system_name)
        for stage in Stage:
            policies = policy_map(spec, stage, batch_sizes, input_lens,
                                  system, EVAL_CONFIG)
            for (batch_size, input_len), policy in policies.items():
                result.add_row(system=system_name, stage=stage.value,
                               batch_size=batch_size,
                               input_len=input_len, policy=str(policy))
        decode_b = decode_policy_threshold(spec, system, EVAL_CONFIG)
        prefill_bl = prefill_policy_transition(spec, system, EVAL_CONFIG)
        result.add_row(system=system_name, stage="thresholds",
                       batch_size=decode_b, input_len=prefill_bl,
                       policy="decode-B / prefill-BL")
    return result
