"""Figure 11: offline inference throughput (tokens/s) at B=64 and
B=900, LIA vs IPEX vs FlexGen.

Paper results tracked: on SPR-A100 LIA achieves 1.5-6.0x (OPT-30B) /
1.1-6.1x (OPT-175B) the throughput of IPEX and 2.0-5.9x / 1.3-6.0x
that of FlexGen; on SPR-H100 1.3-8.3x / 1.2-10x vs IPEX and 1.2-3.3x
/ 1.5-3.7x vs FlexGen.  Points beyond the 512 GB testbed are the
paper's starred latency-model results; host capacity enforcement is
off accordingly.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.experiments.fig10_online_latency import DEFAULT_PAIRS
from repro.experiments.frameworks import estimates_or_oom
from repro.experiments.reporting import OOM, ExperimentResult
from repro.hardware.system import get_system
from repro.models.workload import InferenceRequest, paper_input_lengths
from repro.models.zoo import get_model

DEFAULT_FRAMEWORKS = ("lia", "ipex", "flexgen")


def run(pairs: Sequence[Tuple[str, str]] = DEFAULT_PAIRS,
        frameworks: Sequence[str] = DEFAULT_FRAMEWORKS,
        batch_sizes: Sequence[int] = (64, 900),
        output_lens: Sequence[int] = (32, 256)) -> ExperimentResult:
    """Throughput rows (tokens/s) for the full Fig. 11 grid: one
    :func:`estimates_or_oom` call per (system, model), whose frameworks
    share its term tables, rows in (system, model, request, framework)
    order."""
    result = ExperimentResult(
        experiment_id="fig11",
        title="offline inference throughput (B=64, 900)")
    for system_name, model in pairs:
        spec = get_model(model)
        system = get_system(system_name)
        requests = [InferenceRequest(batch_size, input_len, output_len)
                    for batch_size in batch_sizes
                    for output_len in output_lens
                    for input_len in paper_input_lengths(spec, output_len)]
        estimates = estimates_or_oom(frameworks, spec, system, requests)
        for index, request in enumerate(requests):
            for framework in frameworks:
                estimated = estimates[framework][index]
                result.add_row(
                    system=system_name, model=model,
                    framework=framework,
                    batch_size=request.batch_size,
                    input_len=request.input_len,
                    output_len=request.output_len,
                    tokens_per_s=(OOM if estimated == OOM
                                  else estimated.throughput))
    return result


def gain(result: ExperimentResult, baseline: str, system: str,
         model: str, batch_size: int, input_len: int,
         output_len: int) -> float:
    """LIA's throughput advantage over ``baseline`` at one point."""
    lia = result.value("tokens_per_s", framework="lia", system=system,
                       model=model, batch_size=batch_size,
                       input_len=input_len, output_len=output_len)
    other = result.value("tokens_per_s", framework=baseline,
                         system=system, model=model,
                         batch_size=batch_size, input_len=input_len,
                         output_len=output_len)
    return lia / other
