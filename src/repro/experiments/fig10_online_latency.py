"""Figure 10: online (B=1) inference latency, LIA vs IPEX vs FlexGen.

Sweep: OPT-30B/OPT-175B on SPR-A100 and OPT-66B/OPT-175B on SPR-H100,
L_in in {32, 256, L_max}, L_out in {32, 256}.  Paper results the
reproduction tracks: LIA is 1.8-2.1x (OPT-30B) and 1.1-1.3x
(OPT-175B) faster than IPEX, and 5.3-7.3x / 8.5-12x faster than
FlexGen on SPR-A100; 2.1-2.5x / 1.1-1.5x vs IPEX and 4.9-7.0x /
4.0-5.1x vs FlexGen on SPR-H100.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.experiments.frameworks import estimate_or_oom
from repro.experiments.reporting import OOM, ExperimentResult
from repro.hardware.system import get_system
from repro.models.workload import InferenceRequest, paper_input_lengths
from repro.models.zoo import get_model

#: (system, model) pairs evaluated in Fig. 10.
DEFAULT_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("spr-a100", "opt-30b"),
    ("spr-a100", "opt-175b"),
    ("spr-h100", "opt-66b"),
    ("spr-h100", "opt-175b"),
)

DEFAULT_FRAMEWORKS = ("lia", "ipex", "flexgen")


def run(pairs: Sequence[Tuple[str, str]] = DEFAULT_PAIRS,
        frameworks: Sequence[str] = DEFAULT_FRAMEWORKS,
        output_lens: Sequence[int] = (32, 256)) -> ExperimentResult:
    """Latency rows (s/query) for the full Fig. 10 grid, one
    estimate per (system, model, framework, request) cell."""
    result = ExperimentResult(
        experiment_id="fig10",
        title="online inference latency (B=1)")
    for system_name, model in pairs:
        spec = get_model(model)
        system = get_system(system_name)
        for output_len in output_lens:
            for input_len in paper_input_lengths(spec, output_len):
                for framework in frameworks:
                    estimated = estimate_or_oom(
                        framework, spec, system,
                        InferenceRequest(1, input_len, output_len))
                    result.add_row(
                        system=system_name, model=model,
                        framework=framework, input_len=input_len,
                        output_len=output_len,
                        latency_s=(OOM if estimated == OOM
                                   else estimated.latency))
    return result


def speedup(result: ExperimentResult, baseline: str, system: str,
            model: str, input_len: int, output_len: int) -> float:
    """LIA's latency advantage over ``baseline`` at one grid point."""
    lia = result.value("latency_s", framework="lia", system=system,
                       model=model, input_len=input_len,
                       output_len=output_len)
    other = result.value("latency_s", framework=baseline, system=system,
                         model=model, input_len=input_len,
                         output_len=output_len)
    return other / lia
