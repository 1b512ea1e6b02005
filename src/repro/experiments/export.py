"""Export experiment results to CSV (for external plotting)."""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Callable, Dict, List

from repro.errors import ConfigurationError
from repro.experiments.reporting import ExperimentResult


def to_csv(result: ExperimentResult, path) -> Path:
    """Write one experiment's rows to ``path`` as CSV.

    Columns are the union of all row keys, in first-seen order; the
    file starts with a comment line carrying the experiment title.
    """
    if not result.rows:
        raise ConfigurationError(
            f"{result.experiment_id}: nothing to export")
    path = Path(path)
    columns: List[str] = []
    for row in result.rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        handle.write(f"# {result.experiment_id}: {result.title}\n")
        writer = csv.DictWriter(handle, fieldnames=columns,
                                restval="")
        writer.writeheader()
        writer.writerows(result.rows)
    return path


def default_drivers() -> Dict[str, Callable[[], ExperimentResult]]:
    """The full experiment registry, keyed by experiment id."""
    from repro.experiments import (
        ext_kv_tiering,
        ext_multigpu,
        ext_robustness,
        ext_sensitivity,
        ext_quantization,
        fig01_opsbyte,
        fig03_transfer_bottleneck,
        fig04_avx_attention,
        fig05_microbench,
        fig08_cxl,
        fig09_policy_map,
        fig10_online_latency,
        fig11_offline_throughput,
        fig12_energy,
        fig13_tab6_gnr,
        fig14_multigpu,
        fig15_powerinfer,
        sec72_transfer_reduction,
        sec77_generalizability,
        sec8_discussion,
        tab3_cxl_offloading,
        tab4_ablation,
        tab5_breakdown,
    )

    return {
        "fig01": fig01_opsbyte.run,
        "fig03": fig03_transfer_bottleneck.run,
        "fig04": fig04_avx_attention.run,
        "fig05": fig05_microbench.run,
        "fig08": fig08_cxl.run,
        "fig09": fig09_policy_map.run,
        "fig10": fig10_online_latency.run,
        "fig11": fig11_offline_throughput.run,
        "fig12": fig12_energy.run,
        "fig13": fig13_tab6_gnr.run_fig13,
        "fig14": fig14_multigpu.run,
        "fig15": fig15_powerinfer.run,
        "tab3": tab3_cxl_offloading.run,
        "tab4": tab4_ablation.run,
        "tab5": tab5_breakdown.run,
        "tab6": fig13_tab6_gnr.run_table6,
        "sec72": sec72_transfer_reduction.run,
        "sec77": sec77_generalizability.run,
        "sec8-gh": sec8_discussion.run_grace_hopper,
        "sec8-v100": sec8_discussion.run_cheap_gpu_alternative,
        "sec8-cxl-cost": sec8_discussion.run_cxl_cost_saving,
        "ext-int8": ext_quantization.run,
        "ext-multigpu": ext_multigpu.run,
        "ext-sensitivity": ext_sensitivity.run,
        "ext-robustness": ext_robustness.run,
        "ext-kv-tiering": ext_kv_tiering.run,
    }
