"""Smoke and shape tests for the per-figure experiment drivers.

Heavyweight assertions (the paper's win/loss factors) live in
``benchmarks/``; these tests check each driver produces complete,
well-formed rows quickly on reduced grids.
"""

import pytest

from repro.experiments import (
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
    sec77_generalizability,
    sec8_discussion,
    tab3_cxl_offloading,
    tab4_ablation,
    tab5_breakdown,
)
from repro.experiments.frameworks import build_estimator
from repro.errors import ConfigurationError
from repro.experiments.reporting import OOM


def test_fig01_rows():
    result = fig01_opsbyte.run()
    assert len(result.rows) == 12  # 2 stages x 6 sublayers
    assert all(row["ops_per_byte"] > 0 for row in result.rows)


def test_fig03_rows():
    result = fig03_transfer_bottleneck.run(batch_sizes=(1,),
                                           input_lens=(64, 512))
    assert len(result.rows) == 4
    assert all(0 <= row["transfer_share"] <= 1 for row in result.rows)


def test_fig04_rows():
    result = fig04_avx_attention.run(input_lens=(64, 1024))
    assert len(result.rows) == 2
    assert result.rows[0]["latency_reduction"] < \
        result.rows[1]["latency_reduction"]


def test_fig05_rows():
    result = fig05_microbench.run(engines=("spr-amx", "a100"),
                                  bl_values=(64,), gemv_batches=(8,))
    kinds = {(row["kind"], row["engine"]) for row in result.rows}
    assert ("gemm", "spr-amx") in kinds
    assert ("gemv", "a100") in kinds


def test_fig08_rows():
    result = fig08_cxl.run(sizes_mb=(1, 300), batch_sizes=(1, 64))
    panels = {row["panel"] for row in result.rows}
    assert panels == {"a", "b"}


def test_fig09_rows():
    result = fig09_policy_map.run(system_names=("spr-a100",),
                                  batch_sizes=(1,), input_lens=(32,))
    assert any(row["stage"] == "thresholds" for row in result.rows)


def test_fig10_rows():
    result = fig10_online_latency.run(
        pairs=(("spr-a100", "opt-30b"),), output_lens=(32,))
    assert len(result.rows) == 9  # 3 lengths x 3 frameworks
    lia = result.select(framework="lia")
    assert all(row["latency_s"] != OOM for row in lia)


def test_fig11_rows():
    result = fig11_offline_throughput.run(
        pairs=(("spr-a100", "opt-30b"),), batch_sizes=(64,),
        output_lens=(32,))
    assert len(result.rows) == 9


def test_fig12_rows():
    result = fig12_energy.run(models=("opt-30b",), batch_sizes=(1,),
                              output_lens=(32,))
    lia_rows = result.select(framework="lia")
    assert all(row["normalized_to_lia"] == pytest.approx(1.0)
               for row in lia_rows)


def test_fig13_and_tab6_rows():
    fig = fig13_tab6_gnr.run_fig13(output_len=32)
    assert all(row["latency_ratio"] > 0 for row in fig.rows)
    tab = fig13_tab6_gnr.run_table6(
        pairs=(("gnr-a100", "opt-30b"),), output_len=32)
    assert all(row["vs_flexgen"] > 1.0 for row in tab.rows)


def test_fig14_rows():
    result = fig14_multigpu.run(batch_sizes=(1, 900))
    dgx_900 = result.value("per_gpu_tokens_per_s", config="tp8/dgx-a100",
                           batch_size=900)
    assert dgx_900 == OOM


def test_fig15_rows():
    result = fig15_powerinfer.run(batch_sizes=(1, 900))
    assert result.value("latency_s", framework="powerinfer",
                        batch_size=900) == OOM
    assert result.value("latency_s", framework="lia",
                        batch_size=900) != OOM


def test_tab3_rows():
    result = tab3_cxl_offloading.run(output_lens=(32,))
    row = result.rows[0]
    assert row["increased_batch"] > 900
    assert row["tokens_per_s_cxl"] == pytest.approx(
        row["tokens_per_s"], rel=0.02)


def test_tab4_rows():
    result = tab4_ablation.run(batch_sizes=(1,))
    settings = {row["setting"] for row in result.rows}
    assert settings == {"all-optimizations", "no-optimization-1",
                        "no-optimization-2", "flexgen-policy"}


def test_tab5_rows():
    result = tab5_breakdown.run(batch_sizes=(1,),
                                frameworks=("lia", "ipex"))
    ipex = result.select(framework="ipex")[0]
    assert ipex["gpu_s"] == 0.0
    assert ipex["com_s"] == 0.0


def test_sec77_rows():
    result = sec77_generalizability.run(models=("llama2-70b",),
                                        system_names=("spr-a100",))
    assert all(row["vs_flexgen"] > 1.0 for row in result.rows)


def test_sec8_drivers():
    gh = sec8_discussion.run_grace_hopper(batch_sizes=(64,))
    assert gh.rows[0]["gh200_decode_policy"] == "(0, 0, 0, 0, 0, 0)"
    cheap = sec8_discussion.run_cheap_gpu_alternative(batch_sizes=(1,))
    assert cheap.rows[0]["latency_ratio"] > 1.0
    cost = sec8_discussion.run_cxl_cost_saving()
    all_ddr = cost.value("cost_usd", config="all-ddr")
    tiered = cost.value("cost_usd", config="params-in-cxl")
    assert tiered < all_ddr


def test_build_estimator_registry(opt_30b, spr_a100):
    for name in ("lia", "ipex", "flexgen", "data-offload"):
        estimator = build_estimator(name, opt_30b, spr_a100)
        assert estimator.framework_name == name
    with pytest.raises(ConfigurationError, match="unknown framework"):
        build_estimator("vllm", opt_30b, spr_a100)


def test_sec72_rows():
    from repro.experiments import sec72_transfer_reduction

    result = sec72_transfer_reduction.run(models=("opt-30b",),
                                          batch_sizes=(1, 64))
    assert len(result.rows) == 2
    assert all(row["flexgen_mb_per_token"]
               > row["lia_mb_per_token"] for row in result.rows)


def test_ext_quantization_rows():
    from repro.experiments import ext_quantization

    result = ext_quantization.run(model="opt-30b", batch_sizes=(1,))
    row = result.select(batch_size=1)[0]
    assert row["speedup"] > 1.0


def test_ext_multigpu_rows():
    from repro.experiments import ext_multigpu

    result = ext_multigpu.run(gpu_counts=(1, 2), batch_size=256)
    fabrics = {row["fabric"] for row in result.rows}
    assert fabrics == {"nvlink3", "pcie4"}
    assert len(result.rows) == 4


def test_ext_sensitivity_rows():
    from repro.experiments import ext_sensitivity

    result = ext_sensitivity.run(factors=(1.0, 2.0),
                                 system_name="spr-a100")
    dims = {row["dimension"] for row in result.rows}
    assert dims == {"link-bandwidth", "cpu-compute"}


def test_ext_robustness_rows():
    from repro.experiments import ext_robustness

    result = ext_robustness.run(errors=(1.0, 1.3), batch_sizes=(64,))
    assert all(row["penalty"] >= 1.0 - 1e-9 for row in result.rows)
