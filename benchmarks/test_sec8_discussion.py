"""§8 discussion: Grace-Hopper, cheap-GPU alternatives, CXL cost."""

from repro.experiments import sec8_discussion


def test_sec8_grace_hopper(run_once):
    result = run_once(sec8_discussion.run_grace_hopper)
    print()
    print(result.render())

    # The 450 GB/s-per-direction C2C link makes all-GPU optimal.
    assert all(row["gh200_decode_policy"] == "(0, 0, 0, 0, 0, 0)"
               for row in result.rows)
    # GH200 beats GNR-H100 (paper: 1.8-2.3x lower latency, 3.0-4.1x
    # higher throughput; we assert generous bands).
    assert all(row["latency_ratio"] >= 1.3 for row in result.rows)
    assert all(row["latency_ratio"] <= 6.0 for row in result.rows)
    assert all(row["throughput_ratio"] >= 1.3 for row in result.rows)


def test_sec8_cheap_gpu_alternative(run_once):
    result = run_once(sec8_discussion.run_cheap_gpu_alternative)
    print()
    print(result.render())

    # 3xV100 data offloading loses badly (paper: 6.3-11x latency,
    # 2.2-16x throughput).
    assert all(row["latency_ratio"] >= 3.0 for row in result.rows)
    assert all(row["throughput_ratio"] >= 2.0 for row in result.rows)


def test_sec8_cxl_cost_saving(run_once):
    result = run_once(sec8_discussion.run_cxl_cost_saving)
    print()
    print(result.render())

    all_ddr = result.value("cost_usd", config="all-ddr")
    tiered = result.value("cost_usd", config="params-in-cxl")
    # Paper: $6,300 -> $3,200 for the OPT-175B working set.
    assert tiered < all_ddr
    saving = 1.0 - tiered / all_ddr
    assert 0.25 <= saving <= 0.65
