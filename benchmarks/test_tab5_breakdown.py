"""Table 5: runtime breakdown with overlap disabled."""

from repro.experiments import tab5_breakdown


def test_tab5_breakdown(run_once):
    result = run_once(tab5_breakdown.run)
    print()
    print(result.render())

    def cell(column, framework, batch):
        return result.value(column, framework=framework,
                            batch_size=batch)

    # IPEX: CPU-only by construction.
    for batch in (1, 64, 900):
        assert cell("gpu_s", "ipex", batch) == 0.0
        assert cell("com_s", "ipex", batch) == 0.0

    # LIA at B=1 lands near the paper's 3.8/1.2/0.1 split: CPU-heavy,
    # some GPU (resident layers), negligible communication.
    assert 2.0 <= cell("cpu_s", "lia", 1) <= 6.0
    assert 0.4 <= cell("gpu_s", "lia", 1) <= 2.5
    assert cell("com_s", "lia", 1) <= 0.5

    # FlexGen at B=1: communication dominates (paper: 31.3 s of 32.6).
    fg_com = cell("com_s", "flexgen", 1)
    fg_total = cell("total_s", "flexgen", 1)
    assert fg_com / fg_total > 0.85

    # LIA's communication is far below FlexGen's at every batch size
    # (the §7.2 "31x to 222,524x" transfer reduction).
    for batch in (1, 64, 900):
        assert cell("com_s", "lia", batch) < cell("com_s", "flexgen",
                                                  batch)

    # LIA's total compute is far below IPEX's at B=900 (paper: 279.6
    # vs 1216.5) thanks to the GPU.
    lia_compute = cell("cpu_s", "lia", 900) + cell("gpu_s", "lia", 900)
    ipex_compute = cell("cpu_s", "ipex", 900)
    assert ipex_compute / lia_compute >= 3.0
