"""Eq. (1) differentials at full size: the dense Fig. 9 grid, every
Fig. 10/11 LIA and FlexGen row, and the batched sweep."""

import numpy as np
import pytest

from repro.experiments import fig10_online_latency, fig11_offline_throughput
from repro.experiments.fig09_policy_map import DEFAULT_BATCHES
from repro.experiments.frameworks import EVAL_CONFIG
from repro.hardware.system import get_system
from repro.models.sublayers import Stage
from repro.models.zoo import get_model
from tests.oracles.cli_smokes import check_sweep
from tests.oracles.differentials import (check_candidate_scores,
                                         check_figure_rows)


@pytest.mark.parametrize("stage", list(Stage), ids=lambda s: s.value)
@pytest.mark.parametrize("system", ["spr-a100", "spr-h100"])
def test_dense_fig09_grid_every_candidate(system, stage):
    """OPT-175B, Fig. 9's nine batches x L = 32..2048 step 32."""
    check_candidate_scores(get_model("opt-175b"), stage,
                           np.array(DEFAULT_BATCHES)[:, np.newaxis],
                           np.arange(32, 2049, 32)[np.newaxis, :],
                           get_system(system), EVAL_CONFIG)


@pytest.mark.parametrize("figure, metric", [
    (fig10_online_latency, "latency_s"),
    (fig11_offline_throughput, "tokens_per_s")], ids=["fig10", "fig11"])
def test_every_figure_row(figure, metric):
    assert check_figure_rows(figure.run().rows, metric) > 0


def test_batched_sweep(tmp_path):
    check_sweep(tmp_path, [1, 16], [32, 256], [8, 32])
