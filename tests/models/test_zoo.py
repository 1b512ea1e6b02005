"""Model zoo registry."""

import pytest

from repro.errors import ConfigurationError
from repro.models.zoo import MODEL_ZOO, get_model


def test_paper_models_present():
    for name in ("opt-30b", "opt-66b", "opt-175b", "llama2-70b",
                 "chinchilla-70b", "bloom-176b"):
        assert name in MODEL_ZOO


def test_parameter_counts_match_names():
    expectations = {
        "opt-6.7b": 6.7e9,
        "opt-13b": 13e9,
        "opt-30b": 30e9,
        "opt-66b": 66e9,
        "opt-175b": 175e9,
        "llama2-70b": 70e9,
        "chinchilla-70b": 70e9,
        "bloom-176b": 176e9,
    }
    for name, expected in expectations.items():
        spec = get_model(name)
        assert spec.total_params == pytest.approx(expected, rel=0.12), name


def test_unknown_model_raises():
    with pytest.raises(ConfigurationError, match="unknown model"):
        get_model("gpt-5")


def test_tiny_model_is_small():
    tiny = get_model("opt-tiny")
    assert tiny.total_params < 1_000_000
