"""Dollar-cost models (Fig. 14 and the §8 discussion).

Following the paper's footnote 7: system cost amortizes over three
years, power is estimated from TDP, and electricity costs $0.10/kWh
(Louisiana, the cheapest U.S. rate).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.estimator import InferenceEstimate
from repro.energy.power import PowerModel
from repro.errors import ConfigurationError
from repro.hardware.memory import CXL_COST_PER_GB, DDR_COST_PER_GB
from repro.hardware.system import SystemConfig
from repro.units import HOURS_PER_YEAR, SECONDS_PER_HOUR

#: Footnote 7 assumptions.
AMORTIZATION_YEARS = 3.0
ELECTRICITY_USD_PER_KWH = 0.10


@dataclass(frozen=True)
class CostModel:
    """Per-hour operating cost of a system."""

    system: SystemConfig

    @property
    def capital_usd_per_hour(self) -> float:
        hours = AMORTIZATION_YEARS * HOURS_PER_YEAR
        return self.system.price_usd / hours

    def power_usd_per_hour(self, average_power_watts: float) -> float:
        if average_power_watts < 0.0:
            raise ConfigurationError("power must be >= 0")
        return average_power_watts / 1000.0 * ELECTRICITY_USD_PER_KWH

    def usd_per_hour(self, average_power_watts: float = None) -> float:
        """Total $/hour; defaults to TDP power as the paper does."""
        power = (self.system.tdp_watts if average_power_watts is None
                 else average_power_watts)
        return self.capital_usd_per_hour + self.power_usd_per_hour(power)


def cost_per_million_tokens(system: SystemConfig,
                            estimate: InferenceEstimate) -> float:
    """Dollars per million generated tokens at the run's measured
    power (the Fig. 14 metric)."""
    power = PowerModel(system).average_power(estimate)
    usd_per_second = (CostModel(system).usd_per_hour(power)
                      / SECONDS_PER_HOUR)
    tokens_per_second = estimate.throughput
    if tokens_per_second <= 0.0:
        raise ConfigurationError("estimate has zero throughput")
    return usd_per_second / tokens_per_second * 1e6


def memory_system_cost(ddr_bytes: float, cxl_bytes: float = 0.0) -> float:
    """Memory bill in USD for a DDR(+CXL) configuration.

    Reproduces §8's example: an OPT-175B-capable all-DDR memory system
    costs ~$6,300; moving 43 % of the data to CXL cuts it to ~$3,200.
    """
    if ddr_bytes < 0.0 or cxl_bytes < 0.0:
        raise ConfigurationError("byte counts must be >= 0")
    return (ddr_bytes / 1e9 * DDR_COST_PER_GB
            + cxl_bytes / 1e9 * CXL_COST_PER_GB)


def tokens_per_second_per_watt(system: SystemConfig,
                               estimate: InferenceEstimate) -> float:
    """The §7.6 cost-efficiency metric: tokens/s/W(TDP)."""
    if system.tdp_watts <= 0.0:
        raise ConfigurationError("system TDP must be positive")
    return estimate.throughput / system.tdp_watts
