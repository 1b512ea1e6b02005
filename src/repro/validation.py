"""Calibration self-check: every paper-anchored constant, verified.

The performance models stand on numbers the paper itself reports
(§4's microbenchmarks, §2.3's CXL characteristics, footnote 2's
transfer time, §7.1's policy thresholds).  This module recomputes each
anchor from the live models and compares it against its target band,
so a refactor that silently drifts the calibration fails loudly —
both in the test suite and via ``python -m repro calibrate``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.config import LiaConfig
from repro.core.optimizer import (
    decode_policy_threshold,
    prefill_policy_transition,
)
from repro.hardware.cpu import get_cpu
from repro.hardware.gpu import get_gpu
from repro.hardware.interconnect import get_link
from repro.hardware.memory import cxl_expander, ddr_subsystem, interleave
from repro.hardware.roofline import MatmulKind
from repro.hardware.system import get_system
from repro.models.zoo import get_model


@dataclass(frozen=True)
class CalibrationCheck:
    """One anchor: the paper's value, ours, and the accepted band."""

    name: str
    paper_value: float
    measured: float
    low: float
    high: float
    unit: str = ""
    source: str = ""

    @property
    def ok(self) -> bool:
        return self.low <= self.measured <= self.high

    def render(self) -> str:
        status = "ok " if self.ok else "FAIL"
        return (f"[{status}] {self.name:<42} paper={self.paper_value:<10g}"
                f" measured={self.measured:<10.4g} "
                f"band=[{self.low:g}, {self.high:g}] {self.unit}")


def _gemm_tput_tflops(engine) -> float:
    bl = 36864
    spec = get_model("opt-175b")
    d = spec.d_model
    return engine.matmul_throughput(8.0 * bl * d * d,
                                    2.0 * bl * d + 8.0 * d * d) / 1e12


def _gemv_tput_gflops(engine) -> float:
    flops = 1e9
    return engine.matmul_throughput(flops, flops,
                                    MatmulKind.BATCHED_GEMV) / 1e9


def run_calibration() -> List[CalibrationCheck]:
    """Compute every anchor; see each check's ``source`` for the
    paper section it comes from."""
    spr = get_cpu("spr")
    gnr = get_cpu("gnr")
    checks: List[CalibrationCheck] = []

    checks.append(CalibrationCheck(
        "SPR-AMX theoretical GEMM peak", 90.1,
        spr.engine("amx").peak_flops / 1e12, 89.0, 91.5, "TFLOPS",
        "§4.1"))
    checks.append(CalibrationCheck(
        "SPR-AMX measured GEMM throughput", 20.0,
        _gemm_tput_tflops(spr.engine("amx")), 18.0, 22.0, "TFLOPS",
        "abstract / §4.1"))
    checks.append(CalibrationCheck(
        "GNR-AMX measured GEMM throughput", 40.0,
        _gemm_tput_tflops(gnr.engine("amx")), 36.0, 46.0, "TFLOPS",
        "abstract / §4.1"))
    checks.append(CalibrationCheck(
        "AVX512 measured GEMM throughput", 4.4,
        _gemm_tput_tflops(spr.engine("avx512")), 4.0, 4.9, "TFLOPS",
        "§4.1 (AMX is 4.5x)"))
    checks.append(CalibrationCheck(
        "AMX/AVX512 theoretical ratio", 8.0,
        spr.engine("amx").peak_flops / spr.engine("avx512").peak_flops,
        7.9, 8.1, "x", "§4.1"))
    checks.append(CalibrationCheck(
        "SPR DDR bandwidth", 260.0, spr.memory.bandwidth / 1e9,
        250.0, 270.0, "GB/s", "§4.2"))
    checks.append(CalibrationCheck(
        "SPR GEMV throughput", 199.0,
        _gemv_tput_gflops(spr.engine("amx")), 190.0, 208.0, "GFLOPS",
        "§4.2"))
    checks.append(CalibrationCheck(
        "GNR GEMV gain over SPR", 1.7,
        _gemv_tput_gflops(gnr.engine("amx"))
        / _gemv_tput_gflops(spr.engine("amx")), 1.5, 1.9, "x", "§4.2"))

    spec = get_model("opt-175b")
    checks.append(CalibrationCheck(
        "OPT-175B parameters", 175.0, spec.total_params / 1e9,
        172.0, 178.0, "B params", "§1"))
    checks.append(CalibrationCheck(
        "OPT-175B weights over PCIe 5.0", 5.0,
        get_link("pcie5").transfer_time(spec.total_param_bytes),
        4.5, 7.0, "s", "§1 footnote 2"))
    checks.append(CalibrationCheck(
        "OPT-175B @ B=1024, L=256 footprint", 1.4,
        spec.inference_memory_bytes(1024, 256) / 1e12, 1.3, 1.8, "TB",
        "§6"))

    ddr = ddr_subsystem("cal-ddr", 8, 4800, 512)
    pool = interleave([cxl_expander("cal-a"), cxl_expander("cal-b")])
    checks.append(CalibrationCheck(
        "CXL expander bandwidth", 17.0,
        cxl_expander("cal").bandwidth / 1e9, 16.5, 17.5, "GB/s", "§6"))
    checks.append(CalibrationCheck(
        "CXL latency penalty over DDR", 155.0,
        (cxl_expander("cal").latency - ddr.latency) * 1e9,
        140.0, 170.0, "ns", "§2.3"))
    checks.append(CalibrationCheck(
        "2x-interleaved CXL vs PCIe 4.0", 1.0,
        pool.bandwidth / get_link("pcie4").bandwidth, 1.0, 1.4, "x",
        "§6 Observation-1"))

    config = LiaConfig(enforce_host_capacity=False)
    system = get_system("spr-a100")
    checks.append(CalibrationCheck(
        "decode full-CPU threshold (SPR-A100)", 858.0,
        decode_policy_threshold(spec, system, config), 300.0, 1400.0,
        "B", "§7.1"))
    checks.append(CalibrationCheck(
        "prefill full-CPU frontier (SPR-A100)", 850.0,
        prefill_policy_transition(spec, system, config), 300.0, 1600.0,
        "B*L", "§7.1"))

    h100 = get_gpu("h100").engine
    checks.append(CalibrationCheck(
        "SPR-AMX / H100 GEMM fraction", 0.05,
        _gemm_tput_tflops(spr.engine("amx")) / _gemm_tput_tflops(h100),
        0.03, 0.08, "", "§4.1"))
    return checks


def calibration_ok() -> bool:
    """True when every anchor sits inside its band."""
    return all(check.ok for check in run_calibration())


def render_report() -> str:
    """The full calibration report as printable text."""
    checks = run_calibration()
    lines = [check.render() for check in checks]
    failed = sum(1 for check in checks if not check.ok)
    lines.append(f"{len(checks) - failed}/{len(checks)} anchors in band")
    return "\n".join(lines)
