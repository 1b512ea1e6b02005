"""Estimates do not depend on the process that computes them."""

from repro.core.config import LiaConfig
from repro.core.estimator import LiaEstimator
from repro.hardware.system import get_system
from repro.models.workload import InferenceRequest
from repro.models.zoo import get_model

#: Prints, as JSON, the opt-tiny latencies of the (batch, input, output)
#: points given on argv, estimated in a fresh interpreter.
ESTIMATES = """
import json
import sys
from repro.core.config import LiaConfig
from repro.core.estimator import LiaEstimator
from repro.hardware.system import get_system
from repro.models.workload import InferenceRequest
from repro.models.zoo import get_model

estimator = LiaEstimator(get_model("opt-tiny"), get_system("spr-a100"),
                         LiaConfig(enforce_host_capacity=False))
print(json.dumps([estimator.estimate(InferenceRequest(*point)).latency
                  for point in json.loads(sys.argv[1])]))
"""

POINTS = [(1, 8, 1), (2, 32, 4), (3, 17, 8), (4, 64, 2), (1, 63, 7),
          (4, 9, 3)]


def test_estimates_invariant_across_process_counts(fresh_interpreter):
    """Points split across 1 and 2 fresh interpreters, each with its own
    hash seed, give the in-process latencies exactly."""
    estimator = LiaEstimator(get_model("opt-tiny"), get_system("spr-a100"),
                             LiaConfig(enforce_host_capacity=False))
    baseline = [estimator.estimate(InferenceRequest(*point)).latency
                for point in POINTS]
    for processes in (1, 2):
        size = len(POINTS) // processes
        latencies = []
        for hash_seed in range(processes):
            chunk = POINTS[hash_seed * size:(hash_seed + 1) * size]
            latencies += fresh_interpreter(ESTIMATES, chunk, hash_seed)
        assert latencies == baseline
