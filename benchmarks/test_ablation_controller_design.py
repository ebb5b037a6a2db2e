"""Ablations of the controller design choices :mod:`repro.core.wtop` lists.

Two calibrations distinguish the implementation from a literal transcription
of Algorithm 1, and both are exercised here against the *analytical* plant
(Eq. 3 plus noise), so the ablation is fast and isolates the controller:

1. **Control-variable mapping** — optimising ``log(p)`` (default) vs the
   paper-literal linear ``p``.  With the realistic optimum ``p* ~ 1/N`` the
   log-domain controller reaches a near-optimal operating point quickly,
   while the linear-domain controller is still far away after the same
   number of updates (because its perturbation ``b_k`` dwarfs ``p*``).
2. **Throughput normalisation** — scaling measurements to O(1) vs feeding raw
   bits/s into the gradient.  Without normalisation the update saturates the
   clipping bounds and the centre bangs between the extremes.
"""

import numpy as np
import pytest

from repro.analysis.persistent import (
    optimal_attempt_probability,
    system_throughput_weighted,
)
from repro.core.mapping import LinearMapping
from repro.core.wtop import WTopCsmaController
from repro.experiments.runner import ExperimentResult, ExperimentRow
from repro.phy.constants import PhyParameters

NUM_STATIONS = 40
UPDATES = 150


def closed_loop_throughput(controller, phy, seed=5):
    """Run the controller against the Eq. (3) plant; return final throughput.

    Each loop iteration is one measurement segment of one (virtual) second:
    the tick at the segment boundary closes the previous segment, the probe
    value advertised for the new segment is read, and the bits received at
    that probe are delivered mid-segment.
    """
    rng = np.random.default_rng(seed)
    weights = [1.0] * NUM_STATIONS
    now = 0.0
    for _ in range(2 * UPDATES):
        controller.on_tick(now)
        p = controller.control()["p"]
        throughput = system_throughput_weighted(p, weights, phy)
        throughput *= 1.0 + rng.normal(0, 0.03)
        controller.on_packet_received(0, int(max(throughput, 0.0)), now + 0.5)
        now += 1.0
    return system_throughput_weighted(controller.center_p, weights, phy)


@pytest.mark.benchmark(group="ablation")
def test_ablation_controller_design(benchmark, record_result):
    phy = PhyParameters()
    p_star = optimal_attempt_probability(NUM_STATIONS, phy)
    optimum = system_throughput_weighted(p_star, [1.0] * NUM_STATIONS, phy)

    def run_all():
        variants = {
            "log mapping + normalised (default)": WTopCsmaController(
                update_period=1.0
            ),
            "linear mapping + normalised": WTopCsmaController(
                update_period=1.0, mapping=LinearMapping(0.0, 0.9)
            ),
            "log mapping, no normalisation": WTopCsmaController(
                update_period=1.0, throughput_scale=1.0
            ),
        }
        return {
            name: closed_loop_throughput(controller, phy) / optimum
            for name, controller in variants.items()
        }

    fractions = benchmark.pedantic(run_all, rounds=1, iterations=1)

    result = ExperimentResult(
        name="Ablation: wTOP-CSMA controller design",
        description=(
            f"Fraction of the optimal throughput reached after {UPDATES} "
            f"Kiefer-Wolfowitz updates against the analytical plant (N={NUM_STATIONS})"
        ),
        columns=("fraction of optimum",),
        rows=tuple(
            ExperimentRow(label=name, values={"fraction of optimum": value})
            for name, value in fractions.items()
        ),
        metadata={"num_stations": NUM_STATIONS, "updates": UPDATES},
    )
    record_result(result, "ablation_controller.txt")

    default = fractions["log mapping + normalised (default)"]
    linear = fractions["linear mapping + normalised"]
    unnormalised = fractions["log mapping, no normalisation"]

    assert default > 0.93
    # The default calibration must not be worse than either ablated variant.
    assert default >= linear - 0.02
    assert default >= unnormalised - 0.02
