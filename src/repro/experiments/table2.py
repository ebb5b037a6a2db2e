"""Table II — weighted fairness of wTOP-CSMA.

Ten stations with weights (1, 1, 1, 2, 2, 2, 3, 3, 3, 3) share a fully
connected channel under wTOP-CSMA.  The paper's result: every station's
*normalised* throughput (throughput / weight) is essentially equal
(~1.06 Mbps) and the total is ~22.4 Mbps — i.e. the scheme is weighted-fair
*and* throughput-optimal simultaneously.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..analysis.fairness import weighted_fairness_report
from ..phy.constants import PhyParameters
from .campaign import CampaignExecutor, SchemeSpec
from .config import ExperimentConfig, QUICK
from .runner import (
    ExperimentResult,
    ExperimentRow,
    connected_task,
    default_executor,
)

__all__ = ["run_table2", "PAPER_WEIGHTS"]

#: The weight assignment used in the paper's Table II.
PAPER_WEIGHTS: Tuple[float, ...] = (1, 1, 1, 2, 2, 2, 3, 3, 3, 3)


def run_table2(
    config: ExperimentConfig = QUICK,
    phy: Optional[PhyParameters] = None,
    weights: Sequence[float] = PAPER_WEIGHTS,
    seed: int = 1,
    executor: Optional[CampaignExecutor] = None,
) -> ExperimentResult:
    """Reproduce Table II (per-station weighted fairness under wTOP-CSMA)."""
    executor = executor or default_executor()
    weights = tuple(float(w) for w in weights)
    spec = SchemeSpec.make(
        "wtop-csma", weights=weights, update_period=config.update_period
    )
    [result] = executor.run([connected_task(
        spec, len(weights), config, seed, phy=phy,
        label=f"table2/seed={seed}",
    )])
    report = weighted_fairness_report(result.per_station_throughput_bps, weights)

    rows = [
        ExperimentRow(
            label=f"station {station}",
            values={
                "weight": weight,
                "throughput (Mbps)": throughput_mbps,
                "normalized (Mbps)": normalized_mbps,
            },
        )
        for station, weight, throughput_mbps, normalized_mbps in report.rows()
    ]
    return ExperimentResult(
        name="Table II",
        description="wTOP-CSMA weighted fairness, 10 stations, fully connected",
        columns=("weight", "throughput (Mbps)", "normalized (Mbps)"),
        rows=tuple(rows),
        metadata={
            "total_throughput_mbps": round(report.total_throughput_bps / 1e6, 3),
            "jain_index_normalized": round(report.jain_index_normalized, 5),
            "max_relative_deviation": round(report.max_relative_deviation, 4),
            "weights": weights,
            "seed": seed,
            "adaptive_warmup_s": config.adaptive_warmup,
            "measure_duration_s": config.measure_duration,
        },
    )
