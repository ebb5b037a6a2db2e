"""repro — reproduction of "Stochastic Approximation Algorithm for Optimal
Throughput Performance of Wireless LANs" (Krishnan & Chaporkar, 2010).

The package is organised as:

* :mod:`repro.phy`        — PHY timing constants and frames;
* :mod:`repro.topology`   — node placement, the decode and carrier-sense
  radii, sensing sets and hidden-node analysis;
* :mod:`repro.mac`        — backoff policies (802.11 DCF, p-persistent,
  RandomReset, IdleSense) and named schemes;
* :mod:`repro.core`       — the paper's contribution: Kiefer-Wolfowitz
  stochastic approximation plus the wTOP-CSMA and TORA-CSMA AP controllers;
* :mod:`repro.sim`        — event-driven and slotted WLAN simulators;
* :mod:`repro.traffic`    — workload models: arrival processes (Poisson,
  CBR, on-off bursty) and bounded per-station frame queues;
* :mod:`repro.analysis`   — Bianchi / p-persistent / RandomReset analytical
  models, quasi-concavity checks and fairness metrics;
* :mod:`repro.experiments`— runners that regenerate every figure and table of
  the paper's evaluation.

Quickstart::

    from repro.mac import wtop_csma_scheme
    from repro.sim import run_slotted

    result = run_slotted(wtop_csma_scheme(), num_stations=20,
                         duration=2.0, warmup=2.0, seed=1)
    print(f"{result.total_throughput_mbps:.2f} Mbps")
"""

from .phy import DEFAULT_PHY, PhyParameters

__version__ = "1.0.0"

__all__ = ["DEFAULT_PHY", "PhyParameters", "__version__"]
