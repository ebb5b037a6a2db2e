"""wTOP-CSMA: Weighted-fair Throughput-Optimal p-persistent CSMA (Algorithm 1).

The access point measures throughput over segments of length
``UPDATE_PERIOD`` while advertising the attempt probability derived from
``x = pval + b_k`` during the first segment of each frame and from
``x = pval - b_k`` during the second.  After each (+, -) pair the centre
``pval`` moves along the stochastic throughput gradient (Kiefer-Wolfowitz).
Stations map the advertised ``p`` through their weight (Lemma 1) to obtain
their own attempt probability.

Two implementation calibrations, recorded in DESIGN.md, adapt the pseudo code
to something that converges in practice:

* **Throughput normalisation.**  The raw segment throughput (bits/s) is
  divided by ``throughput_scale`` (default: the channel bit rate) so the
  stochastic gradient has magnitude O(1); otherwise the ``a_k (y+ - y-)/b_k``
  step would saturate the clipping bounds on every update.
* **Log-domain control variable.**  By default the optimiser works on
  ``x = log(p)`` rescaled to [0, 1] (see :class:`~repro.core.mapping.LogMapping`),
  because the optimum ``p* ~ 1/N`` is far smaller than the additive
  perturbations ``b_k`` early in the run.  Quasi-concavity is preserved under
  the monotone reparameterisation, so Theorem 2's argument still applies.
  Pass ``mapping=LinearMapping(0.0, 0.9)`` for the paper-literal behaviour.

The controller is transport-agnostic: it only needs to be told about
successful receptions (``on_packet_received``), queried for the control
values to embed in ACKs (``control``), and poked periodically (``on_tick``)
so that a starving probe value cannot stall adaptation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..phy.constants import DEFAULT_BIT_RATE
from .controller import AccessPointController, ControlUpdate, SegmentThroughputMeter
from .kiefer_wolfowitz import GainSchedule, TwoSidedGradientTracker
from .mapping import ControlMapping, LogMapping

__all__ = [
    "WTopCsmaController",
    "DEFAULT_UPDATE_PERIOD",
    "DEFAULT_P_MAX",
    "CONTROLLER_GAIN_SCHEDULE",
]

#: The paper simulates with an UPDATE_PERIOD of 250 ms.
DEFAULT_UPDATE_PERIOD = 0.25

#: Algorithm 1 clips the advertised probability to at most 0.9.
DEFAULT_P_MAX = 0.9

#: Gain schedule used by the controllers.  The exponents are the paper's
#: (``a_k ~ 1/k``, ``b_k ~ 1/k^(1/3)``); the scales are calibrated so that
#: probes stay informative once throughput is normalised to [0, 1].
CONTROLLER_GAIN_SCHEDULE = GainSchedule(a0=0.4, b0=0.2, alpha=1.0, gamma=1.0 / 3.0)


class WTopCsmaController(AccessPointController):
    """AP-side wTOP-CSMA controller.

    Parameters
    ----------
    update_period:
        Segment length ``UPDATE_PERIOD`` in seconds.  The paper recommends a
        value covering roughly 500 successful transmissions and uses 250 ms
        in its ns-3 runs.
    initial_control:
        Starting centre value in the optimiser domain ``[0, 1]`` (0.5 by
        default, the midpoint of the mapping range — the paper starts
        ``pval`` at 0.5 as well).
    mapping:
        How the optimiser variable translates into the advertised attempt
        probability.  Default: log-uniform over ``[1e-4, 0.5]``.
    schedule:
        Kiefer-Wolfowitz gain sequences.
    throughput_scale:
        Divisor applied to measured throughput before it enters the gradient
        (default: the 54 Mbps channel rate).
    initial_k:
        First iteration index (paper: 2).
    """

    name = "wTOP-CSMA"

    def __init__(
        self,
        update_period: float = DEFAULT_UPDATE_PERIOD,
        initial_control: float = 0.5,
        mapping: Optional[ControlMapping] = None,
        schedule: GainSchedule = CONTROLLER_GAIN_SCHEDULE,
        throughput_scale: float = DEFAULT_BIT_RATE,
        initial_k: int = 2,
        initial_p: Optional[float] = None,
    ) -> None:
        if throughput_scale <= 0:
            raise ValueError("throughput_scale must be positive")
        self._mapping = mapping or LogMapping(low=1e-4, high=DEFAULT_P_MAX)
        if initial_p is not None:
            initial_control = self._mapping.to_control(initial_p)
        if not 0.0 <= initial_control <= 1.0:
            raise ValueError("initial_control must lie in [0, 1]")
        self._update_period = float(update_period)
        self._initial_control = float(initial_control)
        self._schedule = schedule
        self._throughput_scale = float(throughput_scale)
        self._initial_k = int(initial_k)
        self._meter = SegmentThroughputMeter(update_period)
        self._tracker = TwoSidedGradientTracker(
            initial=initial_control,
            schedule=schedule,
            bounds=(0.0, 1.0),
            probe_bounds=(0.0, 1.0),
            initial_k=initial_k,
        )
        self._history: List[ControlUpdate] = []

    # ------------------------------------------------------------------
    # AccessPointController interface
    # ------------------------------------------------------------------
    def on_packet_received(self, source: int, payload_bits: int, now: float) -> None:
        """Accumulate received bits; close segments and update ``pval``."""
        throughput = self._meter.observe(payload_bits, now)
        if throughput is not None:
            self._apply_measurement(throughput, now)

    def on_tick(self, now: float) -> bool:
        """Close an expired segment even if no packet arrived during it."""
        throughput = self._meter.maybe_close(now)
        if throughput is None:
            return False
        self._apply_measurement(throughput, now)
        return True

    @property
    def tick_interval(self) -> Optional[float]:
        return self._update_period

    def control(self) -> Dict[str, float]:
        """Control mapping advertised in ACKs: the probe probability ``p``."""
        return {"p": self.advertised_p}

    def history(self) -> Tuple[ControlUpdate, ...]:
        return tuple(self._history)

    def reset(self) -> None:
        self._meter = SegmentThroughputMeter(self._update_period)
        self._tracker = TwoSidedGradientTracker(
            initial=self._initial_control,
            schedule=self._schedule,
            bounds=(0.0, 1.0),
            probe_bounds=(0.0, 1.0),
            initial_k=self._initial_k,
        )
        self._history.clear()

    # ------------------------------------------------------------------
    def _apply_measurement(self, throughput_bps: float, now: float) -> None:
        self._tracker.observe(throughput_bps / self._throughput_scale)
        self._history.append(
            ControlUpdate(time=now, control=self.control(), throughput_bps=throughput_bps)
        )

    # ------------------------------------------------------------------
    # Introspection used by experiments and tests
    # ------------------------------------------------------------------
    @property
    def update_period(self) -> float:
        return self._update_period

    @property
    def mapping(self) -> ControlMapping:
        return self._mapping

    @property
    def center(self) -> float:
        """Current centre estimate in the optimiser domain ``[0, 1]``."""
        return self._tracker.center

    @property
    def center_p(self) -> float:
        """Current centre estimate mapped to an attempt probability."""
        return self._mapping.to_parameter(self._tracker.center)

    @property
    def advertised_p(self) -> float:
        """The probability currently advertised to stations."""
        return self._mapping.to_parameter(self._tracker.probe)

    @property
    def iteration(self) -> int:
        """Kiefer-Wolfowitz iteration counter ``k``."""
        return self._tracker.iteration

    @property
    def updates(self) -> int:
        """Number of completed gradient updates."""
        return self._tracker.updates

    def segments(self) -> Tuple[Tuple[float, float], ...]:
        """Measured segments ``(end_time, throughput_bps)``."""
        return self._meter.segments()

    def convergence_trace(self) -> Tuple[Tuple[float, float], ...]:
        """``(time, p)`` samples for Figure 9 style convergence plots."""
        return tuple((update.time, update.control["p"]) for update in self._history)
