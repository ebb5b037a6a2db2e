"""Scheme kinds: each MAC scheme declared once, for every backend.

The paper's evaluation compares four schemes and sweeps two open-loop
families over their control variables (Figures 2, 4, 5 and 13); the
model-based prior art is a fifth, extension-only scheme.  Each is a *kind*
in :data:`SCHEME_KINDS`:

=====================  ==========================  ========  ==================
kind                   display name                adaptive  batched banks
=====================  ==========================  ========  ==================
``standard-802.11``    Standard 802.11             no        DCF
``idlesense``          IdleSense                   yes       IdleSense
``wtop-csma``          wTOP-CSMA                   yes       p-persistent, wTOP
``tora-csma``          TORA-CSMA                   yes       RandomReset, TORA
``n-estimating``       N-estimating p-persistent   yes       none
``fixed-p``            p-persistent(p=...)         no        p-persistent
``fixed-randomreset``  RandomReset(j=..., p0=...)  no        RandomReset
=====================  ==========================  ========  ==================

Each :class:`SchemeKind` declaration holds everything every backend needs
to know about its kind:

* ``kind`` — the key above, which the campaign and the batched kernels use;
* ``name`` — the display name, a format string over the parameters;
* ``adaptive`` — whether the scheme adapts over time (experiments then
  measure after the longer adaptive warm-up);
* ``defaults`` — every parameter the kind takes, with its default
  (:data:`REQUIRED` marks one without);
* ``scalar`` — builds the per-station policy factory and the AP controller
  factory of a :class:`Scheme`, which the slotted and event-driven
  simulators run;
* ``banks`` — builds the (policy bank, controller bank) pair the batched
  kernels run (:mod:`repro.mac.batched`, :mod:`repro.core.batched`), with
  per-cell or per-station channel observations as the kernel asks; ``None``
  when no kernel models the kind.

A kind takes its declared parameters and nothing else, so every parameter
reaches both builders.  The controllers' further keywords (a control
mapping, a gain schedule, the first iteration, the throughput scale) have
no declared counterpart and keep their defaults: code that needs another
value builds its controller directly.

The campaign's ``SchemeSpec`` (kind plus parameters), the batched kernels'
``make_batched_system`` and the batching planner's eligibility check all
read this table, so a name or a default changes on every backend at once.
The named factories below (``wtop_csma_scheme`` and so on) build a scalar
:class:`Scheme` of one kind each.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Mapping, Optional, Sequence

from ..core.batched import (
    BatchedStaticBank,
    BatchedToraBank,
    BatchedWTopBank,
)
from ..core.controller import AccessPointController, StaticController
from ..core.tora import (
    DEFAULT_HIGH_THRESHOLD,
    DEFAULT_LOW_THRESHOLD,
    ToraCsmaController,
)
from ..core.wtop import DEFAULT_UPDATE_PERIOD, WTopCsmaController
from ..phy.constants import PhyParameters
from .backoff import (
    BackoffPolicy,
    PPersistentBackoff,
    RandomResetBackoff,
    StandardExponentialBackoff,
)
from .batched import (
    BatchedDcfBank,
    BatchedIdleSenseBank,
    BatchedPPersistentBank,
    BatchedRandomResetBank,
    BatchedStationIdleSenseBank,
)
from .idlesense import DEFAULT_TARGET_IDLE_SLOTS, IdleSenseBackoff
from .ntuning import NEstimatingPersistentBackoff

__all__ = [
    "REQUIRED",
    "SCHEME_KINDS",
    "Scheme",
    "SchemeKind",
    "scheme_kind",
    "standard_80211_scheme",
    "idlesense_scheme",
    "wtop_csma_scheme",
    "tora_csma_scheme",
    "n_estimating_scheme",
    "fixed_p_persistent_scheme",
    "fixed_randomreset_scheme",
]

PolicyFactory = Callable[[int], BackoffPolicy]
ControllerFactory = Callable[[], AccessPointController]


@dataclass(frozen=True)
class Scheme:
    """A complete MAC scheme: per-station policies plus the AP controller.

    Attributes
    ----------
    name:
        Display name used in experiment reports.
    policy_factory:
        Callable mapping a station index to a fresh policy instance.
    controller_factory:
        Callable creating the AP controller (a no-op
        :class:`StaticController` for non-adaptive schemes).
    adaptive:
        Whether the AP controller actually adapts anything (affects how long
        experiments must run before measuring steady-state throughput).
    """

    name: str
    policy_factory: PolicyFactory
    controller_factory: ControllerFactory
    adaptive: bool = False

    def make_policies(self, num_stations: int) -> list:
        """Instantiate one policy per station."""
        if num_stations < 1:
            raise ValueError("num_stations must be at least 1")
        return [self.policy_factory(i) for i in range(num_stations)]

    def make_controller(self) -> AccessPointController:
        """Instantiate the AP controller."""
        return self.controller_factory()


#: Marks a parameter without a default in :attr:`SchemeKind.defaults`.
REQUIRED = object()


@dataclass(frozen=True)
class SchemeKind:
    """One scheme kind, declared once for every backend.

    The module docstring says what each field holds.  Both builders get the
    declared parameters, defaults filled in, as the attributes of ``a``:
    ``scalar(phy, a)`` returns the (policy factory, controller factory) pair
    of a :class:`Scheme`; ``banks(phy, a, num_cells, max_stations,
    per_station)`` returns the (policy bank, controller bank) pair.
    """

    kind: str
    name: str
    adaptive: bool
    defaults: Mapping[str, object]
    scalar: Callable
    banks: Optional[Callable] = None

    def resolve(self, params: Mapping[str, object]) -> SimpleNamespace:
        """The declared parameters, with defaults filled in.

        ``TypeError`` names a parameter the kind does not declare, or a
        :data:`REQUIRED` one left out.
        """
        unknown = sorted(set(params).difference(self.defaults))
        if unknown:
            raise TypeError(f"scheme kind '{self.kind}' takes no "
                            f"parameter(s) {unknown}")
        args = {k: params.get(k, v) for k, v in self.defaults.items()}
        missing = sorted(k for k, v in args.items() if v is REQUIRED)
        if missing:
            raise TypeError(f"scheme kind '{self.kind}' needs parameter(s) "
                            f"{missing}")
        return SimpleNamespace(**args)

    def scheme(self, phy: Optional[PhyParameters] = None, **params) -> Scheme:
        """The scalar :class:`Scheme` for these parameters."""
        args = self.resolve(params)
        policy, controller = self.scalar(phy or PhyParameters(), args)
        return Scheme(self.name.format(**vars(args)), policy, controller,
                      self.adaptive)

    @property
    def batchable(self) -> bool:
        """Whether a batched kernel models the kind."""
        return self.banks is not None

    def batched(self, params: Mapping[str, object], num_cells: int,
                max_stations: int, phy: PhyParameters,
                per_station: bool = False):
        """(policy bank, controller bank, display name) for a batch."""
        if not self.batchable:
            raise ValueError(f"scheme kind '{self.kind}' has no batched "
                             f"kernel")
        args = self.resolve(params)
        policy, controller = self.banks(phy, args, num_cells, max_stations,
                                        per_station)
        return policy, controller, self.name.format(**vars(args))


def _weight_for(weights: Optional[Sequence[float]], station: int) -> float:
    if weights is None:
        return 1.0
    return float(weights[station])


def _dcf(phy, a):
    return (lambda station: StandardExponentialBackoff(phy)), StaticController


def _dcf_banks(phy, a, cells, stations, per_station):
    return BatchedDcfBank(phy, cells, stations), BatchedStaticBank()


def _idlesense(phy, a):
    return (lambda station: IdleSenseBackoff(
        phy, target_idle_slots=a.target_idle_slots)), StaticController


def _idlesense_banks(phy, a, cells, stations, per_station):
    target = float(a.target_idle_slots)
    if per_station:
        bank = BatchedStationIdleSenseBank(phy, cells, stations,
                                           target_idle_slots=target)
    else:
        bank = BatchedIdleSenseBank(phy, cells, target_idle_slots=target)
    return bank, BatchedStaticBank()


def _wtop(phy, a):
    return (
        lambda station: PPersistentBackoff(
            p=a.initial_station_p, weight=_weight_for(a.weights, station)),
        lambda: WTopCsmaController(
            update_period=a.update_period, initial_control=a.initial_control,
            initial_p=a.initial_p),
    )


def _wtop_banks(phy, a, cells, stations, per_station):
    controller = BatchedWTopBank(
        cells, phy, update_period=float(a.update_period),
        initial_control=float(a.initial_control), initial_p=a.initial_p,
    )
    bank = BatchedPPersistentBank(
        cells, stations, initial_p=float(a.initial_station_p),
        weights=a.weights, control=controller,
    )
    return bank, controller


def _tora(phy, a):
    # Stations start with reset probability 1 at the initial stage and
    # adopt the advertised (p0, j) from the first ACK on.
    return (
        lambda station: RandomResetBackoff(
            phy, stage=a.initial_stage, reset_probability=1.0),
        lambda: ToraCsmaController(
            phy=phy, update_period=a.update_period, initial_p0=a.initial_p0,
            initial_stage=a.initial_stage, low_threshold=a.low_threshold,
            high_threshold=a.high_threshold),
    )


def _tora_banks(phy, a, cells, stations, per_station):
    initial_stage = int(a.initial_stage)
    controller = BatchedToraBank(
        cells, phy, update_period=float(a.update_period),
        initial_p0=float(a.initial_p0), initial_stage=initial_stage,
        low_threshold=float(a.low_threshold),
        high_threshold=float(a.high_threshold),
    )
    bank = BatchedRandomResetBank(phy, cells, stations,
                                  initial_stage=initial_stage, initial_p0=1.0,
                                  control=controller)
    return bank, controller


def _n_estimating(phy, a):
    return (lambda station: NEstimatingPersistentBackoff(
        phy, initial_estimate=a.initial_estimate)), StaticController


def _fixed_p(phy, a):
    return (lambda station: PPersistentBackoff(
        p=a.p, weight=_weight_for(a.weights, station))), StaticController


def _fixed_p_banks(phy, a, cells, stations, per_station):
    bank = BatchedPPersistentBank(cells, stations, initial_p=float(a.p),
                                  weights=a.weights)
    return bank, BatchedStaticBank()


def _fixed_randomreset(phy, a):
    return (lambda station: RandomResetBackoff(
        phy, stage=a.stage, reset_probability=a.p0)), StaticController


def _fixed_randomreset_banks(phy, a, cells, stations, per_station):
    bank = BatchedRandomResetBank(phy, cells, stations,
                                  initial_stage=int(a.stage),
                                  initial_p0=float(a.p0))
    return bank, BatchedStaticBank()


_DECLARATIONS = (
    SchemeKind("standard-802.11", "Standard 802.11", False, {},
               _dcf, _dcf_banks),
    SchemeKind("idlesense", "IdleSense", True,
               {"target_idle_slots": DEFAULT_TARGET_IDLE_SLOTS},
               _idlesense, _idlesense_banks),
    SchemeKind("wtop-csma", "wTOP-CSMA", True,
               {"update_period": DEFAULT_UPDATE_PERIOD, "initial_control": 0.5,
                "initial_station_p": 0.1, "initial_p": None, "weights": None},
               _wtop, _wtop_banks),
    SchemeKind("tora-csma", "TORA-CSMA", True,
               {"update_period": DEFAULT_UPDATE_PERIOD, "initial_p0": 0.5,
                "initial_stage": 0, "low_threshold": DEFAULT_LOW_THRESHOLD,
                "high_threshold": DEFAULT_HIGH_THRESHOLD},
               _tora, _tora_banks),
    SchemeKind("n-estimating", "N-estimating p-persistent", True,
               {"initial_estimate": 10.0}, _n_estimating),
    SchemeKind("fixed-p", "p-persistent(p={p:g})", False,
               {"p": REQUIRED, "weights": None}, _fixed_p, _fixed_p_banks),
    SchemeKind("fixed-randomreset", "RandomReset(j={stage}, p0={p0:g})", False,
               {"stage": REQUIRED, "p0": REQUIRED},
               _fixed_randomreset, _fixed_randomreset_banks),
)

#: Every scheme kind, by the name :class:`SchemeSpec` and the batched
#: kernels use for it.
SCHEME_KINDS: Mapping[str, SchemeKind] = {
    declared.kind: declared for declared in _DECLARATIONS}


def scheme_kind(kind: str) -> SchemeKind:
    """The declaration of ``kind`` (``ValueError`` for an unknown kind)."""
    declared = SCHEME_KINDS.get(kind)
    if declared is None:
        raise ValueError(f"unknown scheme kind '{kind}'; expected one of "
                         f"{tuple(sorted(SCHEME_KINDS))}")
    return declared


def standard_80211_scheme(phy: Optional[PhyParameters] = None) -> Scheme:
    """Standard IEEE 802.11 DCF (the paper's baseline)."""
    return SCHEME_KINDS["standard-802.11"].scheme(phy)


def idlesense_scheme(phy: Optional[PhyParameters] = None, **params) -> Scheme:
    """IdleSense (Heusse et al.) — distributed adaptive baseline."""
    return SCHEME_KINDS["idlesense"].scheme(phy, **params)


def wtop_csma_scheme(phy: Optional[PhyParameters] = None, **params) -> Scheme:
    """wTOP-CSMA: p-persistent stations driven by the Kiefer-Wolfowitz AP."""
    return SCHEME_KINDS["wtop-csma"].scheme(phy, **params)


def tora_csma_scheme(phy: Optional[PhyParameters] = None, **params) -> Scheme:
    """TORA-CSMA: RandomReset stations driven by the Kiefer-Wolfowitz AP."""
    return SCHEME_KINDS["tora-csma"].scheme(phy, **params)


def n_estimating_scheme(phy: Optional[PhyParameters] = None,
                        **params) -> Scheme:
    """Model-based prior art: estimate N and set ``p* = 1/(N sqrt(Tc*/2))``.

    This is the Bianchi/Cali style adaptive p-persistent scheme the paper's
    related-work section discusses ([2], [4], [7]); it is near-optimal in a
    fully connected network but mis-estimates N (and over-drives the channel)
    when hidden nodes exist.
    """
    return SCHEME_KINDS["n-estimating"].scheme(phy, **params)


def fixed_p_persistent_scheme(p: float,
                              weights: Optional[Sequence[float]] = None) -> Scheme:
    """Open-loop p-persistent CSMA at a fixed ``p`` (Figures 2 and 4)."""
    return SCHEME_KINDS["fixed-p"].scheme(p=p, weights=weights)


def fixed_randomreset_scheme(stage: int, reset_probability: float,
                             phy: Optional[PhyParameters] = None) -> Scheme:
    """Open-loop RandomReset(j; p0) at fixed parameters (Figures 5 and 13)."""
    return SCHEME_KINDS["fixed-randomreset"].scheme(
        phy, stage=stage, p0=reset_probability)
