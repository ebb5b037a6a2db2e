"""Station MAC state machine for the event-driven simulator.

Each :class:`StationProcess` implements the CSMA/CA behaviour of one
saturated station:

1. wait for its *own* sensed channel to be idle for DIFS;
2. count down its backoff in idle-slot units, freezing whenever the sensed
   channel turns busy;
3. transmit a data frame when the countdown reaches zero;
4. learn the outcome — success when the AP's ACK arrives, failure when the
   AP stays silent (the frame collided with an overlapping transmission) —
   and draw the next backoff from its :class:`~repro.mac.backoff.BackoffPolicy`.

Because freezing and resuming are driven by the station's own sensing set,
hidden stations count down *through* each other's transmissions, which is
exactly the mechanism that produces hidden-node collisions.
"""

from __future__ import annotations

import enum
from typing import Callable, Mapping, Optional

import numpy as np

from ..mac.backoff import BackoffPolicy
from ..phy.constants import NS_PER_SECOND, PhyParameters
from ..phy.frame import FrameFactory
from ..traffic import FrameQueue
from .engine import Event, EventScheduler
from .medium import ActiveTransmission, Medium

__all__ = ["StationState", "StationProcess"]


class StationState(enum.Enum):
    """Lifecycle states of the station MAC."""

    INACTIVE = "inactive"
    IDLE_QUEUE = "idle_queue"    # active but no frame queued (unsaturated)
    DEFERRING = "deferring"      # sensed channel busy, waiting for idle
    WAITING_DIFS = "waiting_difs"
    COUNTING = "counting"        # backoff countdown in progress
    TRANSMITTING = "transmitting"
    AWAITING_OUTCOME = "awaiting_outcome"


class StationProcess:
    """One saturated station attached to the medium.

    Parameters
    ----------
    station_id:
        Index of the station (0-based).
    policy:
        The contention-resolution policy instance owned by this station.
    scheduler / medium / frame_factory / phy:
        Shared simulation infrastructure.
    rng:
        Station-local random generator (each station gets an independent
        stream so runs are reproducible regardless of event interleaving).
    on_transmission_end:
        Callback ``(station, transmission, now_ns)`` invoked when the
        station's data frame leaves the air; the access point uses it to
        decide success/failure.
    queue:
        Optional bounded FIFO of frame-arrival timestamps.  ``None`` keeps
        the classic saturated behaviour (always a frame to send); with a
        queue, a station whose queue empties parks in
        :attr:`StationState.IDLE_QUEUE` (its remaining backoff frozen) and
        rejoins contention when :meth:`enqueue` accepts a frame.
    on_queue_delay:
        Callback receiving each delivered frame's FIFO queueing delay in
        seconds (the simulation wires it to the metrics collector).
    retry_limit:
        Maximum transmission attempts per frame (802.11 retry limit).
        ``None`` — the default — retries forever, the historical behaviour.
        On exhausting the limit the station discards the head frame, resets
        its contention window exactly as a delivery would and moves on.
    on_retry_discard:
        Callback invoked (no arguments) each time a frame is discarded at
        the retry limit.
    on_frame_departed:
        Callback ``(station_id)`` invoked whenever a frame leaves the MAC —
        delivered *or* retry-discarded; closed-loop traffic uses it as its
        release clock.
    """

    def __init__(
        self,
        station_id: int,
        policy: BackoffPolicy,
        scheduler: EventScheduler,
        medium: Medium,
        frame_factory: FrameFactory,
        phy: PhyParameters,
        rng: np.random.Generator,
        on_transmission_end: Callable[[int, ActiveTransmission, int], None],
        queue: Optional[FrameQueue] = None,
        on_queue_delay: Optional[Callable[[float], None]] = None,
        retry_limit: Optional[int] = None,
        on_retry_discard: Optional[Callable[[], None]] = None,
        on_frame_departed: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.station_id = station_id
        self.policy = policy
        self._scheduler = scheduler
        self._medium = medium
        self._frames = frame_factory
        self._phy = phy
        # Read on every channel event; the PHY is immutable.
        self._slot_ns = phy.slot_time_ns
        self._difs_ns = phy.difs_ns
        self._rng = rng
        self._on_transmission_end = on_transmission_end
        self._queue = queue
        self._on_queue_delay = on_queue_delay
        self._retry_limit = retry_limit
        self._on_retry_discard = on_retry_discard
        self._on_frame_departed = on_frame_departed
        self._retry_count = 0
        #: Frames discarded at the retry limit (mirrors successes/failures).
        self.retry_discards = 0

        self._state = StationState.INACTIVE
        self._remaining_slots = 0
        self._countdown_started_ns = 0
        self._difs_event: Optional[Event] = None
        self._tx_start_event: Optional[Event] = None
        self._current_transmission: Optional[ActiveTransmission] = None
        # Contention (backoff) slots counted down since the last observed data
        # transmission; fed to channel-observing policies such as IdleSense.
        self._observed_idle_slots = 0

        # Per-station counters (the simulation also keeps global metrics).
        self.successes = 0
        self.failures = 0

        medium.register_listener(station_id, self)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def state(self) -> StationState:
        return self._state

    @property
    def is_active(self) -> bool:
        return self._state is not StationState.INACTIVE

    @property
    def remaining_slots(self) -> int:
        return self._remaining_slots

    @property
    def has_frame(self) -> bool:
        """Whether a frame is ready to send (always True when saturated)."""
        return self._queue is None or len(self._queue) > 0

    @property
    def queue_length(self) -> int:
        """Frames currently queued (0 for saturated stations)."""
        return 0 if self._queue is None else len(self._queue)

    # ------------------------------------------------------------------
    # Activation / deactivation (dynamic scenarios)
    # ------------------------------------------------------------------
    def activate(self, control: Optional[Mapping[str, float]] = None) -> None:
        """Join the network: draw a fresh backoff and start contending."""
        if self.is_active:
            return
        if control:
            self.policy.apply_control(control)
        self._remaining_slots = self.policy.initial_backoff(self._rng)
        self._observed_idle_slots = 0
        if not self.has_frame:
            # Unsaturated join with an empty queue: park with the drawn
            # backoff frozen until the first arrival.
            self._state = StationState.IDLE_QUEUE
            return
        self._state = StationState.DEFERRING
        self._try_resume()

    # ------------------------------------------------------------------
    # Traffic (unsaturated workloads)
    # ------------------------------------------------------------------
    def enqueue(self, arrival_time_s: float) -> bool:
        """Offer an arrived frame; False means the bounded queue dropped it.

        A 0 -> 1 queue transition re-enters contention with the station's
        frozen backoff counter (DIFS first, as after any busy period).
        """
        if self._queue is None:
            raise RuntimeError("saturated stations have no frame queue")
        if not self._queue.offer(arrival_time_s):
            return False
        if self._state is StationState.IDLE_QUEUE:
            self._state = StationState.DEFERRING
            self._try_resume()
        return True

    def flush_queue(self) -> int:
        """Discard all queued frames (schedule leave); returns the count."""
        if self._queue is None:
            return 0
        return self._queue.flush()

    def deactivate(self) -> None:
        """Leave the network: cancel pending activity and stop contending."""
        self._cancel_timers()
        if self._state is StationState.TRANSMITTING and self._current_transmission:
            # Let the in-flight frame finish naturally; the outcome will be
            # delivered but ignored because the station is inactive.
            pass
        self._state = StationState.INACTIVE

    def _cancel_timers(self) -> None:
        self._scheduler.cancel(self._difs_event)
        self._scheduler.cancel(self._tx_start_event)
        self._difs_event = None
        self._tx_start_event = None

    # ------------------------------------------------------------------
    # Medium listener interface
    # ------------------------------------------------------------------
    def on_medium_busy(self, now_ns: int, transmission: ActiveTransmission) -> None:
        """Sensed channel went idle -> busy: freeze any countdown."""
        freeze_elapsed = 0
        if self._state is StationState.WAITING_DIFS:
            self._scheduler.cancel(self._difs_event)
            self._difs_event = None
            self._state = StationState.DEFERRING
        elif self._state is StationState.COUNTING:
            # A station whose own countdown expires at this very instant is
            # already committed to transmitting in this slot: carrier sensing
            # cannot pre-empt a decision taken at the same slot boundary.
            # This is what makes two stations that pick the same backoff slot
            # collide, exactly as in real DCF.
            if (self._tx_start_event is not None
                    and self._tx_start_event.time_ns <= now_ns):
                return
            self._scheduler.cancel(self._tx_start_event)
            self._tx_start_event = None
            freeze_elapsed = int(
                (now_ns - self._countdown_started_ns) // self._slot_ns
            )
            self._remaining_slots = max(self._remaining_slots - freeze_elapsed, 0)
            self._state = StationState.DEFERRING
        self._observe_busy_onset(transmission, freeze_elapsed)

    def on_medium_idle(self, now_ns: int) -> None:
        """Sensed channel went busy -> idle: re-arm the DIFS timer."""
        if self._state is StationState.DEFERRING:
            self._start_difs()

    def _observe_busy_onset(self, transmission: ActiveTransmission,
                            freeze_elapsed: int) -> None:
        """Feed contention-idle observations to channel-observing policies.

        IdleSense counts the idle *backoff* slots between transmissions it
        observes; framing overheads (DIFS, SIFS, ACKs) do not count.  The
        station therefore accumulates the slots its own countdown actually
        consumed and reports them once per observed *data* transmission.
        """
        if not self.policy.observes_channel:
            return
        if self._state is StationState.TRANSMITTING:
            return
        self._observed_idle_slots += max(freeze_elapsed, 0)
        if transmission.is_data:
            self.policy.observe_transmission(self._observed_idle_slots)
            self._observed_idle_slots = 0

    # ------------------------------------------------------------------
    # Channel access
    # ------------------------------------------------------------------
    def _try_resume(self) -> None:
        """Resume channel access after the outcome of a transmission or join."""
        if self._state is StationState.INACTIVE:
            return
        if self._medium.is_busy_for(self.station_id):
            self._state = StationState.DEFERRING
        else:
            self._start_difs()

    def _start_difs(self) -> None:
        self._state = StationState.WAITING_DIFS
        self._difs_event = self._scheduler.schedule_in(
            self._difs_ns, self._difs_elapsed
        )

    def _difs_elapsed(self) -> None:
        self._difs_event = None
        self._state = StationState.COUNTING
        self._countdown_started_ns = self._scheduler.now_ns
        delay_ns = self._remaining_slots * self._slot_ns
        self._tx_start_event = self._scheduler.schedule_in(
            delay_ns, self._begin_transmission
        )

    def _begin_transmission(self) -> None:
        self._tx_start_event = None
        if self.policy.observes_channel:
            # The slots just counted down, plus this transmission itself, form
            # one observation (the station observes its own transmissions too).
            self.policy.observe_transmission(
                self._observed_idle_slots + self._remaining_slots
            )
            self._observed_idle_slots = 0
        self._remaining_slots = 0
        self._state = StationState.TRANSMITTING
        frame = self._frames.data(
            source=self.station_id,
            destination=-1,
            arrival_time_s=(
                None if self._queue is None else self._queue.head_time
            ),
        )
        duration_ns = self._phy.data_tx_time_ns
        self._current_transmission = self._medium.start_transmission(
            self.station_id, frame, duration_ns
        )
        self._scheduler.schedule_in(duration_ns, self._finish_transmission)

    def _finish_transmission(self) -> None:
        transmission = self._current_transmission
        assert transmission is not None
        self._medium.end_transmission(transmission)
        self._current_transmission = None
        if self._state is StationState.INACTIVE:
            # The station left the network mid-frame; drop the outcome.
            return
        self._state = StationState.AWAITING_OUTCOME
        self._on_transmission_end(self.station_id, transmission, self._scheduler.now_ns)

    # ------------------------------------------------------------------
    # Outcome delivery (called by the access point)
    # ------------------------------------------------------------------
    def deliver_success(self, control: Mapping[str, float]) -> bool:
        """The AP's ACK for this station's frame has been received.

        Returns whether a queued frame was dequeued, so the caller can keep
        its delivered-but-not-yet-dequeued inventory exact (the AP counts
        the success when the data frame ends, one SIFS + ACK before this
        runs)."""
        if self._state is StationState.INACTIVE:
            return False
        self.successes += 1
        self._retry_count = 0
        popped = self._queue is not None
        if self._queue is not None:
            delay = self._queue.pop(self._scheduler.now_ns / NS_PER_SECOND)
            if self._on_queue_delay is not None:
                self._on_queue_delay(delay)
            if self._on_frame_departed is not None:
                self._on_frame_departed(self.station_id)
        if control:
            self.policy.apply_control(control)
        self._remaining_slots = self.policy.on_success(self._rng)
        if not self.has_frame:
            self._state = StationState.IDLE_QUEUE
            return popped
        self._state = StationState.DEFERRING
        self._try_resume()
        return popped

    def deliver_failure(self) -> None:
        """No ACK arrived: the frame is declared collided."""
        if self._state is StationState.INACTIVE:
            return
        self.failures += 1
        if self._retry_limit is not None:
            self._retry_count += 1
            if self._retry_count >= self._retry_limit:
                # 802.11 retry limit: discard the frame and reset the
                # contention window exactly as a delivery would, then move
                # on to the next frame (if any).
                self._retry_count = 0
                self.retry_discards += 1
                if self._on_retry_discard is not None:
                    self._on_retry_discard()
                if self._queue is not None:
                    self._queue.pop(self._scheduler.now_ns / NS_PER_SECOND)
                    if self._on_frame_departed is not None:
                        self._on_frame_departed(self.station_id)
                self._remaining_slots = self.policy.on_success(self._rng)
                if not self.has_frame:
                    self._state = StationState.IDLE_QUEUE
                    return
                self._state = StationState.DEFERRING
                self._try_resume()
                return
        self._remaining_slots = self.policy.on_failure(self._rng)
        self._state = StationState.DEFERRING
        self._try_resume()

    def overhear_ack(self, control: Mapping[str, float]) -> None:
        """An ACK destined to another station was heard (wTOP broadcasts)."""
        if self._state is StationState.INACTIVE:
            return
        if control:
            self.policy.apply_control(control)
