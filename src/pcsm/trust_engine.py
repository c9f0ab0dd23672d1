"""Behavioral trust engine: per-neighbor scoring, anomaly detection, blacklisting.

Each neighbor carries a score in [0, 1] updated by an exponential
moving average over binary outcomes:

    score' = forgetting_factor * score + (1 - forgetting_factor) * outcome

A score below the threshold triggers a temporary blacklist.  While a
blacklisted source keeps transmitting, every contact the receiver's radio
filter sees pushes the expiry forward; the block only lapses after the
source has stayed quiet for the full block duration, after which the
node re-enters on probation with its score reset to the threshold.

First-fragment arrivals are screened against per-source behavioral
baselines (EWMA of inter-arrival time and arrival rate, plus sequence
checks).  Baselines move only on normal outcomes so an attacker cannot
drag its own baseline toward attack traffic while misbehaving.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

# Arrival rate is derived as 1 / inter-arrival; this floor keeps it
# finite when two first-fragments land in the same instant.
_MIN_INTER_ARRIVAL = 1e-3
# Keeps the relative deviations finite against a zero baseline.
_EPSILON = 1e-6


@dataclass(frozen=True)
class TrustParams:
    forgetting_factor: float = 0.9
    threshold: float = 0.3
    anomaly_threshold: float = 2.0
    history_alpha: float = 0.2
    block_duration: float = 60.0
    initial_score: float = 0.5


@dataclass
class TrustState:
    score: float
    ewma_inter_arrival: float
    ewma_rate: float
    sequence_violations: int = 0
    blacklisted_until: float | None = None
    # time of the previous first fragment, for inter-arrival and rate
    last_frag1_time: float | None = None
    # recently seen datagram tags: reuse inside the window is a sequence violation
    recent_tags: deque = field(default_factory=lambda: deque(maxlen=8))
    # a reassembly-layer violation, consumed by the next observation
    violation_pending: bool = False


class BehaviorObservation(NamedTuple):
    """Traffic features extracted from one first-fragment arrival."""

    inter_arrival: float
    rate: float
    sequence_ok: bool


def update_score(score: float, forgetting_factor: float, outcome: int) -> float:
    """One EMA step, clamped to [0, 1]."""
    new = forgetting_factor * score + (1.0 - forgetting_factor) * outcome
    return min(1.0, max(0.0, new))


class TrustEngine:
    """Owns per-neighbor trust state for one receiving node."""

    def __init__(
        self,
        params: TrustParams | None = None,
        nominal_interval: float = 90.0,
        keep_history: bool = False,
    ):
        self.params = params or TrustParams()
        self.nominal_interval = nominal_interval
        self.states: dict[int, TrustState] = {}
        self.block_events: dict[int, int] = {}
        # per-node time of the first transition into the blocked state
        self.first_blocked: dict[int, float] = {}
        self.history: list[tuple[float, int, float]] | None = [] if keep_history else None

    def state(self, node: int) -> TrustState:
        st = self.states.get(node)
        if st is None:
            st = TrustState(
                score=self.params.initial_score,
                ewma_inter_arrival=self.nominal_interval,
                ewma_rate=1.0 / self.nominal_interval,
            )
            self.states[node] = st
        return st

    def is_blocked(self, node: int, now: float) -> bool:
        st = self.states.get(node)
        return st is not None and st.blacklisted_until is not None and now < st.blacklisted_until

    def update(self, node: int, outcome: int, now: float) -> TrustState:
        st = self.state(node)
        p = self.params
        if st.blacklisted_until is not None and now >= st.blacklisted_until:
            # probationary re-entry at exactly the threshold
            st.score = p.threshold
            st.blacklisted_until = None
        st.score = update_score(st.score, p.forgetting_factor, outcome)
        if st.score < p.threshold:
            proposed = now + p.block_duration
            if st.blacklisted_until is None:
                self.block_events[node] = self.block_events.get(node, 0) + 1
                self.first_blocked.setdefault(node, now)
            if st.blacklisted_until is None or st.blacklisted_until < proposed:
                st.blacklisted_until = proposed
        if self.history is not None:
            self.history.append((now, node, st.score))
        return st

    def penalize(self, node: int, now: float) -> TrustState:
        return self.update(node, 0, now)

    def reward(self, node: int, now: float) -> TrustState:
        return self.update(node, 1, now)

    def deviation(self, st: TrustState, obs: BehaviorObservation) -> float:
        """Scale-free behavioral deviation against this source's baselines."""
        d_rate = abs(obs.rate - st.ewma_rate) / (st.ewma_rate + _EPSILON)
        d_ia = abs(obs.inter_arrival - st.ewma_inter_arrival) / (
            st.ewma_inter_arrival + _EPSILON
        )
        d_seq = 0.0 if obs.sequence_ok else 1.0
        return max(d_rate, d_ia, d_seq)

    def observe_frag1(self, node: int, tag: int, now: float) -> BehaviorObservation:
        """The traffic features of node's first fragment carrying tag, arriving now."""
        st = self.state(node)
        if st.last_frag1_time is None:
            inter_arrival = self.nominal_interval
        else:
            inter_arrival = now - st.last_frag1_time
        rate = 1.0 / max(inter_arrival, _MIN_INTER_ARRIVAL)
        sequence_ok = not st.violation_pending and tag not in st.recent_tags
        st.violation_pending = False
        st.recent_tags.append(tag)
        st.last_frag1_time = now
        return BehaviorObservation(inter_arrival, rate, sequence_ok)

    def evaluate_frag1(
        self, node: int, obs: BehaviorObservation, now: float
    ) -> tuple[bool, bool]:
        """Screen one first-fragment arrival.

        Returns (accept, anomalous).  The trust score is updated as a
        side effect: a behaviorally normal arrival counts as a good
        outcome, an anomalous one as bad.  Accept requires the updated
        score to sit at or above the threshold with no active block.
        """
        st = self.state(node)
        p = self.params
        delta = self.deviation(st, obs)
        anomalous = delta >= p.anomaly_threshold
        if not obs.sequence_ok:
            st.sequence_violations += 1
        st = self.update(node, 0 if anomalous else 1, now)
        if not anomalous:
            a = p.history_alpha
            st.ewma_inter_arrival = a * obs.inter_arrival + (1 - a) * st.ewma_inter_arrival
            st.ewma_rate = a * obs.rate + (1 - a) * st.ewma_rate
        until = st.blacklisted_until  # is_blocked, on the state in hand
        accept = st.score >= p.threshold and (until is None or now >= until)
        return accept, anomalous
