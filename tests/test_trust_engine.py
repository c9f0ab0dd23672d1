"""Trust engine tests: EMA law, anomaly screening, blacklist lifecycle."""

import math
import random

from pcsm.frag_codec import FragmentKind
from pcsm.reassembly import PredictiveCsmStack
from pcsm.trust_engine import (
    BehaviorObservation,
    TrustEngine,
    TrustParams,
    update_score,
)


def _nominal_obs(interval=90.0):
    return BehaviorObservation(interval, 1.0 / interval, True)


def test_single_step_substitutions():
    assert math.isclose(update_score(0.5, 0.9, 1), 0.55, abs_tol=1e-15)
    assert math.isclose(update_score(0.8, 0.9, 0), 0.72, abs_tol=1e-15)
    eng = TrustEngine(TrustParams())
    eng.state(1).score = 1.0
    assert math.isclose(eng.penalize(1, 0.0).score, 0.9, abs_tol=1e-15)
    eng.state(2).score = 0.0
    assert math.isclose(eng.reward(2, 0.0).score, 0.1, abs_tol=1e-15)


def test_update_matches_closed_form():
    # all-failure: t0 * lam^k; all-success: 1 - (1 - t0) * lam^k
    rng = random.Random(1)
    for _ in range(1000):
        t0 = rng.random()
        lam = rng.uniform(0.01, 0.99)
        k = rng.randrange(1, 101)
        down = t0
        up = t0
        for _ in range(k):
            down = update_score(down, lam, 0)
            up = update_score(up, lam, 1)
        assert abs(down - t0 * lam**k) < 1e-12
        assert abs(up - (1.0 - (1.0 - t0) * lam**k)) < 1e-12


def test_ten_failures_cross_threshold_from_08():
    score = 0.8
    crossing = None
    for k in range(1, 20):
        score = update_score(score, 0.9, 0)
        if score < 0.3 and crossing is None:
            crossing = k
            assert abs(score - 0.8 * 0.9**10) < 1e-12
    assert crossing == 10


def test_threshold_crossing_matches_formula():
    rng = random.Random(2)
    for _ in range(200):
        t0 = rng.uniform(0.4, 1.0)
        lam = rng.uniform(0.5, 0.99)
        theta = rng.uniform(0.05, t0 * 0.9)
        predicted = math.ceil(math.log(theta / t0) / math.log(lam))
        score, steps = t0, 0
        while score >= theta:
            score = update_score(score, lam, 0)
            steps += 1
        # the formula can sit one step off when t0 * lam^k == theta exactly
        assert steps in (predicted, predicted + 1)


def test_boundedness_under_random_outcomes():
    rng = random.Random(3)
    eng = TrustEngine(TrustParams(forgetting_factor=0.83))
    for step in range(5000):
        eng.update(7, rng.randrange(2), float(step))
        assert 0.0 <= eng.state(7).score <= 1.0


def test_monotone_response_to_dominated_outcomes():
    rng = random.Random(4)
    for _ in range(100):
        n = rng.randrange(1, 40)
        seq_hi = [rng.randrange(2) for _ in range(n)]
        seq_lo = [a if rng.random() < 0.7 else 0 for a in seq_hi]
        hi = lo = rng.random()
        for a, b in zip(seq_hi, seq_lo):
            hi = update_score(hi, 0.9, a)
            lo = update_score(lo, 0.9, b)
        assert lo <= hi + 1e-15


def test_alternating_outcomes_converge_to_fixed_point_band():
    lam = 0.9
    score = 0.5
    seen = []
    for step in range(1000):
        score = update_score(score, lam, step % 2)
        seen.append(score)
    hi_fp = 1.0 / (1.0 + lam)
    lo_fp = lam / (1.0 + lam)
    tail = seen[-10:]
    assert all(lo_fp - 1e-9 <= s <= hi_fp + 1e-9 for s in tail)
    assert math.isclose(max(tail), hi_fp, abs_tol=1e-6)
    assert math.isclose(min(tail), lo_fp, abs_tol=1e-6)


def test_single_failure_from_high_score_never_blacklists():
    eng = TrustEngine(TrustParams(forgetting_factor=0.9, threshold=0.3))
    eng.state(5).score = 0.9
    st = eng.penalize(5, 100.0)
    assert st.score >= 0.3
    assert st.blacklisted_until is None
    assert not eng.is_blocked(5, 100.0)


def test_unknown_node_starts_at_half_and_accepts_nominal_traffic():
    eng = TrustEngine(TrustParams())
    accept, anomalous = eng.evaluate_frag1(3, _nominal_obs(), 50.0)
    assert accept and not anomalous
    assert math.isclose(eng.state(3).score, 0.55, abs_tol=1e-12)


def test_below_threshold_node_is_dropped():
    # drive the score below the threshold through the real update path,
    # which stamps the block; any observation during the block drops
    eng = TrustEngine(TrustParams())
    eng.state(4).score = 0.32
    eng.penalize(4, 9.0)  # 0.288 < 0.3
    assert 0.28 < eng.state(4).score < 0.3
    accept, _ = eng.evaluate_frag1(4, _nominal_obs(), 10.0)
    assert not accept


def test_flooding_rate_flags_anomaly_and_decays_score():
    eng = TrustEngine(TrustParams())
    st = eng.state(6)
    before = st.score
    obs = BehaviorObservation(1.0 / 6.0, 6.0, True)
    delta = eng.deviation(st, obs)
    assert delta > 2.0  # 6/s against a 1/90 s baseline
    _, anomalous = eng.evaluate_frag1(6, obs, 100.0)
    assert anomalous
    assert eng.state(6).score < before


def test_blacklist_lifecycle_and_probation():
    eng = TrustEngine(TrustParams(block_duration=60.0))
    eng.state(8).score = 0.31
    st = eng.penalize(8, 100.0)  # 0.279 < 0.3 -> blocked
    assert st.score < 0.3
    assert st.blacklisted_until == 160.0
    assert eng.first_blocked == {8: 100.0}
    assert eng.is_blocked(8, 130.0)
    assert not eng.is_blocked(8, 161.0)
    # next update after expiry re-enters on probation at the threshold
    st = eng.reward(8, 161.0)
    assert math.isclose(st.score, update_score(0.3, 0.9, 1), abs_tol=1e-12)
    assert st.blacklisted_until is None


def test_block_refreshes_while_offender_keeps_transmitting():
    # the receiver's radio filter reports each contact to the engine's state
    stack = PredictiveCsmStack(b"k", TrustParams(block_duration=60.0))
    eng = stack.engine
    eng.state(9).score = 0.05
    eng.penalize(9, 100.0)
    assert eng.is_blocked(9, 159.0)
    assert stack.filter_frame(9, FragmentKind.FRAGN, 150.0)
    assert eng.is_blocked(9, 200.0)  # expiry moved to 210
    assert not eng.is_blocked(9, 210.0)
    # contact on an unblocked node is a no-op
    assert not stack.filter_frame(2, FragmentKind.FRAGN, 300.0)
    assert not eng.is_blocked(2, 300.0)


def test_sub_threshold_updates_restamp_the_block():
    eng = TrustEngine(TrustParams(block_duration=60.0))
    eng.state(1).score = 0.05
    eng.penalize(1, 100.0)
    eng.penalize(1, 120.0)
    assert eng.state(1).blacklisted_until == 180.0


def test_baselines_move_only_on_normal_outcomes():
    eng = TrustEngine(TrustParams())
    st = eng.state(2)
    base_ia, base_rate = st.ewma_inter_arrival, st.ewma_rate
    eng.evaluate_frag1(2, BehaviorObservation(0.1, 10.0, True), 10.0)  # anomalous
    assert st.ewma_inter_arrival == base_ia
    assert st.ewma_rate == base_rate
    eng.evaluate_frag1(2, BehaviorObservation(80.0, 1 / 80.0, True), 90.0)  # normal
    assert st.ewma_inter_arrival != base_ia
    assert st.ewma_rate != base_rate


def test_sequence_violation_counts_and_deviation_floor():
    eng = TrustEngine(TrustParams())
    st = eng.state(3)
    obs = BehaviorObservation(90.0, 1 / 90.0, False)
    assert eng.deviation(st, obs) == 1.0  # violation floor, timing nominal
    eng.evaluate_frag1(3, obs, 10.0)
    assert st.sequence_violations == 1
    # 1.0 sits below the default anomaly threshold of 2.0, so a clean
    # timing profile with one sequence slip is not anomalous by itself
    _, anomalous = eng.evaluate_frag1(3, obs, 100.0)
    assert not anomalous


def test_observe_frag1_builds_observations():
    tr = TrustEngine(nominal_interval=90.0)
    first = tr.observe_frag1(1, 100, 50.0)
    assert first.inter_arrival == 90.0  # first contact is neutral
    assert first.sequence_ok
    second = tr.observe_frag1(1, 101, 140.0)
    assert second.inter_arrival == 90.0
    assert math.isclose(second.rate, 1 / 90.0)
    # tag reuse within the window is a sequence violation
    replayed = tr.observe_frag1(1, 100, 230.0)
    assert not replayed.sequence_ok


def test_observe_frag1_consumes_violations_and_follows_touches():
    tr = TrustEngine()
    tr.state(5).violation_pending = True
    obs = tr.observe_frag1(5, 1, 100.0)
    assert not obs.sequence_ok
    obs = tr.observe_frag1(5, 2, 190.0)
    assert obs.sequence_ok  # violation flag consumed
    assert not tr.states[5].violation_pending
    # a touch records contact without an observation
    tr.states[5].last_frag1_time = 300.0
    probe = tr.observe_frag1(5, 3, 301.0)
    assert probe.inter_arrival == 1.0


def test_same_instant_arrivals_have_finite_rate():
    tr = TrustEngine()
    tr.observe_frag1(1, 1, 100.0)
    obs = tr.observe_frag1(1, 2, 100.0)
    assert obs.inter_arrival == 0.0
    assert obs.rate == 1000.0


def test_history_recording():
    eng = TrustEngine(TrustParams(), keep_history=True)
    eng.reward(1, 10.0)
    eng.penalize(2, 20.0)
    assert eng.history == [(10.0, 1, 0.55), (20.0, 2, 0.45)]
