"""Replay-ledger property: the expiry heap purges exactly what a full scan purges."""

from collections import OrderedDict

import pytest

from pcsm.reassembly import ReplayLedger

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


class _ScanLedger:
    """The ledger as first written: every call scans all entries for expired ones."""

    def __init__(self, horizon, capacity):
        self.horizon = horizon
        self.capacity = capacity
        self.entries = OrderedDict()

    def _purge(self, now):
        for k in [k for k, expiry in self.entries.items() if expiry <= now]:
            del self.entries[k]

    def seen(self, source, tag, nonce, now):
        self._purge(now)
        key = (source, tag, nonce)
        if key in self.entries:
            self.entries[key] = now + self.horizon
            return True
        return False

    def record(self, source, tag, nonce, now):
        self._purge(now)
        self.entries[(source, tag, nonce)] = now + self.horizon
        while len(self.entries) > self.capacity:
            self.entries.popitem(last=False)


# Few sources, tags and nonces, so keys repeat (hits refresh, records
# overwrite); whole-number steps around the horizon, so expiries tie
# with `now` and with each other; negative steps move `now` backwards.
# "admit" is seen, then record if unseen, at one instant, as admission
# calls them; zero steps put more calls at one instant.
_calls = st.lists(
    st.tuples(
        st.sampled_from(["seen", "record", "admit"]),
        st.integers(1, 2),
        st.integers(0, 1),
        st.sampled_from([b"\x00" * 4, b"\x01" * 4]),
        st.sampled_from([0.0, 0.0, 1.0, 2.5, 4.0, 5.0, -1.0, -6.0]),
    ),
    max_size=120,
)


def _call(ledger, method, key, now):
    if method == "admit":
        return ledger.seen(*key, now) or ledger.record(*key, now)
    return getattr(ledger, method)(*key, now)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.sampled_from([0.0, 1.0, 5.0]), st.integers(1, 6), _calls)
def test_property_heap_purge_equals_the_full_scan(horizon, capacity, calls):
    ledger, ref = ReplayLedger(horizon, capacity), _ScanLedger(horizon, capacity)
    now = 0.0
    for method, source, tag, nonce, step in calls:
        now += step
        got = _call(ledger, method, (source, tag, nonce), now)
        want = _call(ref, method, (source, tag, nonce), now)
        assert got == want
        assert list(ledger.entries.items()) == list(ref.entries.items())
