"""collect() on a run's record columns equals the record-by-record reference."""

import pytest

from pcsm.frag_codec import FragmentKind
from pcsm.simulator import DISPOSITIONS, FrameRecord
from test_metrics import _collect_both

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

ATTACKER = 9


@st.composite
def _records(draw):
    """Time-sorted records from two legit sources and the attacker, with tied times."""
    n = draw(st.integers(0, 40))
    times = sorted(draw(st.lists(st.sampled_from([0.0, 1.0, 1.5, 2.0, 3.25, 4.0, 5.0]),
                                 min_size=n, max_size=n)))
    records = []
    for t in times:
        origin = draw(st.sampled_from([1, 2, ATTACKER]))
        # a spoofed frame carries a legit source's address
        source = draw(st.sampled_from([1, 2, ATTACKER])) if origin == ATTACKER else origin
        records.append(FrameRecord(t, source, origin, draw(st.sampled_from(FragmentKind)),
                                   draw(st.sampled_from(DISPOSITIONS)), draw(st.booleans())))
    return records


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(records=_records(),
       attacker=st.sampled_from([ATTACKER, None]),
       attack_start=st.sampled_from([None, -1.0, 0.0, 1.5, 2.5, 5.0, 6.0]))
def test_collect_on_columns_equals_the_reference(records, attacker, attack_start):
    got, want = _collect_both(records, attacker, attack_start)
    assert got == want
