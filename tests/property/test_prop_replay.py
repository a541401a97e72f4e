"""Property: :func:`repro.core.spin.replay` issues as a per-cycle
round-robin does.

:func:`round_robin` below restates the core's issue rule one cycle at
a time, selecting as ``reference_step`` in ``test_prop_engine.py``
does: from the pointer on, the first thread that has not finished and
is ready issues, and the pointer moves past it. Over finite position
tables for 1-4 threads (a finished thread's ``None``, a thread with
nothing left to issue, real latencies), random ready cycles, pointer,
last thread and issue limit, both must issue the same threads at the
same cycles with the same switch marks, stop at the same place and
leave the same ready cycles and positions.
"""

from __future__ import annotations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.spin import replay
from repro.isa.instructions import INSTRUCTION_SET

LATENCIES = sorted({info.latency for info in INSTRUCTION_SET.values()})

#: One thread's latencies still to issue, or ``None`` once finished.
thread_tables = st.one_of(
    st.none(),
    st.just([]),
    st.lists(st.sampled_from(LATENCIES), min_size=1, max_size=8),
)


def round_robin(lats, ready, rr, last, t, span):
    """``(thread, cycle, switch)`` of each issue, one cycle at a time:
    the replay stops when the selected thread has nothing left or the
    cycle reaches ``span``."""
    n = len(lats)
    pos = [0] * n
    events = []
    while True:
        selected = None
        idx = rr
        for _ in range(n):
            candidate = idx
            idx += 1
            if idx == n:
                idx = 0
            if lats[candidate] is not None and ready[candidate] <= t:
                selected = candidate
                rr = idx
                break
        if selected is not None:
            p = pos[selected]
            if t >= span or p == len(lats[selected]):
                return events, ready, pos
            events.append((selected, t, last is not None and last != selected))
            ready[selected] = t + lats[selected][p]
            pos[selected] = p + 1
            last = selected
        t += 1


@settings(max_examples=200)
@given(
    st.lists(thread_tables, min_size=1, max_size=4),
    st.data(),
)
def test_replay_equals_per_cycle_round_robin(lats, data):
    assume(any(table is not None for table in lats))
    n = len(lats)
    t = data.draw(st.integers(0, 50))
    ready = [t + data.draw(st.integers(-5, 40)) for _ in range(n)]
    rr = data.draw(st.integers(0, n - 1))
    last = data.draw(st.one_of(st.none(), st.integers(0, n - 1)))
    span = t + data.draw(st.integers(-2, 400))
    tables = [
        None if table is None
        else ((*table, None), (-1,) * (len(table) + 1))
        for table in lats
    ]
    pos, got_ready = [0] * n, list(ready)
    codes, cycles, hit = replay(tables, pos, got_ready, rr, last, t, span,
                                None, None, 0, 0, None)
    want, want_ready, want_pos = round_robin(lats, list(ready), rr, last, t,
                                             span)
    got = [(code >> 2, cycle, bool(code & 1))
           for code, cycle in zip(codes, cycles)]
    assert hit is None
    assert got == want
    assert got_ready == want_ready
    assert pos == want_pos
