"""Channel replay: JEDEC edge cases and the lazy/eager census contract.

A hypothesis-generated request mix (arrival gaps including multi-tREFI
idle stretches, both traffic classes, optional share policy) is replayed
through one :class:`Channel` on a fresh engine.  The implied command
stream must satisfy the independent JEDEC referee, and lazy periodic
mode must reproduce the eager engine's command stream, completion
times, StatSet snapshot, logical census and final time exactly.

The scheduler edge cases where timing fences tie (tFAW at exactly four
ACTs, tWTR/tRTP turnarounds, same-cycle refresh-vs-demand ordering) are
pinned against absolute JEDEC bounds at the bottom.
"""

from hypothesis import example, given, settings, strategies as st

from repro.dram.channel import Channel
from repro.dram.commands import MemRequest, OpType, TrafficClass
from repro.dram.compliance import ProtocolChecker
from repro.dram.scheduler import SharePolicy
from repro.dram.timing import ChannelParams, DDR3_1600 as T
from repro.sim.engine import Engine

NUM_BANKS = 8

DEFAULT_TEST_PARAMS = ChannelParams(read_queue_depth=8, write_queue_depth=8,
                                    write_drain_hi=6, write_drain_lo=2)


def _replay(ops, *, share=False, periodic="lazy", page_policy="open"):
    """Run one request mix through a fresh channel.

    ``ops`` is a list of ``(gap, bank, row, is_write, secure)`` tuples;
    arrivals are cumulative.  Requests that find their queue full are
    held and retried on ``notify_on_space``.  Returns every observable
    the census contract covers.
    """
    eng = Engine(periodic=periodic)
    channel = Channel(
        eng, "ch0",
        params=DEFAULT_TEST_PARAMS,
        share_policy=SharePolicy() if share else None,
        page_policy=page_policy,
    )
    log = channel.start_command_log()
    completions = []
    held = []

    def drain():
        while held and channel.can_accept(held[0].op):
            channel.enqueue(held.pop(0))
        if held:
            channel.notify_on_space(drain)

    def arrive(req):
        if held or not channel.can_accept(req.op):
            if not held:
                channel.notify_on_space(drain)
            held.append(req)
        else:
            channel.enqueue(req)

    now = 0
    for idx, (gap, bank, row, is_write, secure) in enumerate(ops):
        now += gap
        req = MemRequest(
            OpType.WRITE if is_write else OpType.READ, 0, 0,
            bank=bank % NUM_BANKS, row=row,
            traffic=TrafficClass.SECURE if secure else TrafficClass.NORMAL,
            on_complete=(lambda t, i=idx: completions.append((i, t))),
        )
        eng.at(now, lambda r=req: arrive(r))
    eng.run()
    return {
        "log": log,
        "completions": completions,
        "stats": channel.stats.as_dict(),
        "events": eng.events_dispatched,
        "now": eng.now,
        "refreshes": channel.rank.refreshes,
    }


def _compliant(log):
    return ProtocolChecker(T, NUM_BANKS).check(log) == []


_gaps = st.one_of(
    st.integers(min_value=0, max_value=300),
    # Occasional idle gaps beyond tREFI force refresh catch-up batches.
    st.sampled_from([T.tREFI // 2, T.tREFI + 1, 3 * T.tREFI]),
)

_mixes = st.lists(
    st.tuples(
        _gaps,
        st.integers(min_value=0, max_value=NUM_BANKS - 1),  # bank
        st.integers(min_value=0, max_value=7),              # row
        st.booleans(),                                      # is_write
        st.booleans(),                                      # secure
    ),
    min_size=1,
    max_size=40,
)


class TestReplayProperty:
    @settings(max_examples=20, deadline=None)
    @given(ops=_mixes, share=st.booleans())
    # Regression seeds: a write completing after reads, a same-tick
    # refresh + demand mix, a multi-window catch-up burst, and a
    # mixed-class burst under the share policy.
    @example(ops=[(0, 0, 0, True, False), (0, 0, 1, False, False),
                  (0, 1, 0, False, False)], share=False)
    @example(ops=[(T.tREFI, 0, 0, False, False),
                  (0, 1, 1, True, True), (0, 2, 2, False, True)], share=True)
    @example(ops=[(3 * T.tREFI, b, b % 5, b % 3 == 0, False)
                  for b in range(8)], share=False)
    @example(ops=[(0, 0, i % 2, i % 4 == 0, i % 2 == 1)
                  for i in range(24)], share=True)
    def test_command_stream_is_jedec_compliant(self, ops, share):
        assert _compliant(_replay(ops, share=share)["log"])

    @settings(max_examples=15, deadline=None)
    @given(ops=_mixes, share=st.booleans(),
           page_policy=st.sampled_from(["open", "close"]))
    def test_lazy_matches_eager(self, ops, share, page_policy):
        lazy = _replay(ops, share=share, page_policy=page_policy)
        eager = _replay(ops, share=share, page_policy=page_policy,
                        periodic="eager")
        assert lazy == eager


# ---------------------------------------------------------------------------
# Scheduler edge cases, pinned against absolute timing
# ---------------------------------------------------------------------------

def _acts(log):
    return [c for c in log if c.kind == "ACT"]


class TestSchedulerEdgeCases:
    def test_tfaw_at_exactly_four_acts(self):
        # Five back-to-back closed-bank reads on five distinct banks: the
        # first four ACTs pace at tRRD, the fifth must wait for the full
        # tFAW window -- exactly, not one tick more.
        log = _replay([(0, b, 0, False, False) for b in range(5)])["log"]
        times = [c.time for c in _acts(log)]
        assert len(times) == 5
        for a, b in zip(times, times[1:4]):
            assert b - a == T.tRRD
        assert times[4] - times[0] == T.tFAW
        assert _compliant(log)

    def test_twtr_write_to_read_turnaround_tie(self):
        # The read arrives one tick after the (opportunistic) write
        # enters service, so the turnaround order is forced to WR -> RD
        # and the read CAS lands on the tWTR fence.
        log = _replay([(0, 0, 0, True, False), (1, 1, 0, False, False)])["log"]
        cmds = [c for c in log if c.kind in ("WR", "RD")]
        assert [c.kind for c in cmds] == ["WR", "RD"]
        wr, rd = cmds
        # JEDEC: READ CAS >= WRITE data end + tWTR.
        assert rd.time >= wr.time + T.tCWL + T.tBURST + T.tWTR

    def test_trtp_read_to_precharge_tie(self):
        # Close-page policy precharges immediately after each access;
        # the PRE after a read is fenced by tRTP (and tRAS) exactly.
        log = _replay([(0, 0, 0, False, False), (0, 0, 1, False, False)],
                      page_policy="close")["log"]
        rd = next(c for c in log if c.kind == "RD")
        pre = next(c for c in log if c.kind == "PRE" and c.time > rd.time)
        assert pre.time >= rd.time + T.tRTP
        act = next(c for c in log if c.kind == "ACT")
        assert pre.time >= act.time + T.tRAS
        assert _compliant(log)

    def test_same_cycle_refresh_vs_demand_ordering(self):
        # A demand arriving exactly at the tREFI deadline: the service
        # slot and the refresh due-time coincide on the same cycle, and
        # the refresh must win -- REF first, then the demand access.
        log = _replay([(T.tREFI, 0, 0, False, False),
                       (0, 1, 1, False, False)])["log"]
        assert log[0].kind == "REF"
        first_access = next(c for c in log if c.kind != "REF")
        assert first_access.time >= log[0].time + T.tRFC
        assert _compliant(log)

    def test_refresh_catchup_batch_is_compliant(self):
        # Idle for several tREFI windows, then a burst: the closed-form
        # catch-up must book the back-dated REF series.
        log = _replay([(4 * T.tREFI + 17, b % 4, b % 3, b % 2 == 0, False)
                       for b in range(6)])["log"]
        assert len([c for c in log if c.kind == "REF"]) >= 4
        assert _compliant(log)
