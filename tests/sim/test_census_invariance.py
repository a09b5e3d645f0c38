"""Census invariance: lazy periodic streams change *what is dispatched*,
never *what happens*.

The engine's lazy mode (the default) elides dispatches for periodic
occurrences it can reconstruct in closed form -- DRAM refresh catch-up
windows and idle core wakes -- and books them as *synthesized* so the
logical event census (``Engine.events_dispatched``) matches the eager
dispatch-per-occurrence engine exactly.  This suite pins that equivalence
at every observable layer:

* whole-system :class:`SimResult` payloads (fig9 schemes, both periodic
  modes) are byte-identical;
* golden trace digests match across eager/lazy;
* the *implied DRAM command stream* -- the PRE/ACT/RD/WR/REF sequence the
  protocol referee replays -- is identical even when idle gaps force
  multi-window refresh catch-up, and still passes the referee;
* channel StatSet snapshots (refresh counters included) are identical;
* :class:`PeriodicStream`'s closed forms agree with one-at-a-time
  eager consumption;
* core run-ahead (quiescent cores simulated past foreign events behind
  placeholder ticks) keeps every fig9 payload identical, survives a
  stale queued wake, and really removes wake bodies;
* the multi-tenant golden *scenario* (open-loop service layer, PR 6)
  produces the committed report and trace digests in both periodic
  modes.
"""

import json
import os

import pytest

from repro.core.schemes import run_scheme
from repro.cpu.core import Core
from repro.dram.channel import Channel
from repro.dram.commands import MemRequest, OpType
from repro.dram.compliance import ProtocolChecker
from repro.dram.timing import DDR3_1600 as T
from repro.obs.export import trace_digest
from repro.obs.golden import run_traced
from repro.sim.engine import CPU_CYCLE_TICKS, Engine
from repro.sim.periodic import PeriodicStream
from repro.trace.benchmarks import BENCHMARKS
from repro.trace.trace_format import TraceRecord

FIG9_SCHEMES = ("baseline", "doram", "doram+1")
TRACE_LENGTH = 300


# ---------------------------------------------------------------------------
# PeriodicStream closed forms vs eager consumption
# ---------------------------------------------------------------------------

class TestPeriodicStream:
    def test_rejects_nonpositive_period(self):
        with pytest.raises(ValueError):
            PeriodicStream(0)

    def test_first_due_defaults_to_period(self):
        assert PeriodicStream(10).next_due == 10
        assert PeriodicStream(10, first_due=3).next_due == 3

    @pytest.mark.parametrize("period,first,now", [
        (10, 10, 10), (10, 10, 19), (10, 10, 55), (7, 3, 100), (1, 0, 42),
    ])
    def test_take_due_matches_one_at_a_time(self, period, first, now):
        lazy = PeriodicStream(period, first_due=first)
        eager = PeriodicStream(period, first_due=first, eager=True)
        start, count = lazy.take_due(now)
        assert start == first
        # Eager mode hands over exactly one occurrence per call; the
        # closed form must equal draining it in a loop.
        eager_times = []
        while eager.due(now):
            t, n = eager.take_due(now)
            assert n == 1
            eager_times.append(t)
        assert count == len(eager_times)
        assert eager_times == [first + i * period for i in range(count)]
        assert lazy.next_due == eager.next_due
        assert lazy.occurrences == eager.occurrences

    def test_not_due_before_deadline(self):
        stream = PeriodicStream(10)
        assert not stream.due(9)
        assert stream.due(10)

    def test_rebase(self):
        stream = PeriodicStream(10)
        stream.rebase(77)
        assert stream.next_due == 77


# ---------------------------------------------------------------------------
# Whole-system equivalence (fig9 segment)
# ---------------------------------------------------------------------------

def _fig9(scheme, periodic_mode, periodic="lazy"):
    periodic_mode(periodic)
    return run_scheme(scheme, "libq", TRACE_LENGTH)


@pytest.mark.parametrize("scheme", FIG9_SCHEMES)
class TestFig9CensusInvariance:
    def test_simresult_identical_and_census_preserved(self, scheme,
                                                      periodic_mode):
        eager = _fig9(scheme, periodic_mode, periodic="eager")
        lazy = _fig9(scheme, periodic_mode)
        # The serialized payload -- every metric, stat, and the logical
        # event census -- must be byte-identical.
        assert lazy.to_json_dict() == eager.to_json_dict()
        assert lazy.events == eager.events
        # Eager mode synthesizes nothing; lazy must actually dispatch
        # fewer raw events (otherwise the census machinery is dead code).
        assert eager.raw_events == eager.events
        assert lazy.raw_events < eager.raw_events


class TestGoldenDigestInvariance:
    """One scheme end-to-end with tracing on: the canonical event trace
    itself (not just aggregates) is mode-independent."""

    def _digest(self, periodic_mode, periodic="lazy"):
        periodic_mode(periodic)
        _result, trace = run_traced("doram")
        return trace_digest(trace.events)

    def test_eager_lazy_digests_agree(self, periodic_mode):
        lazy = self._digest(periodic_mode)
        assert self._digest(periodic_mode, periodic="eager") == lazy


# ---------------------------------------------------------------------------
# Core run-ahead
# ---------------------------------------------------------------------------

#: Short enough to run every Table III benchmark in both modes in tier-1.
RUN_AHEAD_TRACE_LENGTH = 120


def _count_wakes(monkeypatch):
    """Count ``Core._wake`` dispatches from now on."""
    count = [0]
    wake = Core._wake

    def counted(self):
        count[0] += 1
        wake(self)

    monkeypatch.setattr(Core, "_wake", counted)
    return count


@pytest.mark.parametrize("scheme", FIG9_SCHEMES)
def test_run_ahead_keeps_every_fig9_payload(scheme, periodic_mode):
    """Eager and lazy payloads agree on all 15 Table III benchmarks."""
    for spec in BENCHMARKS:
        periodic_mode("eager")
        eager = run_scheme(scheme, spec.code, RUN_AHEAD_TRACE_LENGTH)
        periodic_mode("lazy")
        lazy = run_scheme(scheme, spec.code, RUN_AHEAD_TRACE_LENGTH)
        assert lazy.to_json_dict() == eager.to_json_dict(), spec.code
        assert lazy.end_time == eager.end_time, spec.code
        assert lazy.raw_events <= eager.raw_events, spec.code


def test_run_ahead_removes_most_wake_bodies(periodic_mode, monkeypatch):
    """Placeholders stand in for the simulated wakes: at least half of
    the real ``_wake`` dispatches go on a compute-heavy benchmark
    (blackscholes keeps about one in six)."""
    counts = {}
    for mode in ("eager", "lazy"):
        periodic_mode(mode)
        wakes = _count_wakes(monkeypatch)
        run_scheme("doram", "bl", RUN_AHEAD_TRACE_LENGTH)
        counts[mode] = wakes[0]
    assert counts["lazy"] <= counts["eager"] // 2, counts


class _LatencyPort:
    """Answers every read a fixed delay after issue; always has space."""

    def __init__(self, engine, latency):
        self.engine = engine
        self.latency = latency
        self.issued = []

    def can_accept(self, op):
        return True

    def issue(self, op, line_addr, app_id, on_complete):
        self.issued.append((self.engine.now, op, line_addr))
        if on_complete is not None:
            self.engine.call_after(self.latency, on_complete,
                                   self.engine.now + self.latency)

    def notify_on_space(self, callback):  # pragma: no cover - never full
        raise AssertionError("port never fills")


def _stale_wake_run(periodic):
    """A load, a store 100 instructions later, then long gaps.

    Fetching the store's gap arms a wake for the store's issue tick;
    the load's data returns earlier and its wake arms a second entry for
    that same tick.  From then on each wake has a queued twin, until a
    later load waits on memory.  The wakes in between are otherwise
    quiescent (nothing in flight, a long gap ahead), so only the
    queued-entry guard keeps run-ahead from starting while the twin is
    still due to fire.  Probe events sample the count and add foreign
    events to the queue.
    """
    eng = Engine(periodic=periodic)
    port = _LatencyPort(eng, latency=4 * CPU_CYCLE_TICKS)
    records = [TraceRecord(gap=0, is_write=False, line_addr=1),
               TraceRecord(gap=100, is_write=True, line_addr=2)]
    records += [TraceRecord(gap=600 + 37 * i, is_write=i % 3 == 0,
                            line_addr=3 + i) for i in range(6)]
    finish = []
    core = Core(eng, 0, iter(records), port, on_finish=finish.append)
    queued = []
    for t in range(2 * CPU_CYCLE_TICKS, 6000, 7 * CPU_CYCLE_TICKS):
        eng.at(t, lambda: queued.append(core._queued))
    core.start()
    eng.run(max_events=100_000)
    return eng, port, finish, max(queued)


def test_run_ahead_waits_out_a_stale_wake():
    eng_eager, port_eager, finish_eager, stale_eager = _stale_wake_run("eager")
    eng_lazy, port_lazy, finish_lazy, stale_lazy = _stale_wake_run("lazy")
    # The scenario really holds a stale entry beside the live one.
    assert stale_eager >= 2 and stale_lazy >= 2
    assert port_lazy.issued == port_eager.issued
    assert finish_lazy == finish_eager
    assert eng_lazy.now == eng_eager.now
    assert eng_lazy.events_dispatched == eng_eager.events_dispatched
    assert eng_lazy.raw_events_dispatched < eng_eager.raw_events_dispatched


# ---------------------------------------------------------------------------
# Refresh catch-up vs the protocol referee
# ---------------------------------------------------------------------------

def _bursty_channel(periodic):
    """A channel fed short bursts separated by multi-tREFI idle gaps, so
    the first service after each gap owes several refresh windows."""
    eng = Engine(periodic=periodic)
    channel = Channel(eng, "ch0")
    log = channel.start_command_log()
    num_banks = channel.params.num_banks

    def burst(base):
        def feed():
            for i in range(12):
                op = OpType.WRITE if i % 3 == 0 else OpType.READ
                channel.enqueue(MemRequest(
                    op, 0, 0, bank=(base + i) % num_banks, row=(base + i) % 5,
                ))
        return feed

    # Gaps of ~2.5x, ~4.2x, and ~1.1x tREFI: catch-up batches of
    # different depths, plus one ordinary single-window refresh.
    for burst_idx, gap_mult in enumerate((0.0, 2.5, 6.7, 7.8)):
        eng.at(int(T.tREFI * gap_mult), burst(burst_idx * 3))
    eng.run()
    return eng, channel, log


class TestRefreshCatchUpInvariance:
    def test_command_streams_identical_and_compliant(self):
        eng_eager, ch_eager, log_eager = _bursty_channel("eager")
        eng_lazy, ch_lazy, log_lazy = _bursty_channel("lazy")

        refs = [c for c in log_eager if c.kind == "REF"]
        assert len(refs) >= 7, "gaps failed to force refresh catch-up"
        # The implied command streams -- including every back-dated REF
        # window inside the catch-up batches -- must be identical.
        assert log_lazy == log_eager
        # And both must satisfy the independent JEDEC referee.
        checker = ProtocolChecker(T, ch_eager.params.num_banks)
        assert checker.check(log_eager) == []
        assert checker.check(log_lazy) == []

    def test_stats_and_census_identical(self):
        eng_eager, ch_eager, _ = _bursty_channel("eager")
        eng_lazy, ch_lazy, _ = _bursty_channel("lazy")
        assert ch_lazy.stats.as_dict() == ch_eager.stats.as_dict()
        assert ch_lazy.rank.refreshes == ch_eager.rank.refreshes
        assert eng_lazy.events_dispatched == eng_eager.events_dispatched
        assert eng_lazy.now == eng_eager.now
        # The batched windows really were elided from the dispatch count.
        assert eng_lazy.raw_events_dispatched < eng_eager.raw_events_dispatched
        assert (
            eng_lazy.raw_events_dispatched + eng_lazy.events_synthesized
            == eng_lazy.events_dispatched
        )


# ---------------------------------------------------------------------------
# Multi-tenant scenario invariance (the PR-6 service layer)
# ---------------------------------------------------------------------------

_GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "..", "obs", "golden_digests.json",
)
with open(os.path.normpath(_GOLDEN_PATH)) as _fp:
    _SCENARIO_GOLDEN = json.load(_fp)["scenario"]


class TestScenarioCensusInvariance:
    """The golden 4-tenant scenario pinned across eager/lazy.

    The service layer keeps every component on the poll-free side of the
    census contract (no NS cores, drain via ``engine.stop()``), so the
    full SLO report, the logical event census, *and* the canonical event
    trace must be identical in both periodic modes -- and must match the
    committed goldens (regen via tools/regen_goldens.py after intentional
    changes).
    """

    def _run(self, periodic_mode, periodic="lazy"):
        from repro.obs.tracer import Tracer
        from repro.scenarios import golden_scenario_config, run_scenario

        periodic_mode(periodic)
        tracer = Tracer()
        result = run_scenario(golden_scenario_config(), tracer=tracer)
        return result, trace_digest(tracer.events)

    @pytest.mark.parametrize("periodic", ["lazy", "eager"])
    def test_matches_committed_goldens(self, periodic, periodic_mode):
        result, digest = self._run(periodic_mode, periodic)
        assert result.report_digest() == _SCENARIO_GOLDEN["report"]
        assert digest == _SCENARIO_GOLDEN["trace"]

    def test_census_and_report_identical_across_modes(self, periodic_mode):
        lazy, _ = self._run(periodic_mode)
        eager, _ = self._run(periodic_mode, periodic="eager")
        assert lazy.to_json_dict() == eager.to_json_dict()
        assert lazy.events == eager.events
        assert lazy.end_time == eager.end_time
