"""Secure-link pipeline replay: fixed rate and the lazy/eager census.

Hypothesis-generated app op mixes run through the full delegated stack
-- :class:`OramFrontend` pacer, :class:`SecureLinkSession`, BOB serial
links, :class:`SecureDelegator`, real DRAM sub-channels and a real Path
ORAM controller -- over pacer rate x link bandwidth x SD service time.
Two properties must hold on every mix:

* the wire trace passes the Section III-B leakage audit
  (:func:`repro.obs.leakage.check_fixed_rate`) and every sub-channel's
  command stream passes the JEDEC referee;
* lazy periodic mode reproduces the eager engine's DRAM command
  streams, completion times, StatSets, logical census and final time.
"""

from hypothesis import example, given, settings, strategies as st

from repro.bob.channel import BobChannel
from repro.bob.link import LinkParams
from repro.core.delegator import OramSequencer, SecureDelegator
from repro.core.frontend import OramFrontend
from repro.core.recovery import SecureLinkSession
from repro.dram.channel import Channel
from repro.dram.commands import OpType
from repro.dram.compliance import ProtocolChecker
from repro.dram.timing import DDR3_1600, DEFAULT_CHANNEL_PARAMS
from repro.obs.leakage import check_fixed_rate
from repro.obs.tracer import DEFAULT_CATEGORIES, Tracer
from repro.oram.config import OramConfig
from repro.oram.controller import OramController
from repro.oram.layout import OramLayout
from repro.sim.engine import Engine

N_SUBS = 2
LEAF_LEVEL = 5
QUEUE_DEPTH = 8
#: Run this long past the last app arrival: enough for every queued
#: access plus a stretch of pure dummy periods.
TAIL_TICKS = 25_000


def _replay(ops, *, t_cycles=50, process_ns=5.0, cpu_process_ns=2.0,
            bytes_per_ns=12.8, periodic="lazy", traced=False):
    """Run one app op mix through the delegated pipeline.

    ``ops`` is a list of ``(gap, line, is_write)`` tuples; arrivals are
    cumulative ticks.  Ops that find the frontend queue full are held
    and retried on ``notify_on_space``.
    """
    tracer = Tracer(DEFAULT_CATEGORIES) if traced else None
    eng = Engine(tracer=tracer, periodic=periodic)
    subs = [Channel(eng, f"ch0.{i}") for i in range(N_SUBS)]
    logs = [sub.start_command_log() for sub in subs]
    bob = BobChannel(
        eng, 0, subs, LinkParams(bytes_per_ns=bytes_per_ns), tracer=tracer
    )
    delegator = SecureDelegator(
        eng, bob, {}, process_ns=process_ns, tracer=tracer
    )
    cfg = OramConfig(leaf_level=LEAF_LEVEL, treetop_levels=2,
                     subtree_levels=3)
    layout = OramLayout(cfg, home_targets=[(0, i) for i in range(N_SUBS)])
    controller = OramController(
        eng, cfg, layout, delegator.sink, seed=1, tracer=tracer
    )
    delegator.sequencer = OramSequencer(controller)
    backend = SecureLinkSession(eng, delegator, controller,
                                cpu_process_ns=cpu_process_ns)
    frontend = OramFrontend(
        eng, backend, t_cycles=t_cycles, queue_depth=QUEUE_DEPTH,
        tracer=tracer,
    )

    completions = []
    held = []

    def drain():
        while held and frontend.can_accept(held[0][0]):
            op, line, cb = held.pop(0)
            frontend.issue(op, line, 0, cb)
        if held:
            frontend.notify_on_space(drain)

    def arrive(op, line, cb):
        if held or not frontend.can_accept(op):
            if not held:
                frontend.notify_on_space(drain)
            held.append((op, line, cb))
        else:
            frontend.issue(op, line, 0, cb)

    now = 0
    for idx, (gap, line, is_write) in enumerate(ops):
        now += gap
        op = OpType.WRITE if is_write else OpType.READ
        cb = (lambda t, i=idx: completions.append((i, t)))
        eng.at(now, lambda o=op, l=line, c=cb: arrive(o, l, c))
    frontend.start()
    eng.run(until=now + TAIL_TICKS)
    return {
        "logs": logs,
        "completions": completions,
        "stats": {
            "frontend": frontend.stats.as_dict(),
            "sd": delegator.stats.as_dict(),
            "bob": bob.stats.as_dict(),
            "oram": controller.stats.as_dict(),
            "subs": [sub.stats.as_dict() for sub in subs],
        },
        "events": eng.events_dispatched,
        "raw": eng.raw_events_dispatched,
        "now": eng.now,
        "tracer": tracer,
    }


_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3000),  # arrival gap (ticks)
        st.integers(min_value=0, max_value=63),    # line address
        st.booleans(),                             # is_write
    ),
    min_size=1,
    max_size=10,
)

_t_cycles = st.sampled_from([10, 50, 130])
_process_ns = st.sampled_from([0.5, 5.0, 12.0])
_bw = st.sampled_from([6.4, 12.8])


class TestPipelineReplay:
    @settings(max_examples=10, deadline=None)
    @given(ops=_ops, t_cycles=_t_cycles, process_ns=_process_ns,
           bytes_per_ns=_bw)
    # Regression seeds: a zero-gap burst overfills the depth-8 queue
    # (held/notify_on_space path); a write-then-read pair during the
    # overlapped write phase; a long idle gap across many pure-dummy
    # pacer periods; t=10 puts the pacer slot inside the link round
    # trip, so the response-anchored rebase sees a zero idle gap.
    @example(ops=[(0, i, i % 3 == 0) for i in range(10)], t_cycles=50,
             process_ns=5.0, bytes_per_ns=12.8)
    @example(ops=[(0, 7, True), (1, 7, False)], t_cycles=50,
             process_ns=5.0, bytes_per_ns=12.8)
    @example(ops=[(0, 1, False), (9000, 2, False)], t_cycles=130,
             process_ns=12.0, bytes_per_ns=6.4)
    @example(ops=[(0, 3, False), (0, 4, True), (0, 5, False)], t_cycles=10,
             process_ns=0.5, bytes_per_ns=12.8)
    def test_fixed_rate_and_jedec_hold(self, ops, t_cycles, process_ns,
                                       bytes_per_ns):
        run = _replay(ops, t_cycles=t_cycles, process_ns=process_ns,
                      bytes_per_ns=bytes_per_ns, traced=True)
        assert check_fixed_rate(run["tracer"].events,
                                t_cycles=t_cycles) == []
        checker = ProtocolChecker(DDR3_1600, DEFAULT_CHANNEL_PARAMS.num_banks)
        for log in run["logs"]:
            assert checker.check(log) == []

    @settings(max_examples=10, deadline=None)
    @given(ops=_ops, t_cycles=_t_cycles, process_ns=_process_ns)
    def test_lazy_matches_eager(self, ops, t_cycles, process_ns):
        lazy = _replay(ops, t_cycles=t_cycles, process_ns=process_ns)
        eager = _replay(ops, t_cycles=t_cycles, process_ns=process_ns,
                        periodic="eager")
        for key in ("logs", "completions", "stats", "events", "now"):
            assert lazy[key] == eager[key], key
        # Eager dispatches every occurrence; lazy never dispatches more.
        assert eager["raw"] == eager["events"]
        assert lazy["raw"] <= eager["raw"]
