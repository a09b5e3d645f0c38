"""Simulation-core microbenchmarks: events/sec on the hot path.

Four workloads, from synthetic to whole-system, each timed once and
appended to ``BENCH_sim.json`` (see ``tools/bench_trajectory.py``):

* **engine_only** -- a handful of self-rearming callbacks churning the
  event queue: pure ``Engine.run()`` dispatch cost, no model code.
* **channel_only** -- one DRAM :class:`~repro.dram.channel.Channel`
  kept saturated with a deterministic read/write mix (row locality so
  FR-FCFS sees hits, misses, and conflicts): the DRAM service loop.
* **long_idle** -- sparse cores (MPKI ~1) over a long horizon: most
  simulated time is pipeline-only crunching between LLC misses, the
  event-census stress case (DESIGN.md section 9).  Recorded twice, once
  under the pre-census ``eager`` periodic mode and once lazy, so the
  trajectory shows the idle fast-forward win directly.
* **fig9_segment** -- ``run_scheme`` over a segment of the Fig. 9
  scheme set (baseline, doram, doram+1) on ``libq``: the workload the
  sweep runner is actually bottlenecked by.

The fig9_segment record is the acceptance metric for the hot-path
overhaul: its ``events_per_s`` must stay >= 2x the first (pre-overhaul)
``baseline``-labelled entry of the trajectory; the lazy long_idle record
must stay >= 2x its eager sibling.  Determinism of the *results* is
enforced elsewhere (tests/obs golden digests and the census-invariance
suite); this file only measures wall time.

Every record carries an ``events_dispatched`` column: the *raw* number
of callbacks the engine dispatched, as opposed to ``events``, the
logical census (dispatched + synthesized) that the golden results are
keyed to.  The gap between the two is the census win.

Scale knobs: ``DORAM_TRACE_LENGTH`` (fig9 segment accesses per core,
default 2000), ``DORAM_BENCH_LABEL`` (trajectory label, default
``bench``), and ``DORAM_BENCH_REPS`` (repetitions per workload, default
3; the *fastest* wall time is recorded, timeit-style, since shared
hosts add noise only in one direction).
"""

import os
import sys
import time
from functools import partial

import pytest

import repro.core.system
from repro.core.schemes import run_scheme
from repro.core.system import DirectRouter
from repro.cpu.core import Core
from repro.dram.channel import Channel
from repro.dram.commands import MemRequest, OpType
from repro.sim.engine import Engine
from repro.trace.synthetic import SyntheticTrace, TraceParams, with_copy_seed

_TOOLS = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "tools")
)
if _TOOLS not in sys.path:
    sys.path.insert(0, _TOOLS)

import bench_trajectory  # noqa: E402  (path shim above)

BENCH_SIM_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_sim.json"
)

_LABEL = os.environ.get("DORAM_BENCH_LABEL", "bench")

FIG9_SCHEMES = ("baseline", "doram", "doram+1")
FIG9_BENCHMARK = "libq"


def _fig9_trace_length():
    return int(os.environ.get("DORAM_TRACE_LENGTH", "2000"))


def _reps():
    return max(1, int(os.environ.get("DORAM_BENCH_REPS", "3")))


def _best_of(fn, *args):
    """Run ``fn`` DORAM_BENCH_REPS times; return the rep with the least
    wall time (second element of the result tuple).  Determinism makes
    every rep's non-timing outputs identical, so only noise differs."""
    best = None
    for _ in range(_reps()):
        result = fn(*args)
        if best is None or result[1] < best[1]:
            best = result
    return best


def _append(workload, events, wall, **extra):
    record = {
        "label": _LABEL,
        "workload": workload,
        "events": events,
        "wall_s": round(wall, 4),
        "events_per_s": round(events / wall) if wall else 0,
    }
    record.update(extra)
    bench_trajectory.append(record, path=BENCH_SIM_PATH)
    print(f"{workload:<13} {events:>9,} events  wall={wall:6.3f}s  "
          f"({record['events_per_s']:,} events/s)")
    return record


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def run_engine_only(total_events=300_000, actors=16):
    """Self-rearming callbacks: pure dispatch/scheduling churn."""
    eng = Engine()
    budget = [total_events]

    def make_actor(index):
        delay = 1 + (index % 7)

        def rearm():
            if budget[0] > 0:
                budget[0] -= 1
                eng.after(delay, rearm)

        return rearm

    for index in range(actors):
        eng.at(index % 3, make_actor(index))
    started = time.perf_counter()
    eng.run()
    wall = time.perf_counter() - started
    return eng.events_dispatched, wall, eng.raw_events_dispatched


def run_channel_only(n_requests=60_000):
    """One saturated DRAM channel under a deterministic access mix."""
    eng = Engine()
    channel = Channel(eng, "bench0")
    num_banks = len(channel.banks)
    state = {"issued": 0}

    def feed(_time=None):
        issued = state["issued"]
        while issued < n_requests:
            op = OpType.WRITE if issued % 4 == 0 else OpType.READ
            if not channel.can_accept(op):
                break
            # Row locality: runs of same-row accesses per bank, with
            # periodic row changes so hits, closed banks, and conflicts
            # all occur.
            bank = issued % num_banks
            row = (issued // (num_banks * 16)) % 97
            channel.enqueue(MemRequest(
                op, 0, 0, bank=bank, row=row, on_complete=feed,
            ))
            issued += 1
        state["issued"] = issued

    feed()
    started = time.perf_counter()
    eng.run()
    wall = time.perf_counter() - started
    assert state["issued"] == n_requests, "channel workload under-issued"
    return eng.events_dispatched, wall, eng.raw_events_dispatched


def run_long_idle(periodic="lazy", n_cores=1, accesses_per_core=6000, mpki=0.5):
    """A sparse trace-driven core: the idle fast-forward stress case.

    At MPKI 0.5 the core spends ~500 pipeline cycles between LLC
    misses, so nearly the whole event census is periodic core wakes with
    nothing else due -- exactly what core run-ahead and refresh batching
    elide.  One core on purpose: with the engine otherwise quiet every
    skipped wake is synthesized, whereas co-running cores turn most of
    them into cheap placeholder dispatches (see DESIGN.md section 9a).
    ``periodic="eager"`` reproduces the pre-census engine for the
    comparison row.
    """
    eng = Engine(periodic=periodic)
    channels = {
        (0, 0): Channel(eng, "idle0"),
        (1, 0): Channel(eng, "idle1"),
    }
    params = TraceParams(mpki=mpki, seed=11)
    for app in range(n_cores):
        trace = SyntheticTrace(
            with_copy_seed(params, app), accesses_per_core
        ).generate()
        router = DirectRouter(
            eng, channels, targets=[(0, 0), (1, 0)],
            app_id=app, app_slot=app,
        )
        Core(eng, app, trace, router).start()
    started = time.perf_counter()
    eng.run()
    wall = time.perf_counter() - started
    return eng.events_dispatched, wall, eng.raw_events_dispatched


def run_fig9_segment(periodic="lazy"):
    """Whole-system runs over a Fig. 9 scheme segment."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repro.core.system, "Engine",
                      partial(Engine, periodic=periodic))
        return _fig9_segment()


def _fig9_segment():
    trace_length = _fig9_trace_length()
    events = 0
    raw_events = 0
    per_scheme = {}
    started = time.perf_counter()
    for scheme in FIG9_SCHEMES:
        result = run_scheme(scheme, FIG9_BENCHMARK, trace_length)
        events += result.events
        raw_events += result.raw_events
        per_scheme[scheme] = result.events
    wall = time.perf_counter() - started
    return events, wall, raw_events, per_scheme, trace_length


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------

def test_simcore_throughput(benchmark):
    events, wall, raw = _best_of(run_engine_only)
    _append("engine_only", events, wall, events_dispatched=raw)

    events, wall, raw = _best_of(run_channel_only)
    _append("channel_only", events, wall, events_dispatched=raw)

    events, wall, raw = _best_of(run_long_idle, "eager")
    _append("long_idle", events, wall, events_dispatched=raw,
            config="eager")
    events, wall, raw = _best_of(run_long_idle)
    _append("long_idle", events, wall, events_dispatched=raw,
            config="lazy")

    # Same-machine eager sibling first: fig9 is noisy on shared hosts,
    # so the lazy row is judged against this pair, not across sessions.
    events, wall, raw, per_scheme, trace_length = _best_of(
        run_fig9_segment, "eager"
    )
    _append("fig9_segment", events, wall, events_dispatched=raw,
            config="eager", schemes=list(FIG9_SCHEMES),
            per_scheme_events=per_scheme, trace_length=trace_length)

    (events, wall, raw, per_scheme, trace_length) = benchmark.pedantic(
        lambda: _best_of(run_fig9_segment), rounds=1, iterations=1,
    )
    _append("fig9_segment", events, wall, events_dispatched=raw,
            config="lazy", schemes=list(FIG9_SCHEMES),
            per_scheme_events=per_scheme, trace_length=trace_length)


if __name__ == "__main__":
    test = type("B", (), {})()

    class _Pedantic:
        @staticmethod
        def pedantic(fn, rounds=1, iterations=1):
            return fn()

    test_simcore_throughput(_Pedantic())
