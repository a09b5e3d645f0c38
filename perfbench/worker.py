"""One benchmark pass: set up a workload and run each of its ops once.

``run.py`` starts every pass as a fresh single-threaded interpreter, so
per-process caches (the materialized benchmark traces, the codec's
dummy-slot cache) start empty as they do for a user's CLI call.  The
pass prints one JSON line: set-up time, per-op wall time, digests and
errors, the pass's simulated figures and, for a traced pass, the
per-layer figures.  Untraced passes run under the host-speed probe
(``probe.py``) and also give each op's time at the reference host
speed; set-up time is rescaled by the probe kernel timed right after it.

    python3 perfbench/worker.py --workload fig9 --seed 1 --traced 0 \
        --spawned-at "$(date +%s.%N)"
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def measure_setup(workload: str, seed: int, spawned_at: float) -> dict:
    """Only the set-up: an extra ``setup_s`` sample for the median."""
    import workloads
    from probe import reference_seconds

    wl = workloads.build(workload, seed, ROOT)
    setup_s = time.time() - spawned_at
    wl.close()
    return {"setup_s": setup_s, "setup_ref_s": reference_seconds(setup_s)}


def run_op(op_id, thunk, trace, probe) -> tuple:
    """Run one op; return its output and its timing record, which has
    ``errors`` only if the op raised.

    ``wall_s`` is the op's program time (probe ticks excluded) and
    ``ref_s`` the same at the reference host speed (untraced passes);
    ``cpu_s`` includes the probe's ticks."""
    start = time.perf_counter()
    cpu_start = time.process_time()
    if probe is not None:
        raw_start, ref_start = probe.raw_s, probe.ref_s
        probe.begin()
    try:
        if trace is not None:
            from layers import OP_SPAN

            with trace.recorder.span(OP_SPAN):
                out = thunk()
        else:
            out = thunk()
    except Exception as exc:  # noqa: BLE001 - a raising op fails
        if probe is not None:
            probe.end()
        return None, {"id": op_id, "wall_s": 0.0, "ref_s": 0.0,
                      "cpu_s": 0.0, "digest": None,
                      "errors": [f"raised {type(exc).__name__}: {exc}"]}
    if probe is not None:
        probe.end()
        wall = probe.raw_s - raw_start
        ref = probe.ref_s - ref_start
    else:
        wall = time.perf_counter() - start
        ref = None
    cpu = time.process_time() - cpu_start
    if trace is not None:
        trace.after_op()
    return out, {"id": op_id, "wall_s": wall, "ref_s": ref, "cpu_s": cpu}


def run_pass(workload: str, seed: int, traced: bool,
             spawned_at: float) -> dict:
    trace = None
    if traced:
        # Probes go in before the workload is built, so the op thunks
        # bind the probed public calls.
        from layers import LayerTrace

        trace = LayerTrace()
    import workloads
    from probe import HostProbe, reference_seconds

    wl = workloads.build(workload, seed, ROOT)
    setup_s = time.time() - spawned_at
    setup_ref_s = reference_seconds(setup_s)
    # The probe's ticks would land in the traced passes' layer spans.
    probed = HostProbe() if trace is None else contextlib.nullcontext()
    outs = {}
    ops = []
    try:
        with probed as probe:
            for op_id, thunk in wl.ops:
                out, op = run_op(op_id, thunk, trace, probe)
                if "errors" not in op:
                    outs[op_id] = out
                    op["digest"] = wl.digest(op_id, out)
                    op["errors"] = wl.errors(op_id, out)
                ops.append(op)
        summary = wl.summary(outs) if len(outs) == len(wl.ops) else {}
    finally:
        wl.close()
    doc = {
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "wall_s": sum(op["wall_s"] for op in ops),
        "ref_s": (sum(op["ref_s"] for op in ops)
                  if probe is not None else None),
        "probe_ticks": probe.ticks if probe is not None else 0,
        "cpu_s": sum(op["cpu_s"] for op in ops),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": ops,
        "summary": summary,
        "traced": traced,
    }
    if trace is not None:
        doc["layers"] = trace.metrics()
        doc["mismatches"] = trace.mismatches()
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() when the parent started us")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.setup_only:
        doc = measure_setup(args.workload, args.seed, args.spawned_at)
    else:
        doc = run_pass(args.workload, args.seed, bool(args.traced),
                       args.spawned_at)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
