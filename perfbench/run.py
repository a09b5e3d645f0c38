"""The repository benchmark: one workload, timed and correctness-gated.

    python3 perfbench/run.py --workload fig9 --seed 1 --seconds 25 --trace 0

Runs passes of the workload, each in a fresh interpreter (``worker.py``),
until ``--seconds`` would be exceeded (at least two passes).  Times are
rescaled to a reference host speed by the probe in ``probe.py``.  Every op's
output is checked: against the committed reference digests at the
default seed, and against the same op in the other passes at any other
seed.  ``--trace 1`` alternates untraced and traced passes and reports
the per-layer figures instead of the end-to-end ones.  The last line of
stdout is the JSON result; the lines before it are a readable summary.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import DEFAULT_SEED, FIGURES, WORKLOADS  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")
MIN_PASSES = 2
#: Set-up is sampled at least this often per run; interpreters that only
#: set up make up what the passes do not.
SETUP_SAMPLES = 7
#: No pass starts once the run would pass this many seconds, and every
#: worker is killed at RUN_LIMIT_S, so a run ends well inside 180 s.
HARD_LIMIT_S = 150.0
RUN_LIMIT_S = 170.0


def metric_units(kind: str) -> Dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics
    BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        spec = json.load(fp)
    return {m["name"]: m["unit"] for m in spec[kind]}


class PassFailed(RuntimeError):
    pass


def run_worker(workload: str, seed: int, traced: bool, timeout: float,
               setup_only: bool = False) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--traced", str(int(traced)), "--spawned-at", repr(time.time())]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"worker killed after {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-5:]
        raise PassFailed(f"worker exited {proc.returncode}: "
                         + " | ".join(tail))
    return json.loads(lines[-1])


def gate(workload: str, seed: int, passes: List[dict],
         reference: Dict[str, Dict[str, str]]):
    """Count attempted/failed ops; return them with the failure lines."""
    # The default seed is checked against the committed reference; any
    # other seed against the first pass that produced the op.
    pinned = seed == DEFAULT_SEED
    expected = dict(reference.get(workload, {})) if pinned else {}
    attempted = failed = 0
    problems: List[str] = []
    for index, doc in enumerate(passes):
        for op in doc["ops"]:
            attempted += 1
            why = list(op["errors"])
            digest = op["digest"]
            if digest is not None:
                want = (expected.get(op["id"]) if pinned
                        else expected.setdefault(op["id"], digest))
                if want is None:
                    why.append("no reference digest")
                elif digest != want:
                    why.append(f"digest {digest[:12]} != {want[:12]}")
            if why:
                failed += 1
                problems.append(f"pass {index} op {op['id']}: "
                                + "; ".join(why))
        problems.extend(f"pass {index} trace check: {m}"
                        for m in doc.get("mismatches", []))
    summaries = [doc["summary"] for doc in passes if doc["summary"]]
    if any(s != summaries[0] for s in summaries):
        problems.append("simulated figures differ between passes")
    return attempted, failed, problems


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def op_medians(passes: List[dict], key: str) -> float:
    """Sum over ops of each op's median ``key`` across ``passes``, so a
    burst that slows a few ops of one pass does not move it."""
    times: Dict[str, List[float]] = {}
    for doc in passes:
        for op in doc["ops"]:
            times.setdefault(op["id"], []).append(op[key])
    return sum(median(v) for v in times.values())


def end_to_end(passes: List[dict], setups: List[float]) -> Dict[str, float]:
    """Medians over the untraced passes, at the reference host speed."""
    wall = op_medians(passes, "ref_s")
    events = next((d["summary"]["events"] for d in passes if d["summary"]),
                  0)
    return {
        "setup_s": median(setups),
        "ref_wall_s": wall,
        "peak_rss_mb": median([d["peak_rss_mb"] for d in passes]),
        "sim_events_per_s": events / wall if wall else 0.0,
    }


def figures(passes: List[dict]) -> Dict[str, float]:
    """The workload figures (0 where the workload has none)."""
    summary = next((d["summary"] for d in passes if d["summary"]), {})
    out = {key: summary.get(key, 0.0) for key in FIGURES}
    out["oram_ops_per_s"] = median([
        d["summary"].get("oram_ops", 0) / d["ref_s"]
        for d in passes if not d["traced"] and d["ref_s"]])
    return out


def per_layer(passes: List[dict]) -> Dict[str, float]:
    plain = [d for d in passes if not d["traced"]]
    traced = [d for d in passes if d["traced"]]
    # median_low picks a measured value, so counts stay whole numbers.
    layers = {key: statistics.median_low([d["layers"][key] for d in traced])
              for key in traced[0]["layers"]} if traced else {}
    layers.update(figures(passes))
    layers["bench.raw_wall_s"] = op_medians(plain, "wall_s") if plain else 0.0
    layers["bench.trace_overhead"] = (
        median([d["wall_s"] for d in traced])
        / median([d["wall_s"] for d in plain])
        if plain and traced else 0.0)
    layers["bench.check_mismatches"] = sum(
        len(d.get("mismatches", [])) for d in traced)
    return layers


def describe(workload: str, seed: int, passes: List[dict],
             attempted: int, failed: int, problems: List[str],
             metrics: Dict[str, dict]) -> List[str]:
    traced = sum(1 for d in passes if d["traced"])
    lines = [f"perfbench {workload} seed {seed}: {len(passes)} passes "
             f"({traced} traced); ops attempted {attempted}, "
             f"failed {failed}"]
    lines += [f"  FAIL {p}" for p in problems]
    lines.append("  pass ref_s: " + " ".join(
        f"{d['ref_s']:.3f}" for d in passes if not d["traced"]))
    lines.append("  pass wall_s: " + " ".join(
        f"{d['wall_s']:.3f}{'T' if d['traced'] else ''}" for d in passes))
    lines.append("  pass cpu_s: " + " ".join(
        f"{d['cpu_s']:.3f}{'T' if d['traced'] else ''}" for d in passes))
    for name, doc in metrics.items():
        lines.append(f"  {name:38s} {doc['value']:>16.6g} {doc['unit']}")
    summary = next((d["summary"] for d in passes if d["summary"]), {})
    if summary:
        lines.append("  workload figures (simulated except *_per_s):")
        shown = {k: v for k, v in figures(passes).items() if v}
        shown["sim_events"] = summary["events"]
        for key, value in shown.items():
            note = ""
            if key.startswith("sojourn_p"):
                note = f"  (n={summary['sojourn_samples']})"
            lines.append(f"    {key:36s} {value:>16.6g}{note}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    knobs = sorted(k for k in os.environ if k.startswith("DORAM_"))
    if knobs:
        print(f"perfbench: refusing to run with {', '.join(knobs)} set; "
              f"the benchmark measures the default configuration",
              file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program source at {ROOT}/src/repro",
              file=sys.stderr)
        return 2
    with open(REFERENCE) as fp:
        reference = json.load(fp)

    started = time.monotonic()
    passes: List[dict] = []
    pass_times: List[float] = []
    crashed: List[str] = []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        begun = time.monotonic()
        left = RUN_LIMIT_S - (time.monotonic() - started)
        try:
            passes.append(run_worker(args.workload, args.seed, traced, left))
        except PassFailed as exc:
            crashed.append(str(exc))
            break
        pass_times.append(time.monotonic() - begun)
        elapsed = time.monotonic() - started
        upcoming = elapsed + median(pass_times)
        if len(passes) >= MIN_PASSES and (upcoming > args.seconds
                                          or upcoming > HARD_LIMIT_S):
            break

    setups = [d["setup_ref_s"] for d in passes]
    while not args.trace and not crashed and len(setups) < SETUP_SAMPLES:
        left = RUN_LIMIT_S - (time.monotonic() - started)
        try:
            setups.append(run_worker(args.workload, args.seed, False, left,
                                     setup_only=True)["setup_ref_s"])
        except PassFailed as exc:
            crashed.append(str(exc))

    attempted, failed, problems = gate(args.workload, args.seed, passes,
                                       reference)
    attempted += len(crashed)
    failed += len(crashed)
    problems += [f"pass crashed: {c}" for c in crashed]
    plain = [d for d in passes if not d["traced"]]
    if args.trace:
        units = metric_units("per_layer")
        values = per_layer(passes)
    else:
        units = metric_units("end_to_end")
        values = end_to_end(plain, setups) if plain else {}
    if passes and not crashed:
        problems += [f"metric {name} not measured"
                     for name in units if name not in values]
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in units.items()}
    for line in describe(args.workload, args.seed, passes, attempted,
                         failed, problems, metrics):
        print(line)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
