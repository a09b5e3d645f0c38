"""The four benchmark workloads, driven through the public library API.

Each workload is built by :func:`build` from a seed.  Building is the
set-up the benchmark times as ``setup_s``: imports, configurations, the
campaign and its fault plans, the explore grid.  The built workload
exposes:

* ``ops`` -- ``(op_id, thunk)`` pairs.  One op is one unit checked for
  correctness: one ``run_scheme`` call, one scenario, one chaos cell, or
  one explore.  Only the thunk is timed.
* ``digest(op_id, out)`` -- sha256 of the op's simulated output; the
  gate compares it with the committed reference (default seed) or with
  the same op in another pass (any other seed).
* ``errors(op_id, out)`` -- invariant violations the op reports itself.
* ``summary(outs)`` -- the pass's simulated figures (all exact and
  seed-determined) plus ``events``, the logical simulated events.
* ``close()`` -- removes any scratch files the ops left behind.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import shutil
from functools import partial
from typing import Callable, Dict, List, Tuple

#: Seed the committed reference digests were taken at.
DEFAULT_SEED = 1

WORKLOADS = ("fig9", "serve", "chaos", "explore")

#: Accesses per core of each fig9 run.  The Fig. 9 gmeans are stable in
#: trace length (0.72 / 0.76 here and at the 2500-access CLI default).
FIG9_TRACE_LENGTH = 200
FIG9_SCHEMES = ("baseline", "doram", "doram+1")
#: Fig. 9 gmeans the paper reports (NS-App time / Path-ORAM baseline).
PAPER_GMEAN = {"doram": 0.875, "doram+1": 0.886}

#: serve: 16 tenants at 100k rps each is well below the secure channel's
#: knee (nothing rejected, queue depth p99 of 1); 625 us of arrivals
#: gives about 1,000 completed requests.
SERVE_TENANTS = 16
SERVE_RATE_RPS = 100_000.0
SERVE_HORIZON_NS = 625_000.0
SERVE_WRITE_FRACTION = 0.25

CHAOS_CAMPAIGN = os.path.join("examples", "campaigns", "ci-smoke.json")

EXPLORE_TRACE_LENGTH = 200
EXPLORE_BENCHMARK = "li"

#: Simulated figures of single workloads, reported with the per-layer
#: metrics (0 on the workloads that do not produce them).
FIGURES = (
    "fig9_gmean_err", "cpu.core.ns_time_gmean.doram",
    "cpu.core.ns_time_gmean.doram_k1", "sojourn_p50_ns", "sojourn_p99_ns",
    "goodput_rps", "availability", "recovery_p99_ns",
    "model_latency_err_p95", "model_goodput_err_p95", "sim_fraction",
)

#: FIPS-197 Appendix C.1 known-answer vector for AES-128.
AES_KAT = (
    "000102030405060708090a0b0c0d0e0f",
    "00112233445566778899aabbccddeeff",
    "69c4e0d86a7b0430d8cdb78070b4c55a",
)


def sha256_json(doc: object) -> str:
    from repro.analysis.sweep import canonical_json

    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


def nearest_rank(sorted_values: List[float], q: float) -> float:
    return sorted_values[max(math.ceil(q * len(sorted_values)) - 1, 0)]


class Workload:
    def __init__(self) -> None:
        self.ops: List[Tuple[str, Callable[[], object]]] = []

    def digest(self, op_id: str, out) -> str:
        raise NotImplementedError

    def errors(self, op_id: str, out) -> List[str]:
        return []

    def summary(self, outs: Dict[str, object]) -> Dict[str, float]:
        raise NotImplementedError

    def close(self) -> None:
        pass


class Fig9(Workload):
    """Table III benchmarks x baseline / D-ORAM / D-ORAM+1 (Fig. 9)."""

    def __init__(self, seed: int, root: str) -> None:
        super().__init__()
        from repro.core.schemes import run_scheme
        from repro.trace.benchmarks import BENCHMARKS

        self.codes = [spec.code for spec in BENCHMARKS]
        for scheme in FIG9_SCHEMES:
            for code in self.codes:
                self.ops.append((
                    f"{scheme}/{code}",
                    partial(run_scheme, scheme, code, FIG9_TRACE_LENGTH,
                            seed=seed),
                ))

    def digest(self, op_id, out) -> str:
        return sha256_json(out.to_json_dict())

    def summary(self, outs) -> Dict[str, float]:
        from repro.sim.stats import geomean

        gmeans = {}
        for scheme in PAPER_GMEAN:
            gmeans[scheme] = geomean([
                outs[f"{scheme}/{code}"].ns_mean_time()
                / outs[f"baseline/{code}"].ns_mean_time()
                for code in self.codes
            ])
        err = sum(abs(gmeans[s] - PAPER_GMEAN[s]) for s in PAPER_GMEAN)
        return {
            "events": sum(out.events for out in outs.values()),
            "fig9_gmean_err": err / len(PAPER_GMEAN),
            "cpu.core.ns_time_gmean.doram": gmeans["doram"],
            "cpu.core.ns_time_gmean.doram_k1": gmeans["doram+1"],
        }


class Serve(Workload):
    """16-tenant open-loop Poisson service on the default L = 23 tree."""

    def __init__(self, seed: int, root: str) -> None:
        super().__init__()
        from repro.scenarios import ArrivalSpec, ScenarioConfig, run_scenario
        from repro.sim.engine import TICKS_PER_NS

        self.ticks_per_ns = TICKS_PER_NS
        config = ScenarioConfig(
            num_tenants=SERVE_TENANTS,
            arrival=ArrivalSpec(kind="poisson", rate_rps=SERVE_RATE_RPS),
            horizon_ns=SERVE_HORIZON_NS,
            write_fraction=SERVE_WRITE_FRACTION,
            seed=seed,
        )
        self.ops.append(("serve", partial(run_scenario, config)))

    def digest(self, op_id, out) -> str:
        return out.report_digest()

    def errors(self, op_id, out) -> List[str]:
        offered = out.total("offered")
        completed = out.total("completed")
        if completed != offered:
            return [f"completed {completed} of {offered} offered: the "
                    f"rate is past the secure channel's knee"]
        return []

    def summary(self, outs) -> Dict[str, float]:
        out = outs["serve"]
        sojourns = sorted(
            sojourn for rows in out.tenant_completions.values()
            for _tick, sojourn in rows
        )
        scale = self.ticks_per_ns
        return {
            "events": out.events,
            "sojourn_p50_ns": nearest_rank(sojourns, 0.50) / scale,
            "sojourn_p99_ns": nearest_rank(sojourns, 0.99) / scale,
            "sojourn_samples": len(sojourns),
            "goodput_rps": out.goodput_rps(),
        }


class Chaos(Workload):
    """One ``ci-smoke`` cell: the last (most corrupted) fault point under
    the higher-rate workload.

    The other cells run the same invariant harness, which is nearly all
    of a cell's host time, so one cell per pass keeps three or more
    passes inside a run.
    """

    def __init__(self, seed: int, root: str) -> None:
        super().__init__()
        from repro.crypto.aes import AES128
        from repro.faults.campaign import CampaignSpec, FaultPoint

        self.aes = AES128
        spec = CampaignSpec.from_file(os.path.join(root, CHAOS_CAMPAIGN))
        spec = dataclasses.replace(spec, seed=seed)
        cell = FaultPoint(spec=spec, index=spec.points - 1,
                          scheme=spec.schemes[0],
                          workload_id=len(spec.workloads) - 1)
        self.ops.append((f"#{cell.index}-w{cell.workload_id}",
                         partial(self._cell, cell)))

    def _cell(self, cell) -> Dict[str, object]:
        payload = cell.execute()
        key, plain, cipher = (bytes.fromhex(h) for h in AES_KAT)
        payload["aes_kat_ok"] = self.aes(key).encrypt_block(plain) == cipher
        return payload

    def digest(self, op_id, out) -> str:
        return sha256_json({k: v for k, v in out.items()
                            if k != "aes_kat_ok"})

    def errors(self, op_id, out) -> List[str]:
        errors = [f"invariant: {v}" for v in out["invariants"]["violations"]]
        if not out["invariants"]["ok"] and not errors:
            errors.append("invariant harness reported not ok")
        if not out["aes_kat_ok"]:
            errors.append("AES128 fails the FIPS-197 C.1 known-answer test")
        return errors

    def summary(self, outs) -> Dict[str, float]:
        cells = list(outs.values())
        return {
            "events": sum(c["invariants"]["events"] + c["result"]["events"]
                          for c in cells),
            "availability": min(c["availability"]["availability"]
                                for c in cells),
            "recovery_p99_ns": max(c["availability"]["recovery_ns"]["p99"]
                                   for c in cells),
            "oram_ops": sum(c["invariants"]["durability"]["reads"]
                            + c["invariants"]["durability"]["writes"]
                            for c in cells),
        }


class Explore(Workload):
    """Model triage plus selective simulation of the 512-point grid."""

    def __init__(self, seed: int, root: str) -> None:
        super().__init__()
        from repro.analysis.explore import build_grid, explore
        from repro.analysis.sweep import ResultStore

        self.grid = build_grid("full", EXPLORE_TRACE_LENGTH,
                               benchmark=EXPLORE_BENCHMARK)
        self.store_root = os.path.join(
            root, ".perfbench-work", f"explore-{os.getpid()}")
        shutil.rmtree(self.store_root, ignore_errors=True)
        self.store = ResultStore(self.store_root)
        self.ops.append(("explore", partial(
            explore, self.grid, store=self.store, workers=1, seed=seed)))

    def _payloads(self) -> List[dict]:
        # Read the files directly: ResultStore.get is a probed call.
        payloads = []
        for key in self.store.keys():
            with open(self.store.path_for(key)) as fp:
                payloads.append(json.load(fp))
        return payloads

    def digest(self, op_id, out) -> str:
        return sha256_json({
            "frontier": out.frontier,
            "simulated": sorted(self.store.keys()),
            "latency_error": out.latency_error,
            "goodput_error": out.goodput_error,
        })

    def errors(self, op_id, out) -> List[str]:
        return [f"point {label}: {reason}"
                for label, reason in sorted(out.failed.items())]

    def summary(self, outs) -> Dict[str, float]:
        out = outs["explore"]
        payloads = self._payloads()
        return {
            "events": sum(p["result"]["events"] for p in payloads),
            "model_latency_err_p95": out.latency_error["p95"],
            "model_goodput_err_p95": out.goodput_error["p95"],
            "sim_fraction": out.sim_fraction,
        }

    def close(self) -> None:
        shutil.rmtree(self.store_root, ignore_errors=True)
        parent = os.path.dirname(self.store_root)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)


def build(name: str, seed: int, root: str) -> Workload:
    cls = {"fig9": Fig9, "serve": Serve, "chaos": Chaos,
           "explore": Explore}[name]
    return cls(seed, root)
