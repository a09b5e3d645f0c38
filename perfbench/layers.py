"""Per-layer attribution for the traced run.

:class:`LayerTrace` probes each layer's public calls with spans (see
:mod:`spans`), collects the simulator objects each op builds, and after
each op reads the program's own counters off them.  Span counts are
cross-checked against those counters: a mismatch means some path
reached the layer without going through its public call, so the spans
under-attribute it, and the benchmark reports an error.

The ``Core`` wake loop and the DRAM service loop have no public per-op
call; their host time stays inside ``sim.engine`` self time.
"""

from __future__ import annotations

from typing import Dict, List

from spans import Probes, SpanRecorder

#: (span name, probed public call).  The layer is the part before ":".
PROBES = (
    ("sim.engine:run", "repro.sim.engine:Engine.run"),
    ("core.system:build_and_run", "repro.core.system:build_and_run"),
    ("trace.benchmarks:benchmark_trace",
     "repro.trace.benchmarks:benchmark_trace"),
    ("dram.channel:enqueue", "repro.dram.channel:Channel.enqueue"),
    ("bob.link:send", "repro.bob.link:SerialLink.send"),
    ("bob.link:send_tail", "repro.bob.link:SerialLink.send_tail"),
    ("core.frontend:issue", "repro.core.frontend:OramFrontend.issue"),
    ("core.delegator:receive_request",
     "repro.core.delegator:SecureDelegator.receive_request"),
    ("core.delegator:try_local",
     "repro.core.delegator:SecureDelegator.try_local"),
    ("core.delegator:try_remote",
     "repro.core.delegator:SecureDelegator.try_remote"),
    ("oram.controller:begin_read",
     "repro.oram.controller:OramController.begin_read"),
    ("oram.controller:begin_write",
     "repro.oram.controller:OramController.begin_write"),
    ("oram.path_oram:read", "repro.oram.path_oram:PathOram.read"),
    ("oram.path_oram:write", "repro.oram.path_oram:PathOram.write"),
    ("oram.path_oram:access_at", "repro.oram.path_oram:PathOram.access_at"),
    ("oram.path_oram:dummy_access",
     "repro.oram.path_oram:PathOram.dummy_access"),
    ("crypto.codec:encode_bucket",
     "repro.crypto.codec:EncryptedBucketCodec.encode_bucket"),
    ("crypto.codec:decode_bucket",
     "repro.crypto.codec:EncryptedBucketCodec.decode_bucket"),
    ("crypto.aes:AES128", "repro.crypto.aes:AES128.__init__"),
    ("crypto.aes:encrypt_block", "repro.crypto.aes:AES128.encrypt_block"),
    ("crypto.aes:keystream", "repro.crypto.aes:AES128.keystream"),
    ("faults.resilient:durability_check",
     "repro.faults.resilient:durability_check"),
    ("dram.compliance:check", "repro.dram.compliance:ProtocolChecker.check"),
    ("obs.leakage:check_fixed_rate", "repro.obs.leakage:check_fixed_rate"),
    ("obs.leakage:check_recovery_discipline",
     "repro.obs.leakage:check_recovery_discipline"),
    ("scenarios.service:run_scenario",
     "repro.scenarios.service:run_scenario"),
    ("analysis.availability:score_scenario",
     "repro.analysis.availability:score_scenario"),
    ("analysis.model:DoramModel.predict",
     "repro.analysis.model:DoramModel.predict"),
    ("analysis.model:CalibratedModel.predict",
     "repro.analysis.model:CalibratedModel.predict"),
    ("analysis.sweep:run_sweep", "repro.analysis.sweep:run_sweep"),
    ("analysis.sweep:store_get", "repro.analysis.sweep:ResultStore.get"),
    ("analysis.sweep:store_put", "repro.analysis.sweep:ResultStore.put"),
    ("analysis.explore:explore", "repro.analysis.explore:explore"),
)

#: Simulator classes whose instances are collected for their counters.
TRACKED = (
    ("engine", "repro.sim.engine:Engine"),
    ("channel", "repro.dram.channel:Channel"),
    ("link", "repro.bob.link:SerialLink"),
    ("frontend", "repro.core.frontend:OramFrontend"),
    ("delegator", "repro.core.delegator:SecureDelegator"),
    ("controller", "repro.oram.controller:OramController"),
    ("path_oram", "repro.oram.path_oram:PathOram"),
)

#: The benchmark's own root span around each op; its self time is the
#: op's host time that no probed layer claims.
OP_SPAN = "bench:op"

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class LayerTrace:
    """Probes installed in this interpreter plus what they have counted."""

    def __init__(self) -> None:
        from repro.sim.engine import TICKS_PER_NS

        self.ticks_per_ns = TICKS_PER_NS
        self.recorder = SpanRecorder()
        self.probes = Probes(self.recorder)
        self.instances: Dict[str, list] = {kind: [] for kind, _ in TRACKED}
        self.acc: Dict[str, float] = {}
        hooks = {
            "core.system:build_and_run": self._sim_result,
            "core.delegator:try_local": self._accepted("local_accepted"),
            "core.delegator:try_remote": self._accepted("remote_accepted"),
            "faults.resilient:durability_check": self._durability,
            "dram.compliance:check": self._commands,
            "scenarios.service:run_scenario": self._scenario,
            "analysis.sweep:run_sweep": self._sweep,
            "analysis.explore:explore": self._explore,
        }
        for name, target in PROBES:
            self.probes.add(name, target, hooks.get(name))
        for kind, target in TRACKED:
            self.probes.track(target, self.instances[kind])

    def remove(self) -> None:
        self.probes.remove()

    def _add(self, key: str, value: float) -> None:
        self.acc[key] = self.acc.get(key, 0) + value

    def _max(self, key: str, value: float) -> None:
        self.acc[key] = max(self.acc.get(key, value), value)

    # -- hooks: simulated statistics the returned objects carry -----------
    def _sim_result(self, args, kwargs, result) -> None:
        self._add("ns_read_count", result.ns_read_latency.count)
        self._add("ns_read_total", result.ns_read_latency.total)

    def _accepted(self, key: str):
        def hook(args, kwargs, result) -> None:
            self._add(key, 1 if result else 0)
        return hook

    def _durability(self, args, kwargs, result) -> None:
        for key in ("flips_injected", "flips_detected", "rereads"):
            self._add(key, result[key])

    def _commands(self, args, kwargs, result) -> None:
        self._add("commands", len(args[1]))

    def _scenario(self, args, kwargs, result) -> None:
        self._add("offered", result.total("offered"))
        self._add("completed", result.total("completed"))
        for key in ("rejected_overflow", "rejected_shed", "rejected_fault"):
            self._add("rejected", result.total(key))
        for row in result.tenants.values():
            self._max("queue_depth_p99", row["queue_depth"]["p99"])

    def _sweep(self, args, kwargs, result) -> None:
        self._add("sweep_points", len(args[0]))

    def _explore(self, args, kwargs, result) -> None:
        self._add("rounds", result.rounds)
        self._add("simulated", result.simulated)

    # -- the program's own counters, read once per op ----------------------
    def after_op(self) -> None:
        inst = self.instances
        for engine in inst["engine"]:
            self._add("events", engine.events_dispatched)
            self._add("raw_events", engine.raw_events_dispatched)
        for ch in inst["channel"]:
            counter = ch.stats.counter
            self._add("enq_counter", ch._enq_counter)
            self._add("reads", counter("reads_serviced").value)
            self._add("writes", counter("writes_serviced").value)
            self._add("row_hit", counter("row_hit").value)
            self._add("row_total", counter("row_hit").value
                      + counter("row_closed").value
                      + counter("row_conflict").value)
            self._max("max_utilization", ch.utilization())
            secure = ch.stats.latency("secure_read_latency")
            self._add("secure_read_count", secure.count)
            self._add("secure_read_total", secure.total)
        for link in inst["link"]:
            self._add("packets", link.stats.counter("packets").value)
        for fe in inst["frontend"]:
            self._add("app_requests", fe.stats.counter("app_requests").value)
            self._add("real", fe.pacer.stats.counter("real").value)
            self._add("dummy", fe.pacer.stats.counter("dummy").value)
            response = fe.stats.latency("oram_response")
            self._add("response_count", response.count)
            self._add("response_total", response.total)
        for sd in inst["delegator"]:
            self._add("sd_requests", sd.stats.counter("requests").value)
        for ctrl in inst["controller"]:
            self._add("ctrl_accesses",
                      ctrl.stats.counter("real_accesses").value
                      + ctrl.stats.counter("dummy_accesses").value)
            phase = ctrl.stats.latency("read_phase")
            self._add("read_phase_count", phase.count)
            self._add("read_phase_total", phase.total)
        for oram in inst["path_oram"]:
            self._add("oram_accesses", oram.accesses)
            self._max("stash_peak", oram.stash.peak)
        for sink in inst.values():
            sink.clear()

    def mismatches(self) -> List[str]:
        """Span counts that disagree with the program's own counters."""
        rec, acc = self.recorder, self.acc
        pairs = (
            ("dram.channel:enqueue", rec.calls("dram.channel:enqueue"),
             "Channel enqueue counter", acc.get("enq_counter", 0)),
            # send_tail delegates to send unless it fuses the delivery.
            ("bob.link:send", rec.calls("bob.link:send"),
             "SerialLink packets", acc.get("packets", 0)),
            ("core.frontend:issue", rec.calls("core.frontend:issue"),
             "OramFrontend app_requests", acc.get("app_requests", 0)),
            ("oram.controller:begin_read",
             rec.calls("oram.controller:begin_read"),
             "OramController real+dummy accesses",
             acc.get("ctrl_accesses", 0)),
            ("oram.path_oram accesses", self._path_oram_calls(),
             "PathOram.accesses", acc.get("oram_accesses", 0)),
        )
        return [
            f"{span} spans {spans} != {counter} {value}"
            for span, spans, counter, value in pairs if spans != value
        ]

    def _path_oram_calls(self) -> int:
        return self.recorder.calls(
            "oram.path_oram:read", "oram.path_oram:write",
            "oram.path_oram:access_at", "oram.path_oram:dummy_access")

    def metrics(self) -> Dict[str, float]:
        """Per-layer figures of everything recorded so far."""
        rec, acc = self.recorder, self.acc
        tpn = self.ticks_per_ns
        engine_s = rec.layer_self_s("sim.engine")
        events = acc.get("events", 0)
        aes_s = rec.layer_self_s("crypto.aes")
        blocks = rec.calls("crypto.aes:encrypt_block")
        local = acc.get("local_accepted", 0)
        remote = acc.get("remote_accepted", 0)
        injected = acc.get("flips_injected", 0)
        return {
            "sim.engine.self_s": engine_s,
            "sim.engine.events": events,
            "sim.engine.raw_events": acc.get("raw_events", 0),
            "sim.engine.ns_per_event": _ratio(engine_s * 1e9, events),
            "core.system.build_s": rec.layer_self_s("core.system"),
            "core.system.runs": rec.calls("core.system:build_and_run"),
            "trace.benchmarks.gen_s": rec.layer_self_s("trace.benchmarks"),
            "trace.benchmarks.calls":
                rec.calls("trace.benchmarks:benchmark_trace"),
            "cpu.core.ns_read_ns": _ratio(acc.get("ns_read_total", 0),
                                          acc.get("ns_read_count", 0)) / tpn,
            "dram.channel.enqueues": rec.calls("dram.channel:enqueue"),
            "dram.channel.enqueue_s": rec.layer_self_s("dram.channel"),
            "dram.channel.reads": acc.get("reads", 0),
            "dram.channel.writes": acc.get("writes", 0),
            "dram.channel.row_hit_rate": _ratio(acc.get("row_hit", 0),
                                                acc.get("row_total", 0)),
            "dram.channel.max_utilization": acc.get("max_utilization", 0.0),
            "dram.channel.secure_read_ns": _ratio(
                acc.get("secure_read_total", 0),
                acc.get("secure_read_count", 0)) / tpn,
            "bob.link.packets": acc.get("packets", 0),
            "bob.link.self_s": rec.layer_self_s("bob.link"),
            "core.frontend.issues": rec.calls("core.frontend:issue"),
            "core.frontend.self_s": rec.layer_self_s("core.frontend"),
            "core.frontend.real_frac": _ratio(
                acc.get("real", 0), acc.get("real", 0) + acc.get("dummy", 0)),
            "core.frontend.oram_response_ns": _ratio(
                acc.get("response_total", 0),
                acc.get("response_count", 0)) / tpn,
            "core.delegator.requests":
                rec.calls("core.delegator:receive_request"),
            "core.delegator.self_s": rec.layer_self_s("core.delegator"),
            "core.delegator.remote_frac": _ratio(remote, local + remote),
            "oram.controller.reads": rec.calls("oram.controller:begin_read"),
            "oram.controller.writes":
                rec.calls("oram.controller:begin_write"),
            "oram.controller.self_s": rec.layer_self_s("oram.controller"),
            "oram.controller.read_phase_ns": _ratio(
                acc.get("read_phase_total", 0),
                acc.get("read_phase_count", 0)) / tpn,
            "oram.path_oram.accesses": self._path_oram_calls(),
            "oram.path_oram.self_s": rec.layer_self_s("oram.path_oram"),
            "oram.path_oram.stash_peak": acc.get("stash_peak", 0),
            "crypto.codec.calls": rec.calls("crypto.codec:encode_bucket",
                                            "crypto.codec:decode_bucket"),
            "crypto.codec.self_s": rec.layer_self_s("crypto.codec"),
            "crypto.aes.blocks": blocks,
            "crypto.aes.self_s": aes_s,
            "crypto.aes.blocks_per_s": _ratio(blocks, aes_s),
            "faults.resilient.flips_injected": injected,
            "faults.resilient.flips_detected":
                acc.get("flips_detected", 0),
            "faults.resilient.detect_ratio": _ratio(
                acc.get("flips_detected", 0), injected),
            "faults.resilient.rereads": acc.get("rereads", 0),
            "dram.compliance.commands": acc.get("commands", 0),
            "dram.compliance.self_s": rec.layer_self_s("dram.compliance"),
            "obs.leakage.self_s": rec.layer_self_s("obs.leakage"),
            "scenarios.service.self_s": rec.layer_self_s("scenarios.service"),
            "scenarios.tenant.offered": acc.get("offered", 0),
            "scenarios.tenant.completed": acc.get("completed", 0),
            "scenarios.tenant.rejected": acc.get("rejected", 0),
            "scenarios.tenant.queue_depth_p99":
                acc.get("queue_depth_p99", 0),
            "analysis.availability.self_s":
                rec.layer_self_s("analysis.availability"),
            "analysis.model.predictions":
                rec.calls("analysis.model:DoramModel.predict"),
            "analysis.model.self_s": rec.layer_self_s("analysis.model"),
            "analysis.sweep.points": acc.get("sweep_points", 0),
            "analysis.sweep.store_s":
                rec.self_s.get("analysis.sweep:store_get", 0.0)
                + rec.self_s.get("analysis.sweep:store_put", 0.0),
            "analysis.explore.self_s": rec.layer_self_s("analysis.explore"),
            "analysis.explore.rounds": acc.get("rounds", 0),
            "analysis.explore.simulated": acc.get("simulated", 0),
            "bench.op.self_s": rec.self_s.get(OP_SPAN, 0.0),
        }
