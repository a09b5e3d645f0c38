"""Empty-plan identity: arming recovery with no fault rules is free.

The fault layer's core zero-overhead promise: a run with an *empty*
:class:`FaultPlan` armed is **bit-identical** to a run with no fault
controller at all.  Both use the same secure-link frame protocol, and an
empty plan arms no fault site and no response deadline.  Same golden
trace digest, same serialized :class:`SimResult` payload, same logical
event census and raw dispatch count, and that holds in both periodic
modes (eager/lazy) the engine supports -- and for the 16-tenant service
shape, where many sessions queue behind one delegator.
"""

import pytest

from repro.faults import FaultController, FaultPlan
from repro.obs.export import trace_digest
from repro.obs.golden import GOLDEN_SCHEMES, run_traced
from repro.scenarios import ScenarioConfig, run_scenario

BACKENDS = ["lazy", "eager"]


class TestEmptyPlanIdentity:
    @pytest.mark.parametrize("scheme", GOLDEN_SCHEMES)
    def test_digest_and_payload_identical(self, scheme):
        bare_result, bare_tracer = run_traced(scheme)
        armed_result, armed_tracer = run_traced(
            scheme, faults=FaultController(FaultPlan())
        )
        assert trace_digest(armed_tracer.events) == \
            trace_digest(bare_tracer.events)
        assert armed_result.to_json_dict() == bare_result.to_json_dict()
        assert armed_result.events == bare_result.events
        assert armed_result.raw_events == bare_result.raw_events

    @pytest.mark.parametrize("periodic", BACKENDS)
    def test_identity_holds_on_every_engine_backend(
        self, periodic_mode, periodic
    ):
        periodic_mode(periodic)
        bare_result, bare_tracer = run_traced("doram")
        armed_result, armed_tracer = run_traced(
            "doram", faults=FaultController(FaultPlan())
        )
        assert trace_digest(armed_tracer.events) == \
            trace_digest(bare_tracer.events)
        assert armed_result.to_json_dict() == bare_result.to_json_dict()
        assert armed_result.raw_events == bare_result.raw_events

    def test_empty_plan_reports_a_summary_anyway(self):
        """Arming is observable through fault_summary (all zeros), just
        never through timing."""
        _result, tracer = run_traced(
            "doram", faults=FaultController(FaultPlan())
        )
        result = _result
        assert result.fault_summary is not None
        assert all(
            value == 0
            for value in result.fault_summary["faults"].values()
        )

    def test_fault_summary_stays_out_of_the_payload(self):
        """fault_summary is execution metadata, not simulated state: the
        serialized payload (and so the sweep store) must not change when
        a plan is armed."""
        result, _tracer = run_traced(
            "doram", faults=FaultController(FaultPlan())
        )
        assert "fault_summary" not in result.to_json_dict()


class TestEmptyPlanScenarioIdentity:
    """The serve shape: 16 sessions share one SD on the default L=23
    tree, so a healthy response can take longer than the recovery
    deadline -- an armed deadline would time out and retransmit."""

    CONFIG = ScenarioConfig(num_tenants=16, horizon_ns=20_000.0, seed=1)

    def test_sixteen_tenants_identical_to_bare(self):
        bare = run_scenario(self.CONFIG)
        armed = run_scenario(
            self.CONFIG, faults=FaultController(FaultPlan())
        )
        assert armed.report_digest() == bare.report_digest()
        assert armed.events == bare.events
        assert armed.raw_events == bare.raw_events
        sessions = {
            name: stats for name, stats in armed.fault_summary.items()
            if name.startswith("sdlink")
        }
        assert len(sessions) == 16
        for name, stats in sessions.items():
            assert stats.get("timeouts", 0) == 0, name
