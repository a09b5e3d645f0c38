"""Empty-plan identity: arming recovery with no fault rules is free.

The fault layer's core zero-overhead promise: a run with an *empty*
:class:`FaultPlan` armed -- recovery sessions, sequence-numbered frames,
deadline timers and all -- is **bit-identical** to a run with no fault
controller at all.  Same golden trace digest, same serialized
:class:`SimResult` payload, same logical event census and raw dispatch
count, and that holds in both periodic modes (eager/lazy) the engine
supports.
"""

import pytest

from repro.faults import FaultController, FaultPlan
from repro.obs.export import trace_digest
from repro.obs.golden import GOLDEN_SCHEMES, run_traced

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
