"""Self-time accounting of the span recorder and the probe installer."""

import pytest

from spans import Probes, SpanRecorder


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_nested_spans_subtract_direct_children_only():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    rec.open("a:outer")          # t=0
    clock.now = 2.0
    rec.open("b:child")          # t=2
    clock.now = 3.0
    rec.open("c:grandchild")     # t=3
    clock.now = 4.0
    rec.close()                  # grandchild 1
    clock.now = 5.0
    rec.close()                  # child 3, self 2
    clock.now = 10.0
    rec.close()                  # outer 10, self 7
    assert rec.self_s == {"c:grandchild": 1.0, "b:child": 2.0,
                          "a:outer": 7.0}
    assert sum(rec.self_s.values()) == 10.0


def test_reentrant_layer_counts_each_instant_once():
    # codec -> aes keystream -> aes encrypt_block (x2): one layer nested
    # in itself, as the CTR keystream drives the block function.
    clock = FakeClock()
    rec = SpanRecorder(clock)
    with rec.span("crypto.codec:encode"):
        clock.now = 1.0
        with rec.span("crypto.aes:keystream"):
            for _ in range(2):
                clock.now += 1.0
                with rec.span("crypto.aes:encrypt_block"):
                    clock.now += 3.0
            clock.now += 1.0
        clock.now += 2.0
    assert rec.count["crypto.aes:encrypt_block"] == 2
    assert rec.self_s["crypto.aes:encrypt_block"] == 6.0
    assert rec.self_s["crypto.aes:keystream"] == 3.0
    assert rec.layer_self_s("crypto.aes") == 9.0
    assert rec.self_s["crypto.codec:encode"] == 3.0
    assert sum(rec.self_s.values()) == clock.now


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    with pytest.raises(ValueError):
        with rec.span("x:outer"):
            clock.now = 1.0
            raise ValueError
    assert rec.stack == []
    assert rec.self_s == {"x:outer": 1.0}


def test_probes_wrap_methods_and_by_name_imports_then_restore():
    from repro.crypto import aes
    from repro.trace import benchmarks
    from repro.core import system

    original = aes.AES128.encrypt_block
    original_init = aes.AES128.__init__
    original_trace = benchmarks.benchmark_trace
    rec = SpanRecorder()
    probes = Probes(rec)
    probes.add("crypto.aes:encrypt_block",
               "repro.crypto.aes:AES128.encrypt_block")
    probes.add("crypto.aes:keystream", "repro.crypto.aes:AES128.keystream")
    probes.add("trace.benchmarks:benchmark_trace",
               "repro.trace.benchmarks:benchmark_trace")
    built = []
    probes.track("repro.crypto.aes:AES128", built)
    try:
        assert system.benchmark_trace is benchmarks.benchmark_trace
        assert system.benchmark_trace is not original_trace
        cipher = aes.AES128(bytes(16))
        cipher.keystream(7, 0, 40)   # three counter blocks
        assert built == [cipher]
        assert rec.count == {"crypto.aes:keystream": 1,
                             "crypto.aes:encrypt_block": 3}
        assert rec.stack == []
    finally:
        probes.remove()
    assert aes.AES128.encrypt_block is original
    assert system.benchmark_trace is original_trace
    assert aes.AES128.__init__ is original_init
