"""The benchmark's correctness gate has teeth.

Each test runs real ops through the public library entry points and
feeds them to the same gate ``run.py`` applies to every pass.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from layers import LayerTrace

ROOT = run.ROOT


def _reference():
    with open(run.REFERENCE) as fp:
        return json.load(fp)


def _gate_one(workload, op_id, out, wl, seed=workloads.DEFAULT_SEED):
    doc = {"ops": [{"id": op_id, "wall_s": 0.0,
                    "digest": wl.digest(op_id, out),
                    "errors": wl.errors(op_id, out)}],
           "summary": {}}
    attempted, failed, problems = run.gate(workload, seed, [doc],
                                           _reference())
    return attempted, failed, problems


def _first_op(workload, seed=workloads.DEFAULT_SEED):
    wl = workloads.build(workload, seed, ROOT)
    op_id, thunk = wl.ops[0]
    return wl, op_id, thunk


def test_fig9_op_matches_reference():
    wl, op_id, thunk = _first_op("fig9")
    assert _gate_one("fig9", op_id, thunk(), wl) == (1, 0, [])


def test_perturbed_sim_result_fails_fig9_op(monkeypatch):
    from repro.core import schemes

    real = schemes.build_and_run

    def perturbed(*args, **kwargs):
        result = real(*args, **kwargs)
        result.end_time += 1
        return result

    monkeypatch.setattr(schemes, "build_and_run", perturbed)
    wl, op_id, thunk = _first_op("fig9")
    attempted, failed, problems = _gate_one("fig9", op_id, thunk(), wl)
    assert (attempted, failed) == (1, 1)
    assert "digest" in problems[0]


def test_perturbed_aes_block_fails_chaos_op(monkeypatch):
    from repro.crypto.aes import AES128

    real = AES128.encrypt_block

    def perturbed(self, plaintext):
        block = bytearray(real(self, plaintext))
        block[0] ^= 1
        return bytes(block)

    monkeypatch.setattr(AES128, "encrypt_block", perturbed)
    wl, op_id, thunk = _first_op("chaos")
    out = thunk()
    # CTR sealing round-trips under any deterministic block function, so
    # the durability oracle and the payload digest cannot see the fault;
    # the known-answer test does.
    assert out["invariants"]["ok"]
    assert wl.digest(op_id, out) == _reference()["chaos"][op_id]
    attempted, failed, problems = _gate_one("chaos", op_id, out, wl)
    assert (attempted, failed) == (1, 1)
    assert "known-answer" in problems[0]


def test_other_seeds_are_checked_for_repeatability():
    wl, op_id, thunk = _first_op("fig9", seed=7)
    out = thunk()
    digest = wl.digest(op_id, out)
    assert digest != _reference()["fig9"][op_id]
    same = {"id": op_id, "wall_s": 0.0, "digest": digest, "errors": []}
    moved = dict(same, digest="0" * 64)
    passes = [{"ops": [same], "summary": {}}, {"ops": [moved],
                                                "summary": {}}]
    attempted, failed, _ = run.gate("fig9", 7, passes, _reference())
    assert (attempted, failed) == (2, 1)
    wl2, _, thunk2 = _first_op("fig9", seed=7)
    assert wl2.digest(op_id, thunk2()) == digest


def test_traced_op_keeps_digest_and_counters_agree():
    trace = LayerTrace()
    try:
        wl, op_id, thunk = _first_op("fig9")
        out = thunk()
        trace.after_op()
        assert wl.digest(op_id, out) == _reference()["fig9"][op_id]
        assert trace.mismatches() == []
        metrics = trace.metrics()
        assert metrics["dram.channel.enqueues"] > 0
        assert metrics["crypto.aes.blocks"] == 0
    finally:
        trace.remove()


def test_call_bypassing_a_probe_is_reported():
    from repro.dram.channel import Channel

    real = Channel.enqueue
    trace = LayerTrace()
    try:
        # A fast path that reaches the layer without its public call.
        Channel.enqueue = real
        wl, op_id, thunk = _first_op("fig9")
        thunk()
        trace.after_op()
        assert any("dram.channel:enqueue" in m for m in trace.mismatches())
    finally:
        trace.remove()
    assert Channel.enqueue is real


def _run_cli(cwd, extra_env=None):
    env = {k: v for k, v in os.environ.items() if not k.startswith("DORAM_")}
    env.update(extra_env or {})
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", "fig9", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60)


def test_refuses_doram_settings():
    proc = _run_cli(ROOT, {"DORAM_SCHED": "wheel", "DORAM_LINK": "kernel"})
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "DORAM_LINK, DORAM_SCHED" in proc.stderr


def test_fails_without_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_cli(tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reference_covers_every_op(workload):
    wl = workloads.build(workload, workloads.DEFAULT_SEED, ROOT)
    try:
        assert sorted(_reference()[workload]) == sorted(i for i, _ in wl.ops)
    finally:
        wl.close()
