"""Secure delegator: sequencing, buffering, remote messaging.

Requests reach the SD the way they do in a run: as frames from a
:class:`SecureLinkSession` without a fault plan.
"""

from typing import List, Optional

import pytest

from repro.bob.channel import BobChannel
from repro.core.delegator import OramSequencer, SecureDelegator
from repro.core.recovery import SecureLinkSession
from repro.dram.channel import Channel
from repro.dram.commands import OpType
from repro.dram.timing import DEFAULT_CHANNEL_PARAMS, ChannelParams
from repro.oram.config import OramConfig
from repro.oram.controller import OramController
from repro.oram.layout import OramLayout
from repro.sim.engine import Engine


def build_doram(split_k=0, leaf_level=9, merge_short_reads=False,
                secure_params=DEFAULT_CHANNEL_PARAMS):
    """A secure BOB channel with SD + three normal BOB channels."""
    eng = Engine()
    secure_subs = [
        Channel(eng, f"ch0.{i}", params=secure_params) for i in range(4)
    ]
    secure_bob = BobChannel(eng, 0, secure_subs)
    normal_bobs = {
        ch: BobChannel(eng, ch, [Channel(eng, f"ch{ch}.0")])
        for ch in (1, 2, 3)
    }
    sd = SecureDelegator(eng, secure_bob, normal_bobs, process_ns=5.0,
                         merge_short_reads=merge_short_reads)
    cfg = OramConfig(leaf_level=leaf_level, treetop_levels=3,
                     subtree_levels=3)
    layout = OramLayout(
        cfg,
        home_targets=[(0, i) for i in range(4)],
        home_levels=cfg.num_levels - split_k,
        remote_targets=[(1, 0), (2, 0), (3, 0)] if split_k else (),
    )
    controller = OramController(eng, cfg, layout, sd.sink, seed=1)
    sd.sequencer = OramSequencer(controller)
    return eng, sd, controller, secure_bob, normal_bobs


def _ignore(_time: int) -> None:
    pass


def request(sd, block_id, respond=_ignore):
    """One request frame to ``sd`` from a fresh CPU-side session."""
    session = SecureLinkSession(sd.engine, sd, sd.sequencer.controller)
    session.submit(block_id, respond)


class TestSequencer:
    def test_response_fires_after_read_phase(self):
        eng, sd, ctrl, *_ = build_doram()
        responses: List[int] = []
        request(sd, 0, responses.append)
        eng.run()
        assert len(responses) == 1
        assert ctrl.stats.latency("read_phase").count == 1

    def test_write_phase_follows_response(self):
        eng, sd, ctrl, *_ = build_doram()
        request(sd, 0)
        eng.run()
        assert ctrl.stats.latency("write_phase").count == 1

    def test_request_during_write_phase_is_buffered(self):
        # One-entry write queues that drain at once: the write-back of
        # a 10-level path waits on DRAM, so the write phase outlasts the
        # response's and the next request's link flights.
        eng, sd, ctrl, *_ = build_doram(
            leaf_level=12,
            secure_params=ChannelParams(
                write_queue_depth=1, write_drain_hi=1, write_drain_lo=0,
            ),
        )
        order: List[str] = []
        phase_at_arrival: List[Optional[str]] = []
        submit = sd.sequencer.submit

        def spy(block_id, respond, controller=None):
            phase_at_arrival.append(ctrl.phase)
            submit(block_id, respond, controller)

        sd.sequencer.submit = spy
        session = SecureLinkSession(eng, sd, ctrl)

        def first_response(t: int) -> None:
            order.append("resp1")
            # Issue the second request immediately: the write phase of
            # access 1 is still ongoing when it reaches the SD, so it
            # must buffer.
            session.submit(1, lambda t2: order.append("resp2"))

        session.submit(0, first_response)
        eng.run()
        assert order == ["resp1", "resp2"]
        assert phase_at_arrival == [None, "write"]
        assert ctrl.stats.counter("real_accesses").value == 2
        assert ctrl.stats.latency("write_phase").count == 2

    def test_buffered_requests_are_served_in_arrival_order(self):
        eng, sd, ctrl, *_ = build_doram()
        order: List[int] = []
        for block in range(3):
            request(sd, block, lambda t, b=block: order.append(b))
        eng.run()
        assert order == [0, 1, 2]
        assert ctrl.stats.counter("real_accesses").value == 3

    def test_unwired_delegator_rejects(self):
        eng = Engine()
        subs = [Channel(eng, "s0")]
        bob = BobChannel(eng, 0, subs)
        sd = SecureDelegator(eng, bob, {})
        SecureLinkSession(eng, sd, None).submit(0, _ignore)
        with pytest.raises(RuntimeError, match="not wired"):
            eng.run()

    def test_dummy_requests_processed(self):
        eng, sd, ctrl, *_ = build_doram()
        request(sd, None)
        eng.run()
        assert ctrl.stats.counter("dummy_accesses").value == 1


class TestLocalTraffic:
    def test_blocks_stripe_over_four_subchannels(self):
        eng, sd, ctrl, secure_bob, _ = build_doram()
        request(sd, 0)
        eng.run()
        counts = [
            sub.stats.counter("reads_serviced").value
            for sub in secure_bob.subchannels
        ]
        # 7 fetched levels x 4 blocks: one block per bucket per sub-channel.
        assert counts == [7, 7, 7, 7]

    def test_no_remote_traffic_without_split(self):
        eng, sd, ctrl, _, normal_bobs = build_doram(split_k=0)
        request(sd, 0)
        eng.run()
        assert sd.stats.counter("remote_short_reads").value == 0
        for bob in normal_bobs.values():
            assert bob.subchannels[0].queued == 0


class TestRemoteTraffic:
    def test_split_generates_table1_messages(self):
        eng, sd, ctrl, secure_bob, normal_bobs = build_doram(split_k=1)
        request(sd, 0)
        eng.run()
        # k=1: 4 relocated blocks -> 4 short reads + 4 writes via SD.
        assert sd.stats.counter("remote_short_reads").value == 4
        assert sd.stats.counter("remote_writes").value == 4

    def test_remote_blocks_hit_normal_channels(self):
        eng, sd, ctrl, _, normal_bobs = build_doram(split_k=1)
        request(sd, 0)
        eng.run()
        serviced = sum(
            bob.subchannels[0].stats.counter("reads_serviced").value
            for bob in normal_bobs.values()
        )
        assert serviced == 4

    def test_remote_messages_cross_both_links(self):
        eng, sd, ctrl, secure_bob, normal_bobs = build_doram(split_k=1)
        request(sd, 0)
        eng.run()
        # Secure channel up: 4 short reads + 4 write packets + the
        # response frame; down: the request frame + 4 data responses.
        assert secure_bob.stats.counter("raw_up").value == 4 + 4 + 1
        assert secure_bob.stats.counter("raw_down").value == 1 + 4

    def test_remote_read_latency_exceeds_local(self):
        eng_l, sd_l, ctrl_l, *_ = build_doram(split_k=0)
        request(sd_l, 0)
        eng_l.run()
        local_read = ctrl_l.stats.latency("read_phase").mean

        eng_r, sd_r, ctrl_r, *_ = build_doram(split_k=1)
        request(sd_r, 0)
        eng_r.run()
        remote_read = ctrl_r.stats.latency("read_phase").mean
        # Four extra link round trips stretch the read phase.
        assert remote_read > local_read

    def test_per_channel_rotation_counts(self):
        eng, sd, ctrl, _, _ = build_doram(split_k=2)
        request(sd, 0)
        eng.run()
        total_reads = sum(
            sd.stats.counter(f"ch{ch}_reads").value for ch in (1, 2, 3)
        )
        assert total_reads == 8  # 2 nodes x 4 blocks
        # Each channel receives at least its fixed-slot share (k = 2).
        for ch in (1, 2, 3):
            assert sd.stats.counter(f"ch{ch}_reads").value >= 2


class TestShortReadMerging:
    """Footnote-1 future work: coalesced split-tree read packets."""

    def test_merged_packet_count_drops(self):
        _eng, sd, ctrl, *_ = self._run(merge=True)
        # k=2: 8 relocated blocks over 3 channels -> at most 3 merged
        # packets per access (one per channel) instead of 8.
        assert sd.stats.counter("remote_short_reads").value <= 3
        assert sd.stats.counter("remote_read_blocks").value == 8

    def test_unmerged_sends_one_packet_per_block(self):
        _eng, sd, ctrl, *_ = self._run(merge=False)
        assert sd.stats.counter("remote_short_reads").value == 8
        assert sd.stats.counter("remote_read_blocks").value == 8

    def test_merging_preserves_dram_traffic(self):
        for merge in (False, True):
            _eng, sd, ctrl, _, normal_bobs = self._run(merge=merge)
            serviced = sum(
                bob.subchannels[0].stats.counter("reads_serviced").value
                for bob in normal_bobs.values()
            )
            assert serviced == 8, f"merge={merge}"

    def test_merging_completes_read_phase(self):
        _eng, _sd, ctrl, *_ = self._run(merge=True)
        assert ctrl.stats.latency("read_phase").count == 1
        assert ctrl.stats.latency("write_phase").count == 1

    @staticmethod
    def _run(merge):
        parts = build_doram(split_k=2, merge_short_reads=merge)
        eng, sd = parts[0], parts[1]
        request(sd, 0)
        eng.run()
        return parts
