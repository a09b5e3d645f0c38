"""FR-FCFS and the bandwidth-preallocation share policy."""

import random

import pytest

from repro.dram.bank import Bank, RankTimers
from repro.dram.channel import Channel
from repro.dram.commands import MemRequest, OpType, TrafficClass
from repro.dram.scheduler import FrFcfsScheduler, SharePolicy, SingleClassPolicy
from repro.dram.timing import ChannelParams, DDR3_1600 as T
from repro.obs.tracer import Tracer
from repro.sim.engine import Engine


def req(row, bank=0, traffic=TrafficClass.NORMAL):
    return MemRequest(OpType.READ, 0, 0, bank=bank, row=row, traffic=traffic)


def banks_with_open_row(row, bank=0, count=4):
    rank = RankTimers(T)
    banks = [Bank(T, rank) for _ in range(count)]
    banks[bank].commit(req(row, bank), earliest=0)
    return banks


class TestFrFcfs:
    def test_prefers_row_hit(self):
        banks = banks_with_open_row(row=9, bank=0)
        queue = [req(3, bank=0), req(9, bank=0), req(4, bank=1)]
        assert FrFcfsScheduler().pick(queue, banks) == 1

    def test_falls_back_to_oldest(self):
        banks = banks_with_open_row(row=99, bank=3)
        queue = [req(3, bank=0), req(4, bank=1)]
        assert FrFcfsScheduler().pick(queue, banks) == 0

    def test_window_bounds_search(self):
        banks = banks_with_open_row(row=9, bank=0)
        queue = [req(3, bank=0), req(4, bank=0), req(9, bank=0)]
        # Hit sits at index 2, outside a window of 2 -> oldest wins.
        assert FrFcfsScheduler(window=2).pick(queue, banks) == 0

    def test_empty_queue_rejected(self):
        with pytest.raises(ValueError):
            FrFcfsScheduler().pick([], [])

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            FrFcfsScheduler(window=0)


class TestIndexedPickMatchesWindowedScan:
    """``Channel._pick_request`` on single-class queues (the per-bank
    row index, with the window cut-off for deep queues) against the
    windowed :class:`FrFcfsScheduler` scan, on random queues and open
    rows.  Queues run up to 64 deep against windows of 1 to 32."""

    @pytest.mark.parametrize("traced", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_same_pick_and_reorder_index(self, seed, traced):
        rng = random.Random(seed)
        window = rng.choice([1, 2, 5, 24, 32])
        params = ChannelParams(read_queue_depth=64, scheduler_window=window)
        tracer = Tracer(["dram"]) if traced else None
        channel = Channel(Engine(), "ch0", params=params, tracer=tracer)
        scan = FrFcfsScheduler(window)
        num_banks = len(channel.banks)
        for _round in range(40):
            while len(channel.read_q) < rng.randint(1, 64):
                channel.enqueue(MemRequest(
                    OpType.READ, 0, 0, bank=rng.randrange(num_banks),
                    row=rng.randrange(4),
                ))
            for bank in channel.banks:
                bank.open_row = rng.choice([None, 0, 1, 2, 3])
            queue = list(channel.read_q)
            want = scan.pick(queue, channel.banks)
            before = len(tracer.events) if traced else 0
            got = channel._pick_request(channel.read_q)
            assert got is queue[want]
            assert channel.read_q == queue[:want] + queue[want + 1:]
            if traced:
                reorders = [e for e in tracer.events[before:]
                            if e.name == "frfcfs_reorder"]
                assert [e.args["index"] for e in reorders] == (
                    [want] if want else []
                )
            # The side index still holds exactly the queued requests,
            # oldest first per (bank, row).
            indexed = sorted(
                (r._enq_seq for index in channel._rq_index
                 for bucket in index.values() for r in bucket)
            )
            assert indexed == [r._enq_seq for r in channel.read_q]
            for index in channel._rq_index:
                for bucket in index.values():
                    seqs = [r._enq_seq for r in bucket]
                    assert seqs == sorted(seqs)


class TestSharePolicy:
    def test_5050_alternates(self):
        policy = SharePolicy()
        pending = [TrafficClass.SECURE, TrafficClass.NORMAL]
        picks = [policy.pick_class(pending) for _ in range(100)]
        secure = picks.count(TrafficClass.SECURE)
        assert secure == 50

    def test_served_fraction_tracks_weights(self):
        policy = SharePolicy(
            {TrafficClass.SECURE: 0.25, TrafficClass.NORMAL: 0.75}
        )
        pending = [TrafficClass.SECURE, TrafficClass.NORMAL]
        for _ in range(400):
            policy.pick_class(pending)
        assert policy.served_fraction(TrafficClass.SECURE) == pytest.approx(
            0.25, abs=0.02
        )

    def test_work_conserving_when_one_class_idle(self):
        policy = SharePolicy()
        # Only NORMAL has pending work; it must always be served.
        for _ in range(10):
            assert policy.pick_class([TrafficClass.NORMAL]) is TrafficClass.NORMAL

    def test_idle_class_does_not_bank_unbounded_credit(self):
        policy = SharePolicy()
        for _ in range(100):
            policy.pick_class([TrafficClass.NORMAL])
        # SECURE was absent; when it returns, it should not monopolize.
        pending = [TrafficClass.SECURE, TrafficClass.NORMAL]
        picks = [policy.pick_class(pending) for _ in range(20)]
        assert picks.count(TrafficClass.NORMAL) >= 8

    def test_bad_weights_rejected(self):
        with pytest.raises(ValueError):
            SharePolicy({TrafficClass.SECURE: 0.0})

    def test_unconfigured_class_falls_through(self):
        policy = SharePolicy({TrafficClass.SECURE: 1.0})
        assert policy.pick_class([TrafficClass.NORMAL]) is TrafficClass.NORMAL


class TestSingleClassPolicy:
    def test_first_pending_wins(self):
        policy = SingleClassPolicy()
        assert policy.pick_class(
            [TrafficClass.NORMAL, TrafficClass.SECURE]
        ) is TrafficClass.NORMAL
