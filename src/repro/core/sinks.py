"""Block sinks: where ORAM path traffic lands.

* :class:`DirectChannelSink` -- the on-chip Path ORAM baseline: block
  accesses enqueue straight into the processor's four parallel channels
  (tagged ``SECURE`` so the bandwidth-preallocation scheduler can fence
  them from NS traffic).
* The D-ORAM delegator's sink lives in :mod:`repro.core.delegator`
  because local sub-channel traffic and remote split-tree messages need
  the delegator's link plumbing.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.core.recovery import GuardedRead
from repro.dram.channel import Channel
from repro.dram.commands import MemRequest, OpType, TrafficClass
from repro.oram.controller import BlockSink
from repro.oram.layout import BlockPlacement


class DirectChannelSink(BlockSink):
    """Issues ORAM blocks into directly attached DRAM channels."""

    def __init__(self, channels: Dict[Tuple[int, int], Channel],
                 app_id: int) -> None:
        self.channels = channels
        self.app_id = app_id

    def try_issue(
        self,
        placement: BlockPlacement,
        op: OpType,
        on_complete: Callable[[int], None],
    ) -> bool:
        key = (placement.channel, placement.subchannel)
        channel = self.channels[key]
        if not channel.can_accept(op):
            return False
        req = MemRequest(
            op, placement.channel, placement.subchannel,
            placement.bank, placement.row, placement.col,
            self.app_id, TrafficClass.SECURE, 0, on_complete,
        )
        site = channel._faults
        if site is not None and op is OpType.READ:
            # MAC verification on the fetched bucket: a transient flip
            # (only an armed DRAM site injects one) re-reads the same
            # block before the read phase completes.
            guard = req.on_complete = GuardedRead(on_complete,
                                                  site.controller)
            guard.reissue = lambda: self._reissue(channel, req)
        channel.enqueue(req)
        return True

    def _reissue(self, channel: Channel, req: MemRequest) -> None:
        if channel.can_accept(req.op):
            channel.enqueue(req)
        else:
            channel.notify_on_space(
                lambda c=channel, r=req: self._reissue(c, r)
            )

    def notify_on_space(self, callback: Callable[[], None]) -> None:
        fired = [False]

        def once() -> None:
            if not fired[0]:
                fired[0] = True
                callback()

        for channel in self.channels.values():
            channel.notify_on_space(once)
