"""Physical placement of the ORAM tree in DRAM.

Implements the two layout techniques Section IV adopts plus the D-ORAM+k
split of Section III-C:

* **Tree-top cache** -- the top ``treetop_levels`` levels live in the
  controller's SRAM and produce no DRAM traffic.
* **Subtree layout** [Ren et al., ISCA'13] -- the remaining levels are cut
  into ``subtree_levels``-high subtrees; each subtree's buckets are packed
  contiguously so one path's accesses inside a subtree land in the same
  DRAM row.  With the paper's numbers (7-level subtrees, one block of each
  bucket per sub-channel) a subtree occupies 127 consecutive lines per
  sub-channel -- almost exactly one 8 KB row.
* **Tree split (D-ORAM+k)** -- levels beyond ``home_levels`` are relocated
  to the normal channels: block 0 of a relocated bucket goes to channel
  ``(bucket mod 3) + 1`` and blocks 1..3 go to channels 1..3 (Fig. 7),
  which produces exactly Table I's space distribution.

The layout is pure arithmetic over bucket indices -- the 4 GB tree is
never materialized.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.dram.address_mapping import DeviceGeometry, decode_line
from repro.oram.config import OramConfig
from repro.oram.tree import TreeGeometry


class BlockPlacement:
    """Where one (bucket, slot) block lives, plus routing information.

    ``remote`` is True when the block sits on a normal channel and must
    be reached with explicit cross-channel messages (Section III-C).

    A plain ``__slots__`` class rather than a frozen dataclass: one
    placement is built per non-cached path block, and the per-field
    ``object.__setattr__`` of a frozen dataclass made construction the
    hottest allocation in the whole-system profile.  Treat instances as
    immutable.
    """

    __slots__ = (
        "bucket", "slot", "channel", "subchannel", "bank", "row", "col",
        "remote",
    )

    def __init__(self, bucket: int, slot: int, channel: int,
                 subchannel: int, bank: int, row: int, col: int,
                 remote: bool) -> None:
        self.bucket = bucket
        self.slot = slot
        self.channel = channel
        self.subchannel = subchannel
        self.bank = bank
        self.row = row
        self.col = col
        self.remote = remote

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BlockPlacement(bucket={self.bucket}, slot={self.slot}, "
            f"channel={self.channel}, subchannel={self.subchannel}, "
            f"bank={self.bank}, row={self.row}, col={self.col}, "
            f"remote={self.remote})"
        )


class OramLayout:
    """Bucket/slot -> device-coordinate mapping for one ORAM tree.

    Every uncached level has one precomputed *plan* (see
    :meth:`_build_level_plans`), and :meth:`_emit_bucket` turns a plan
    plus a bucket index into that bucket's ``Z`` placements in closed
    form.  Both :meth:`place` and :meth:`path_placements` go through it,
    so there is exactly one placement formula; a path costs one shift
    and a handful of divisions per level, with no per-block memo.
    """

    def __init__(
        self,
        config: OramConfig,
        home_targets: Sequence[Tuple[int, int]],
        geometry: DeviceGeometry = DeviceGeometry(),
        base_line: int = 1 << 24,
        home_levels: Optional[int] = None,
        remote_targets: Sequence[Tuple[int, int]] = (),
        remote_base_line: int = 1 << 24,
    ) -> None:
        """
        Parameters
        ----------
        home_targets:
            (channel, subchannel) pairs of the tree's home -- the secure
            channel's four sub-channels in D-ORAM, or the four parallel
            channels in the on-chip baseline.  Bucket slot ``s`` lives on
            ``home_targets[s % len(home_targets)]``.
        home_levels:
            Number of levels (from the root) kept on the home targets;
            levels beyond it are relocated to ``remote_targets``.  Default:
            all levels.  D-ORAM+k passes ``config.num_levels - k``.
        base_line / remote_base_line:
            Line-index origin of the ORAM region inside each target,
            placed far above the NS-App slices.
        """
        if not home_targets:
            raise ValueError("home_targets must not be empty")
        self.config = config
        self.tree = TreeGeometry(config)
        self.home_targets = list(home_targets)
        self.device = geometry
        self.base_line = base_line
        self.home_levels = (
            config.num_levels if home_levels is None else home_levels
        )
        if not config.treetop_levels <= self.home_levels <= config.num_levels:
            raise ValueError("home_levels out of range")
        self.split_k = config.num_levels - self.home_levels
        self.remote_targets = list(remote_targets)
        self.remote_base_line = remote_base_line
        if self.split_k > 0 and not self.remote_targets:
            raise ValueError("tree split requires remote targets")
        n = len(self.home_targets)
        self._blocks_per_target = -(-config.bucket_size // n)
        # Home slots grouped by the line they share: slot ``s`` sits at
        # line offset ``s // n`` on target ``s % n``, so each group is
        # decoded once per bucket.
        self._home_groups = [
            [(slot,) + tuple(self.home_targets[slot % n])
             for slot in range(g * n, min((g + 1) * n, config.bucket_size))]
            for g in range(self._blocks_per_target)
        ]
        self._segment_offsets = self._build_segments()
        self._plans = self._build_level_plans()
        self._bucket_size = config.bucket_size
        self._treetop_levels = config.treetop_levels

    # ------------------------------------------------------------------
    # Per-level plans
    # ------------------------------------------------------------------
    def _build_segments(self) -> List[Tuple[int, int, int]]:
        """Segments of the home region: (top_level, height, bucket_offset).

        Levels ``treetop_levels .. home_levels-1`` are cut into
        ``subtree_levels``-high slices; ``bucket_offset`` is the number of
        packed buckets in all earlier segments (per whole tree, before
        division across targets).
        """
        segments: List[Tuple[int, int, int]] = []
        level = self.config.treetop_levels
        offset = 0
        while level < self.home_levels:
            height = min(self.config.subtree_levels, self.home_levels - level)
            segments.append((level, height, offset))
            # Buckets in this slice of the tree:
            buckets = sum(1 << l for l in range(level, level + height))
            offset += buckets
            level += height
        return segments

    def _build_level_plans(self) -> List[Optional[tuple]]:
        """One plan per level; ``None`` for tree-top-cached levels.

        Home level ``l`` in segment ``(top, height, offset)``: with
        ``depth = l - top`` the bucket's subtree root is ``b >> depth``
        and its BFS position inside the subtree is
        ``(1 << depth) - 1 + (b & mask)``, so the subtree-packed index is
        ``packed0 + (b >> depth) * ((1 << height) - 1) + (b & mask)``
        with ``packed0 = offset - (1 << top) * ((1 << height) - 1)
        + (1 << depth) - 1``.  The plan is
        ``(False, depth, mask, subtree_size, packed0)``.

        Relocated level ``l`` (Fig. 7): the plan is
        ``(True, 1 << l, slot_base, rot_base)``.  Each remote channel
        reserves, per level, room for both of its shares -- the
        all-buckets slot-j region at ``slot_base`` and the one-in-three
        slot-0 region at ``rot_base`` -- stacked level after level.
        """
        plans: List[Optional[tuple]] = [None] * self.config.num_levels
        for top, height, offset in self._segment_offsets:
            subtree_size = (1 << height) - 1
            for depth in range(height):
                plans[top + depth] = (
                    False, depth, (1 << depth) - 1, subtree_size,
                    offset - (1 << top) * subtree_size + (1 << depth) - 1,
                )
        cursor = self.remote_base_line
        rotate = max(len(self.remote_targets), 1)
        for level in range(self.home_levels, self.config.num_levels):
            buckets = 1 << level
            plans[level] = (True, buckets, cursor, cursor + buckets)
            cursor += buckets + -(-buckets // rotate)
        return plans

    def packed_index(self, bucket: int) -> int:
        """Subtree-packed sequential index of a home-region bucket.

        Buckets of one subtree are contiguous (BFS order inside the
        subtree), subtrees are laid out by subtree id.
        """
        level = self.tree.level_of(bucket)
        plan = self._plans[level]
        if plan is None:
            raise ValueError(f"level {level} is tree-top cached")
        if plan[0]:
            raise ValueError(f"level {level} beyond home region")
        return self._packed(plan, bucket)

    @staticmethod
    def _packed(plan: tuple, bucket: int) -> int:
        """Packed index of ``bucket`` from its home level's plan."""
        _remote, depth, mask, subtree_size, packed0 = plan
        return packed0 + (bucket >> depth) * subtree_size + (bucket & mask)

    # ------------------------------------------------------------------
    @property
    def home_lines_per_target(self) -> int:
        """Line-space footprint of the home region on each target.

        Used to stack multiple ORAM trees (multi-S-App) without overlap:
        the next tree's ``base_line`` starts past this footprint.
        """
        packed_buckets = 0
        if self._segment_offsets:
            top, height, offset = self._segment_offsets[-1]
            packed_buckets = offset + sum(
                1 << l for l in range(top, top + height)
            )
        return packed_buckets * self._blocks_per_target

    # ------------------------------------------------------------------
    # Public mapping
    # ------------------------------------------------------------------
    def is_cached(self, bucket: int) -> bool:
        """True when the bucket lives in the tree-top cache (no DRAM)."""
        return self.tree.level_of(bucket) < self.config.treetop_levels

    def place(self, bucket: int, slot: int) -> Optional[BlockPlacement]:
        """Placement of one block; ``None`` for tree-top-cached buckets."""
        if not 0 <= slot < self._bucket_size:
            raise ValueError(f"slot {slot} out of range")
        level = self.tree.level_of(bucket)
        if level < self._treetop_levels:
            return None
        placements: List[BlockPlacement] = []
        self._emit_bucket(placements, self._plans[level], bucket)
        return placements[slot]

    def path_placements(self, leaf: int) -> List[BlockPlacement]:
        """Every DRAM block touched by an access to ``leaf``'s path.

        Root-to-leaf, slots in order within each bucket; the level-``l``
        bucket on the path is ``node >> (L - l)`` with ``node = 2^L +
        leaf``.
        """
        tree = self.tree
        if not 0 <= leaf < tree.num_leaves:
            raise ValueError(f"leaf {leaf} out of range")
        leaf_level = tree.leaf_level
        node = tree.num_leaves + leaf
        emit = self._emit_bucket
        plans = self._plans
        placements: List[BlockPlacement] = []
        for level in range(self._treetop_levels, leaf_level + 1):
            emit(placements, plans[level], node >> (leaf_level - level))
        return placements

    def _emit_bucket(self, out: List[BlockPlacement], plan: tuple,
                     bucket: int) -> None:
        """Append ``bucket``'s ``Z`` placements (slot order) to ``out``.

        Slots that share a line share its (bank, row, col), so each
        distinct line is decoded once.
        """
        device = self.device
        append = out.append
        if not plan[0]:
            line = (self.base_line
                    + self._packed(plan, bucket) * self._blocks_per_target)
            for group in self._home_groups:
                bank, row, col = decode_line(line, device)
                for slot, channel, subchannel in group:
                    append(BlockPlacement(bucket, slot, channel, subchannel,
                                          bank, row, col, False))
                line += 1
            return
        # Fig. 7: slot 0 rotates across the normal channels; slot j >= 1
        # sits on channel (j - 1) mod n, one block per bucket.
        _remote, first, slot_base, rot_base = plan
        targets = self.remote_targets
        n = len(targets)
        index = bucket - first
        bank, row, col = decode_line(rot_base + index // n, device)
        channel, subchannel = targets[index % n]
        append(BlockPlacement(bucket, 0, channel, subchannel,
                              bank, row, col, True))
        if self._bucket_size > 1:
            bank, row, col = decode_line(slot_base + index, device)
            for slot in range(1, self._bucket_size):
                channel, subchannel = targets[(slot - 1) % n]
                append(BlockPlacement(bucket, slot, channel, subchannel,
                                      bank, row, col, True))

    # ------------------------------------------------------------------
    # Space accounting (Table I)
    # ------------------------------------------------------------------
    def channel_share(self) -> dict:
        """Fraction of tree blocks per channel (Table I, left half)."""
        totals: dict = {}
        for level in range(self.config.num_levels):
            buckets = 1 << level
            for slot in range(self.config.bucket_size):
                if level < self.home_levels:
                    target = self.home_targets[slot % len(self.home_targets)]
                    totals[target[0]] = totals.get(target[0], 0) + buckets
                elif slot == 0:
                    for j, target in enumerate(self.remote_targets):
                        count = (
                            buckets // len(self.remote_targets)
                            + (1 if j < buckets % len(self.remote_targets) else 0)
                        )
                        totals[target[0]] = totals.get(target[0], 0) + count
                else:
                    target = self.remote_targets[
                        (slot - 1) % len(self.remote_targets)
                    ]
                    totals[target[0]] = totals.get(target[0], 0) + buckets
        grand = sum(totals.values())
        return {ch: count / grand for ch, count in sorted(totals.items())}
