"""ORAM tree placement transcribed block by block from its definition.

The differential oracle for :class:`repro.oram.layout.OramLayout`.  One
block is placed the long way round: bucket -> level -> subtree segment
(found by walking the segments from the tree-top boundary) -> packed
index -> line -> (bank, row, col), or, for a relocated level, the
Fig. 7 rotation over a region whose base is found by stacking every
earlier relocated level.  Nothing is precomputed or shared with the
production per-level plans; speed is not a goal here.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

Placement = Tuple[int, int, int, int, int, int, int, bool]


def _ceil_div(a: int, b: int) -> int:
    return (a + b - 1) // b


def _segment(level: int, treetop: int, subtree: int,
             home_levels: int) -> Tuple[int, int, int]:
    """(top, height, packed buckets before it) of ``level``'s segment."""
    top = treetop
    before = 0
    while True:
        height = min(subtree, home_levels - top)
        if top <= level < top + height:
            return top, height, before
        for lv in range(top, top + height):
            before += 2 ** lv
        top += height


def _decode(line: int, lines_per_row: int, num_banks: int,
            num_rows: int) -> Tuple[int, int, int]:
    """Row-major within a bank row, rows round-robin across banks."""
    col = line % lines_per_row
    row_group = line // lines_per_row
    return row_group % num_banks, (row_group // num_banks) % num_rows, col


def place(
    bucket: int,
    slot: int,
    *,
    leaf_level: int,
    bucket_size: int,
    treetop: int,
    subtree: int,
    home_targets: Sequence[Tuple[int, int]],
    home_levels: int,
    remote_targets: Sequence[Tuple[int, int]],
    base_line: int,
    remote_base_line: int,
    lines_per_row: int,
    num_banks: int,
    num_rows: int,
) -> Optional[Placement]:
    """``(bucket, slot, channel, subchannel, bank, row, col, remote)``
    of one block, or ``None`` when its bucket is tree-top cached."""
    level = 0
    while 2 ** (level + 1) <= bucket:
        level += 1
    assert level <= leaf_level
    if level < treetop:
        return None
    geometry = (lines_per_row, num_banks, num_rows)
    if level < home_levels:
        top, height, before = _segment(level, treetop, subtree, home_levels)
        depth = level - top
        root = bucket
        for _ in range(depth):
            root //= 2
        subtree_id = root - 2 ** top
        first_in_row = root * 2 ** depth
        bfs = (2 ** depth - 1) + (bucket - first_in_row)
        packed = before + subtree_id * (2 ** height - 1) + bfs
        n = len(home_targets)
        line = base_line + packed * _ceil_div(bucket_size, n) + slot // n
        channel, subchannel = home_targets[slot % n]
        return (bucket, slot, channel, subchannel) + _decode(
            line, *geometry) + (False,)
    n = len(remote_targets)
    cursor = remote_base_line
    for lv in range(home_levels, level):
        cursor += 2 ** lv + _ceil_div(2 ** lv, n)
    index = bucket - 2 ** level
    if slot == 0:
        channel, subchannel = remote_targets[index % n]
        line = cursor + 2 ** level + index // n
    else:
        channel, subchannel = remote_targets[(slot - 1) % n]
        line = cursor + index
    return (bucket, slot, channel, subchannel) + _decode(
        line, *geometry) + (True,)


def path(leaf: int, **layout) -> List[Placement]:
    """Every uncached block on ``leaf``'s path, root first, slot order."""
    node = 2 ** layout["leaf_level"] + leaf
    buckets = []
    while node >= 1:
        buckets.append(node)
        node //= 2
    placements = []
    for bucket in reversed(buckets):
        for slot in range(layout["bucket_size"]):
            p = place(bucket, slot, **layout)
            if p is not None:
                placements.append(p)
    return placements
