"""The per-level path kernel against the block-by-block reference.

``layout_reference`` places each block straight from the layout's
definition; :meth:`OramLayout.path_placements` and :meth:`OramLayout.place`
evaluate precomputed per-level plans.  They must agree on every field of
every block, for the scheme layouts the simulator builds and for odd
shapes (bucket sizes and target counts that do not divide, no tree-top
cache, a small row count that wraps).
"""

import random

import pytest

from repro.dram.address_mapping import DeviceGeometry
from repro.oram.config import OramConfig
from repro.oram.layout import OramLayout
from tests.oram import layout_reference as ref

SUBCHANNELS = [(0, i) for i in range(4)]
CHANNELS = [(ch, 0) for ch in range(4)]
NORMAL = [(1, 0), (2, 0), (3, 0)]

#: name -> (OramConfig, home targets, split k, remote targets, geometry)
LAYOUTS = {
    "doram": (OramConfig(), SUBCHANNELS, 0, (), DeviceGeometry()),
    "doram+1": (OramConfig(), SUBCHANNELS, 1, NORMAL, DeviceGeometry()),
    "doram+3": (OramConfig(), SUBCHANNELS, 3, NORMAL, DeviceGeometry()),
    "baseline-4ch": (OramConfig(), CHANNELS, 0, (), DeviceGeometry()),
    "odd-z5-treetop0": (
        OramConfig(leaf_level=13, bucket_size=5, treetop_levels=0,
                   subtree_levels=4),
        [(0, 0), (0, 1), (0, 2)], 2, [(1, 0), (2, 0)],
        DeviceGeometry(num_banks=4, lines_per_row=32, num_rows=1 << 10),
    ),
    "odd-z3-treetop3": (
        OramConfig(leaf_level=11, bucket_size=3, treetop_levels=3,
                   subtree_levels=5),
        [(0, 0), (0, 1)], 1, NORMAL,
        DeviceGeometry(num_banks=8, lines_per_row=16, num_rows=1 << 8),
    ),
    "z1-single-target": (
        OramConfig(leaf_level=9, bucket_size=1, treetop_levels=0,
                   subtree_levels=3),
        [(0, 0)], 3, [(2, 0)], DeviceGeometry(),
    ),
}


def _build(name):
    cfg, home, k, remote, geometry = LAYOUTS[name]
    base_line, remote_base_line = 1 << 24, (1 << 24) + 4096
    layout = OramLayout(
        cfg, home, geometry=geometry, base_line=base_line,
        home_levels=cfg.num_levels - k, remote_targets=remote,
        remote_base_line=remote_base_line,
    )
    params = dict(
        leaf_level=cfg.leaf_level, bucket_size=cfg.bucket_size,
        treetop=cfg.treetop_levels, subtree=cfg.subtree_levels,
        home_targets=home, home_levels=cfg.num_levels - k,
        remote_targets=remote, base_line=base_line,
        remote_base_line=remote_base_line,
        lines_per_row=geometry.lines_per_row,
        num_banks=geometry.num_banks, num_rows=geometry.num_rows,
    )
    return cfg, layout, params


def _fields(p):
    return (p.bucket, p.slot, p.channel, p.subchannel, p.bank, p.row,
            p.col, p.remote)


@pytest.mark.parametrize("name", sorted(LAYOUTS))
class TestKernelMatchesReference:
    def test_path_placements(self, name):
        cfg, layout, params = _build(name)
        rng = random.Random(name)
        leaves = [0, cfg.num_leaves - 1] + [
            rng.randrange(cfg.num_leaves) for _ in range(40)
        ]
        for leaf in leaves:
            got = [_fields(p) for p in layout.path_placements(leaf)]
            assert got == ref.path(leaf, **params), f"leaf {leaf}"

    def test_place(self, name):
        cfg, layout, params = _build(name)
        rng = random.Random(name + "/place")
        for _ in range(300):
            bucket = rng.randint(1, cfg.num_buckets)
            slot = rng.randrange(cfg.bucket_size)
            got = layout.place(bucket, slot)
            want = ref.place(bucket, slot, **params)
            assert (None if got is None else _fields(got)) == want, (
                bucket, slot)


def test_path_rejects_out_of_range_leaf():
    cfg, layout, _ = _build("doram")
    with pytest.raises(ValueError):
        layout.path_placements(cfg.num_leaves)
    with pytest.raises(ValueError):
        layout.path_placements(-1)
