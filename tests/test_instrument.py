"""The measure() loop: its block sink contract and its step bookkeeping."""

from dataclasses import asdict

import pytest

from dnfenum.core import Dnf
from dnfenum.instrument import SINK_BLOCK, measure
from dnfenum.kdnf import enum_kdnf

# x1 alone covers half of the 2^14 assignments: 11344 models in all
DENSE = Dnf(14, [(1,), (-2, 3), (4, -5, 6), (-7, 8, 9, -10)])
ALL_MODELS, _ = measure(lambda ctr: enum_kdnf(DENSE, counter=ctr))


def sink_blocks(limit):
    blocks = []
    _, stats = measure(
        lambda ctr: enum_kdnf(DENSE, counter=ctr),
        limit=limit,
        collect=False,
        sink=lambda masks: blocks.append(list(masks)),
    )
    return blocks, stats


@pytest.mark.parametrize(
    "limit", [None, 0, 1, SINK_BLOCK - 1, SINK_BLOCK, SINK_BLOCK + 1, 2 * SINK_BLOCK + 1]
)
def test_sink_sees_every_model_once_in_order(limit):
    blocks, stats = sink_blocks(limit)
    want = ALL_MODELS if limit is None else ALL_MODELS[:limit]
    assert [m for b in blocks for m in b] == want
    assert stats.n_models == len(want)
    # full blocks first, then one nonempty remainder
    assert all(len(b) == SINK_BLOCK for b in blocks[:-1])
    assert all(0 < len(b) <= SINK_BLOCK for b in blocks)


def test_limit_flushes_the_partial_block():
    blocks, _ = sink_blocks(SINK_BLOCK + 5)
    assert [len(b) for b in blocks] == [SINK_BLOCK, 5]


def test_exhaustion_flushes_the_partial_block():
    assert len(ALL_MODELS) % SINK_BLOCK
    blocks, _ = sink_blocks(None)
    assert [len(b) for b in blocks] == [SINK_BLOCK] * 2 + [len(ALL_MODELS) % SINK_BLOCK]


@pytest.mark.parametrize("limit", [None, 1, SINK_BLOCK + 1])
def test_sink_leaves_the_stats_alone(limit):
    def run(**kw):
        models, stats = measure(lambda ctr: enum_kdnf(DENSE, counter=ctr), limit=limit, **kw)
        fields = asdict(stats)
        del fields["wall_ns"]
        return models, fields

    plain = run()
    with_sink = run(sink=lambda masks: None)
    counted = run(collect=False, sink=lambda masks: None)
    assert plain == with_sink
    assert counted == ([], plain[1])
