"""The measure() loop: its block sink contract, its step bookkeeping and its runs."""

from dataclasses import asdict

import pytest

from dnfenum import (
    enum_avg,
    enum_flashlight,
    enum_monotone_avg,
    enum_monotone_log,
    enum_monotone_rs,
    enum_union_ordered,
    enum_union_priority,
    enum_unions,
)
from dnfenum.core import Dnf
from dnfenum.graycode import GrayRun, GrayState, enum_term_models
from dnfenum.instances import generate
from dnfenum.instrument import RUN_PRICE, SINK_BLOCK, Models, StepCounter, measure
from dnfenum.kdnf import enum_kdnf, enum_kdnf_hybrid
from dnfenum.monotone import MonotoneDnf

# x1 alone covers half of the 2^14 assignments: 11344 models in all
DENSE = Dnf(14, [(1,), (-2, 3), (4, -5, 6), (-7, 8, 9, -10)])
ALL_MODELS, _ = measure(lambda ctr: enum_kdnf(DENSE, counter=ctr))


def sink_blocks(limit, enum=enum_kdnf):
    blocks = []
    _, stats = measure(
        lambda ctr: enum(DENSE, counter=ctr), limit=limit, collect=False, sink=blocks.append
    )
    return blocks, stats


def assert_block_contract(blocks):
    """Lists of single masks and runs, each nonempty and at most SINK_BLOCK
    long; a list is full unless a run or the end of the stream follows it."""
    assert all(type(b) in (list, GrayRun) and 0 < len(b) <= SINK_BLOCK for b in blocks)
    for b, after in zip(blocks, blocks[1:]):
        assert type(b) is GrayRun or len(b) == SINK_BLOCK or type(after) is GrayRun


@pytest.mark.parametrize(
    "limit", [None, 0, 1, SINK_BLOCK - 1, SINK_BLOCK, SINK_BLOCK + 1, 2 * SINK_BLOCK + 1]
)
def test_sink_sees_every_model_once_in_order(limit):
    blocks, stats = sink_blocks(limit)
    want = ALL_MODELS if limit is None else ALL_MODELS[:limit]
    assert [m for b in blocks for m in b] == want
    assert stats.n_models == len(want)
    assert_block_contract(blocks)
    if len(want) > 1:
        assert any(type(b) is GrayRun for b in blocks)


def test_limit_flushes_the_partial_block():
    # avg hands out no runs, so its single masks gather in full lists
    blocks, _ = sink_blocks(SINK_BLOCK + 5, enum=enum_avg)
    assert [len(b) for b in blocks] == [SINK_BLOCK, 5]


def test_exhaustion_flushes_the_partial_block():
    assert len(ALL_MODELS) % SINK_BLOCK
    blocks, _ = sink_blocks(None, enum=enum_avg)
    assert all(type(b) is list for b in blocks)
    assert [len(b) for b in blocks] == [SINK_BLOCK] * 2 + [len(ALL_MODELS) % SINK_BLOCK]


def test_limit_cuts_the_run_it_falls_in():
    blocks, _ = sink_blocks(SINK_BLOCK + 5)
    # the stream opens x1's walk, whose first run ends at output SINK_BLOCK
    # of the walk: the stream's model SINK_BLOCK + 1
    assert type(blocks[-1]) is GrayRun and len(blocks[-1]) == 4
    assert blocks[-1].last == ALL_MODELS[SINK_BLOCK + 4]


def test_single_masks_are_handed_on_before_a_run():
    blocks, _ = sink_blocks(None)
    # the paced start of x1's walk, a partial list, then its runs
    assert type(blocks[0]) is list and len(blocks[0]) < SINK_BLOCK
    assert type(blocks[1]) is GrayRun


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


# -- runs: measure() folds them, plain iteration charges them one by one -------

# kdnf-hybrid hands some frames of MIXED to the trie DFS and walks others as runs
MIXED = Dnf(15, [(1, 2), (-2, 3), (4, -5, 6), (7, 8, -9), (-10, 11, 12)])

RUN_CASES = {
    "kdnf": lambda c: enum_kdnf(DENSE, counter=c),
    "kdnf-mixed": lambda c: enum_kdnf(MIXED, counter=c),
    "kdnf-hybrid": lambda c: enum_kdnf_hybrid(MIXED, counter=c),
    "term-gray": lambda c: enum_term_models((2,), 14, counter=c),
}


def run_spans(factory):
    """(first, last) model number of each run in a fresh stream, 1-based."""
    spans, seen = [], 0
    for item in factory(StepCounter()).items:
        if type(item) is GrayRun:
            spans.append((seen + 1, seen + len(item)))
            seen += len(item)
        else:
            seen += 1
    return spans


def measured(factory, limit, plain):
    """measure() of factory, or of a generator that iterates its Models,
    with the models its sink saw."""
    sunk = []
    f = (lambda c: (m for m in factory(c))) if plain else factory
    models, stats = measure(f, limit=limit, sink=sunk.extend)
    fields = asdict(stats)
    del fields["wall_ns"]
    return models, fields, sunk


def limits_around_runs(spans):
    """Limits at 1, inside runs, and on and next to run boundaries."""
    out = {1, None}
    for first, last in (spans[0], spans[1], spans[-1]):
        out |= {first - 1, first, first + 1, (first + last) // 2, last - 1, last, last + 1}
    return sorted(out, key=lambda x: (x is None, x))


@pytest.mark.parametrize("case", sorted(RUN_CASES))
def test_runs_give_the_stats_and_blocks_of_plain_iteration(case):
    factory = RUN_CASES[case]
    spans = run_spans(factory)
    # the case must exercise the run path, with a single mask before it
    assert len(spans) >= 2 and spans[0][0] > 1
    total = len(list(factory(StepCounter())))
    for limit in limits_around_runs(spans):
        folded = measured(factory, limit, plain=False)
        assert folded == measured(factory, limit, plain=True), limit
        assert folded[1]["n_models"] == (total if limit is None else min(limit, total))


def test_hybrid_case_mixes_runs_and_the_trie_dfs():
    # the hybrid prices DFS outputs differently, so the step totals differ
    _, kdnf, _ = measured(RUN_CASES["kdnf-mixed"], None, plain=False)
    _, hybrid, _ = measured(RUN_CASES["kdnf-hybrid"], None, plain=False)
    assert kdnf["n_models"] == hybrid["n_models"]
    assert kdnf["total_steps"] != hybrid["total_steps"]


def test_plain_iteration_charges_each_run_output_as_it_goes():
    ctr = StepCounter()
    models = enum_kdnf(DENSE, counter=ctr)
    assert isinstance(models, Models)
    marks = []
    for mask in models:
        marks.append(ctr.n)
        # as charge_output leaves it after each output
        assert ctr.last == mask
    # most outputs come from runs, at 4 steps each
    steps = [b - a for a, b in zip(marks, marks[1:])]
    assert RUN_PRICE == 4 and steps.count(4) > 0.9 * len(steps)


def test_next_on_models_is_plain_iteration():
    ctr = StepCounter()
    models = enum_term_models((1,), 3, counter=ctr)
    assert [next(models) for _ in range(4)] == [0b100, 0b110, 0b111, 0b101]
    # the start mask is assembled and charged (4 + 4), each later model 4
    assert ctr.n == 4 + 4 + 3 * 4
    with pytest.raises(StopIteration):
        next(models)


def test_a_run_samples_the_node_gauge_like_its_outputs():
    # nodes rise just before a run and fall before the next output
    def factory(ctr):
        def items():
            walk = GrayState(0, [0, 1])
            yield walk.mask
            ctr.nodes += 5
            yield from walk.runs()  # one run of three models
            ctr.nodes -= 5
            yield 4

        return Models(items(), ctr)

    for limit in (None, 2):
        folded = measured(factory, limit, plain=False)
        assert folded == measured(factory, limit, plain=True)
        assert folded[1]["peak_aux_memory_estimate"] == 5


# -- one output price: every enumerator charges each output as it hands it out

RANDOM = generate("random", 10, 12, seed=1)
MONOTONE = MonotoneDnf(generate("monotone", 12, 10, seed=0))

LIBRARY = {
    "term-gray": lambda c: enum_term_models((2, -5), 10, counter=c),
    "union-priority": lambda c: enum_union_priority(RANDOM, counter=c),
    "union-ordered": lambda c: enum_union_ordered(RANDOM, counter=c),
    "flashlight": lambda c: enum_flashlight(RANDOM, counter=c),
    "kdnf": lambda c: enum_kdnf(MIXED, counter=c),
    "kdnf-hybrid": lambda c: enum_kdnf_hybrid(MIXED, counter=c),
    "avg-t10": lambda c: enum_avg(RANDOM, "t10", counter=c),
    "avg-t11": lambda c: enum_avg(RANDOM, "t11", counter=c),
    "monotone-rs": lambda c: enum_monotone_rs(MONOTONE, counter=c),
    "monotone-avg": lambda c: enum_monotone_avg(MONOTONE, counter=c),
    "monotone-log": lambda c: enum_monotone_log(MONOTONE, counter=c),
    "setunion": lambda c: enum_unions(generate("sets", 10, 8, seed=1), counter=c),
}


@pytest.mark.parametrize("algo", sorted(LIBRARY))
def test_every_output_is_charged_as_it_is_handed_out(algo):
    # charge_output (or a run's fold) leaves the output on the counter
    ctr = StepCounter()
    count = 0
    for mask in LIBRARY[algo](ctr):
        assert ctr.last == mask, count
        count += 1
    assert count > 1
