"""The three baseline enumerators."""

import pytest
from hypothesis import given, settings

from conftest import dnfs
from dnfenum.classic import enum_flashlight, enum_union_ordered, enum_union_priority
from dnfenum.core import Dnf, brute_force_models, mask_from_bits, parse_dnf
from dnfenum.graycode import enum_term_models
from dnfenum.instances import generate
from dnfenum.instrument import StepCounter, measure

EXAMPLE = parse_dnf("p dnf 3 2\n1 2 0\n-3 0\n")


def test_example_model_sets():
    want = brute_force_models(EXAMPLE)
    assert set(enum_union_priority(EXAMPLE)) == want
    assert set(enum_union_ordered(EXAMPLE)) == want
    assert set(enum_flashlight(EXAMPLE)) == want


def test_ordered_stream_is_ascending():
    got = list(enum_union_ordered(EXAMPLE))
    assert got == sorted(got)
    assert got == [mask_from_bits(b) for b in ["000", "010", "100", "110", "111"]]


def test_flashlight_matches_ordered_stream():
    assert list(enum_flashlight(EXAMPLE)) == list(enum_union_ordered(EXAMPLE))


def test_priority_single_term_is_plain_gray_walk():
    d = Dnf(3, ((1, -3),))
    assert list(enum_union_priority(d)) == list(enum_term_models((1, -3), 3))


def test_priority_overlapping_terms_no_repeats():
    d = Dnf(2, ((1,), (1, 2)))
    got = list(enum_union_priority(d))
    assert len(got) == len(set(got)) == 2
    assert set(got) == brute_force_models(d)


def test_no_terms_is_empty_stream():
    d = Dnf(3, ())
    assert list(enum_flashlight(d)) == []
    assert list(enum_union_ordered(d)) == []
    assert list(enum_union_priority(d)) == []


def test_tautology_streams_every_assignment():
    d = Dnf(3, ((),))
    assert list(enum_flashlight(d)) == list(range(8))


@settings(max_examples=150)
@given(dnfs(max_n=9, max_m=10))
def test_all_three_match_oracle(d):
    want = sorted(brute_force_models(d))
    ordered = list(enum_union_ordered(d))
    flash = list(enum_flashlight(d))
    priority = list(enum_union_priority(d))
    assert ordered == want
    assert flash == ordered
    assert sorted(priority) == want
    assert len(set(priority)) == len(priority)


@settings(max_examples=60)
@given(dnfs(max_n=10, max_m=10))
def test_flashlight_delay_tracks_formula_size(d):
    _, stats = measure(lambda ctr: enum_flashlight(d, counter=ctr))
    if stats.n_models:
        # each level touches one occurrence list plus constant bookkeeping,
        # and a root-to-leaf round trip is 2n levels deep at worst
        assert stats.max_delay_steps <= 8 * (d.size + d.n + 2)


def test_union_ordered_step_counts_are_pinned():
    # each frontier insert or pop costs n + 1 steps; the binary frontier
    # trie the heap replaced charged 90,713 steps with a max delay of 188
    d = generate("random", 10, 24, seed=3)
    _, stats = measure(lambda c: enum_union_ordered(d, counter=c))
    assert stats.n_models == 980
    assert stats.total_steps == 66825
    assert stats.max_delay_steps == 159
    assert stats.avg_delay_steps == pytest.approx(67.48775510204082, rel=1e-12)


def test_union_ordered_gauge_counts_live_frontier_entries():
    # one unit per distinct candidate on the heap: at most one per term,
    # and none once every walk has ended
    d = generate("random", 10, 24, seed=3)
    ctr = StepCounter()
    models = enum_union_ordered(d, counter=ctr)
    assert ctr.nodes == len({pos for pos, _ in d.term_masks})
    for _ in models:
        assert ctr.nodes <= d.m
    assert ctr.nodes == 0
