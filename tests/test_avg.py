"""Trie-guided enumeration with amortised cost: both branching disciplines."""

import math
import random

import pytest
from hypothesis import given, settings

from conftest import decode, dnfs, random_dnf
from dnfenum.avg import GAMMA, MODE_FAST, MODE_SLOW, enum_avg, min_models_bound
from dnfenum.classic import enum_flashlight
from dnfenum.core import Dnf, all_terms, brute_force_models
from dnfenum.instances import generate
from dnfenum.instrument import measure
from dnfenum.trie import TermTrie


def test_gamma_value():
    assert abs(3 ** GAMMA - 2) < 1e-12


def test_min_models_bound_values():
    assert min_models_bound(0) == 0.0
    assert min_models_bound(1) == 1.0
    assert abs(min_models_bound(8) - 8 ** GAMMA) < 1e-12
    # the 2-variable formula with every nonempty term: 8 terms, 4 models
    d = Dnf(2, tuple(all_terms(2)))
    assert len(brute_force_models(d)) >= min_models_bound(d.m)


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        enum_avg(Dnf(1, ((1,),)), "t12")


def test_example_both_modes():
    d = Dnf(3, ((1, 2), (-3,)))
    slow = list(enum_avg(d, MODE_SLOW))
    fast = list(enum_avg(d, MODE_FAST))
    assert slow == fast
    assert sorted(slow) == sorted(brute_force_models(d))
    assert list(enum_avg(Dnf(3, ()), MODE_FAST)) == []


@settings(max_examples=150)
@given(dnfs(max_n=9, max_m=10))
def test_modes_agree_with_flashlight(d):
    flash = list(enum_flashlight(d))
    assert list(enum_avg(d, MODE_SLOW)) == flash
    assert list(enum_avg(d, MODE_FAST)) == flash


def test_every_visited_node_keeps_the_model_bound(monkeypatch):
    """At each search node the live formula still has >= m**GAMMA models."""
    seen = []
    counts_for = TermTrie.counts_for

    def watched(tt, v):
        # the DFS reads the split on x_v once per search node, with
        # x_1..x_{v-1} set
        live = Dnf(tt.n, decode(tt))
        if live.terms != ((),):
            seen.append((live, v - 1))
        return counts_for(tt, v)

    monkeypatch.setattr(TermTrie, "counts_for", watched)
    rng = random.Random(0xA7B1)
    checked = 0
    for _ in range(60):
        n = rng.randint(1, 9)
        d = random_dnf(rng, n, rng.randint(1, 10))
        if any(t == () for t in d.terms):
            continue
        seen.clear()
        models = list(enum_avg(d, MODE_FAST))
        assert sorted(models) == sorted(brute_force_models(d))
        for live, pos in seen:
            cnt = len(brute_force_models(live)) / (1 << pos)
            assert cnt >= min_models_bound(live.m) - 1e-9
            checked += 1
    assert checked > 100


def log_branches(monkeypatch) -> list:
    """Log (v, b, na, nb, rest, used_fast) for each restriction of a TermTrie,
    with the root's three-way split on x_v before it."""
    log: list = []

    def watched(tt, v, b, fast=False, restrict=TermTrie.set_variable):
        log.append((v, b, *tt.counts_for(v), fast))
        return restrict(tt, v, b, fast)

    monkeypatch.setattr(TermTrie, "set_variable", watched)
    return log


def test_fast_branching_only_fires_on_strict_minority(monkeypatch):
    log = log_branches(monkeypatch)
    rng = random.Random(0x715)
    fast_seen = 0
    for _ in range(40):
        n = rng.randint(2, 9)
        d = random_dnf(rng, n, rng.randint(2, 10))
        log.clear()
        list(enum_avg(d, MODE_FAST))
        for v, b, na, nb, rest, used_fast in log:
            if used_fast:
                assert b == 1
                assert rest < nb
                # the charged side is a strict minority of the live terms
                assert 2 * rest < na + nb + rest
                fast_seen += 1
            elif b == 1:
                assert rest >= nb
    assert fast_seen > 50


def test_slow_mode_never_uses_fast_branching(monkeypatch):
    log = log_branches(monkeypatch)
    rng = random.Random(0x716)
    d = random_dnf(rng, 8, 8)
    list(enum_avg(d, MODE_SLOW))
    assert log and not any(entry[5] for entry in log)


def test_average_delay_beats_slow_mode_on_dense_input():
    rng = random.Random(0xDE5E)
    d = random_dnf(rng, 12, 150, min_width=4, max_width=6)
    _, slow = measure(lambda ctr: enum_avg(d, MODE_SLOW, counter=ctr), collect=False)
    _, fast = measure(lambda ctr: enum_avg(d, MODE_FAST, counter=ctr), collect=False)
    assert fast.n_models == slow.n_models
    assert fast.avg_delay_steps <= slow.avg_delay_steps


# a fixed random formula: 24 signed terms over n=10
PINNED_DNF = generate("random", 10, 24, seed=3)


@pytest.mark.parametrize(
    "mode,n_models,total,max_delay,avg_delay",
    [
        (MODE_SLOW, 980, 7365, 290, 7.251020408163265),
        (MODE_FAST, 980, 7158, 290, 7.039795918367347),
    ],
    ids=[MODE_SLOW, MODE_FAST],
)
def test_step_counts_are_pinned(mode, n_models, total, max_delay, avg_delay):
    # the trie's restrict and undo charges are part of the claim; these
    # figures were recorded before the trie moved to one child layout
    _, stats = measure(lambda c: enum_avg(PINNED_DNF, mode, counter=c))
    assert stats.n_models == n_models
    assert stats.total_steps == total
    assert stats.max_delay_steps == max_delay
    assert stats.avg_delay_steps == pytest.approx(avg_delay, rel=1e-12)
