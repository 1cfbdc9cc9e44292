"""Positive-term specializations: reverse search, delegation, complement walk."""

import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings

from conftest import monotone_dnfs, random_dnf, shallow_recursion_limit
from dnfenum.avg import MODE_FAST, enum_avg
from dnfenum.core import Dnf, brute_force_models, make_term, mask_from_bits, satisfies
from dnfenum.instances import generate
from dnfenum.instrument import measure
from dnfenum import monotone
from dnfenum.monotone import (
    MonotoneDnf,
    enum_monotone_avg,
    enum_monotone_log,
    enum_monotone_rs,
    minimize_monotone,
    normalize_unate,
)


def all_width_terms(n: int, w: int) -> Dnf:
    """Every term of width w over n variables."""
    return Dnf(n, tuple(tuple(c) for c in itertools.combinations(range(1, n + 1), w)))


def test_monotone_dnf_rejects_negative_literals():
    with pytest.raises(ValueError):
        MonotoneDnf(Dnf(2, ((1, -2),)))
    md = MonotoneDnf(Dnf(2, ((1, 2),)))
    assert md.dnf.n == 2 and md.dnf.m == 1


def test_normalize_unate_flips_negative_only_variables():
    md, flip = normalize_unate(Dnf(2, ((1, -2),)))
    assert md.dnf.terms == ((1, 2),)
    assert flip == mask_from_bits("01")
    # model mapping: flipped stream equals the original model set
    orig = brute_force_models(Dnf(2, ((1, -2),)))
    mapped = {m ^ flip for m in brute_force_models(md.dnf)}
    assert mapped == orig


def test_normalize_unate_identity_on_monotone():
    d = Dnf(3, ((1, 2), (3,)))
    md, flip = normalize_unate(d)
    assert flip == 0
    assert md.dnf.terms == d.terms


def test_normalize_unate_rejects_mixed_polarity():
    with pytest.raises(ValueError):
        normalize_unate(Dnf(1, ((1,), (-1,))))


@settings(max_examples=100)
@given(monotone_dnfs(max_n=9, max_m=9))
def test_normalize_round_trip_on_random_sign_patterns(md_plain):
    # flip a deterministic subset of variables negative, then normalize back
    n = md_plain.n
    flip_vars = {v for v in range(1, n + 1) if v % 2 == 0}
    signed = Dnf(
        n,
        tuple(tuple(-v if v in flip_vars else v for v in t) for t in md_plain.terms),
    )
    md, flip = normalize_unate(signed)
    assert {m ^ flip for m in brute_force_models(md.dnf)} == brute_force_models(signed)


def test_minimize_absorbs_supersets():
    md = MonotoneDnf(Dnf(2, ((1,), (1, 2))))
    assert minimize_monotone(md).dnf.terms == ((1,),)
    anti = MonotoneDnf(Dnf(3, ((1, 2), (2, 3))))
    assert sorted(minimize_monotone(anti).dnf.terms) == sorted(anti.dnf.terms)


@settings(max_examples=100)
@given(monotone_dnfs(max_n=9, max_m=9))
def test_minimize_keeps_models_and_is_antichain(d):
    md = MonotoneDnf(d)
    mini = minimize_monotone(md)
    assert brute_force_models(mini.dnf) == brute_force_models(d)
    ts = [set(t) for t in mini.dnf.terms]
    for i, a in enumerate(ts):
        for j, b in enumerate(ts):
            if i != j:
                assert not a <= b


def test_reverse_search_example():
    d = Dnf(3, ((1,), (2, 3)))
    got = list(enum_monotone_rs(MonotoneDnf(d)))
    want = {mask_from_bits(b) for b in ["100", "101", "110", "111", "011"]}
    assert set(got) == want
    assert len(got) == 5
    # the first block is one term's lattice, then the fresh leftovers
    assert all(satisfies(Dnf(3, ((1,),)), mk) for mk in got[:4])
    assert got[4] == mask_from_bits("011")


def test_reverse_search_single_full_term():
    d = Dnf(4, ((1, 2, 3, 4),))
    assert list(enum_monotone_rs(MonotoneDnf(d))) == [mask_from_bits("1111")]


def test_model_count_at_least_term_count():
    rng = random.Random(0x3A11)
    for _ in range(50):
        n = rng.randint(1, 10)
        d = random_dnf(rng, n, rng.randint(1, 12), signed=False)
        assert len(brute_force_models(d)) >= d.m


@settings(max_examples=120)
@given(monotone_dnfs(max_n=9, max_m=10))
def test_three_algorithms_agree_with_oracle(d):
    md = MonotoneDnf(d)
    want = sorted(brute_force_models(d))
    rs = list(enum_monotone_rs(md))
    assert sorted(rs) == want
    assert len(set(rs)) == len(rs)
    assert list(enum_monotone_avg(md)) == sorted(want)
    log_stream = list(enum_monotone_log(md))
    assert sorted(log_stream) == want
    assert len(set(log_stream)) == len(log_stream)


def test_monotone_avg_delegates_to_trie_dfs():
    d = Dnf(4, ((1, 2), (3,)))
    assert list(enum_monotone_avg(MonotoneDnf(d))) == list(enum_avg(d, MODE_FAST))


def test_discarded_nodes_were_already_output(monkeypatch):
    """A successor is only skipped when its model sits in the store, i.e.
    the stream already contains it -- that is what makes pruning sound."""
    emitted: list[int] = []
    discards: list[tuple[int, int]] = []

    class WatchedSet(set):
        # the store's hits are exactly the discarded successors
        def __contains__(self, mask):
            hit = super().__contains__(mask)
            if hit:
                discards.append((mask, len(emitted)))
            return hit

    # module globals shadow the builtin, so the store becomes a WatchedSet
    monkeypatch.setattr(monotone, "set", WatchedSet, raising=False)
    rng = random.Random(0xD15C)
    checked = 0
    for _ in range(40):
        n = rng.randint(2, 9)
        d = random_dnf(rng, n, rng.randint(2, 8), signed=False)
        md = MonotoneDnf(d)
        emitted.clear()
        discards.clear()
        for mk in enum_monotone_rs(md):
            emitted.append(mk)
        for mk, k in discards:
            assert mk in set(emitted[:k])
            checked += 1
    assert checked > 50


def test_reverse_search_stores_each_model_in_under_150_bytes():
    # 40 random monotone terms of 2-6 variables over n = 22; the binary
    # model trie this store replaced took about 400 B per model here
    rng = random.Random(9)
    terms = [make_term(rng.sample(range(1, 23), rng.randint(2, 6))) for _ in range(40)]
    md = MonotoneDnf(Dnf(22, terms))
    tracemalloc.start()
    try:
        k = sum(1 for _ in itertools.islice(enum_monotone_rs(md), 50_000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert k == 50_000
    assert peak / k < 150


def log_switches(monkeypatch) -> list:
    """Log (pos, live terms, widest complement) at each complement switch of
    monotone-log, where pos variables are already set."""
    log: list = []
    phase = monotone._complement_phase

    def watched(tt, live, base_mask, ctr, n):
        log.append((n - len(live), tt.root.count, len(live) - tt.root.minlen))
        return phase(tt, live, base_mask, ctr, n)

    monkeypatch.setattr(monotone, "_complement_phase", watched)
    return log


def test_switch_fires_at_root_for_all_wide_terms(monkeypatch):
    sl = log_switches(monkeypatch)
    n = 6
    d = all_width_terms(n, n - 1)
    got = list(enum_monotone_log(MonotoneDnf(d)))
    assert sorted(got) == sorted(brute_force_models(d))
    assert len(got) == n + 1
    assert sl and sl[0][0] == 0  # re-encoding happened before any branching


def test_no_root_switch_when_complements_are_long(monkeypatch):
    # root complement width 9 over n=10: 9 >= log2(1) + 2*log2(10), so the
    # walk starts in branching mode; deeper residuals may still re-encode
    sl = log_switches(monkeypatch)
    d = Dnf(10, ((1,),))
    got = list(enum_monotone_log(MonotoneDnf(d)))
    assert sorted(got) == sorted(brute_force_models(d))
    assert all(pos > 0 for pos, _, _ in sl)


def test_switch_threshold_is_strict(monkeypatch):
    # complements of width-1 terms have length n-1; with two terms the
    # threshold is log2(2) + 2*log2(8) = 7, and 7 < 7 must not fire
    sl = log_switches(monkeypatch)
    d_edge = Dnf(8, ((1,), (2,)))
    list(enum_monotone_log(MonotoneDnf(d_edge)))
    assert all(pos > 0 for pos, _, _ in sl)
    # width-2 terms: complements have length 6 < 7, so the root re-encodes
    sl.clear()
    d_fire = Dnf(8, ((1, 2), (3, 4)))
    list(enum_monotone_log(MonotoneDnf(d_fire)))
    assert sl and sl[0] == (0, 2, 6)
    thresh = math.log2(2) + 2 * math.log2(8)
    assert sl[0][2] < thresh <= 8 - 1


def test_monotone_log_peak_counts_only_live_complement_tries():
    # each complement walk drops its trie when it ends; a running total of
    # every complement trie ever built would read 5326
    d = generate("monotone", 18, 20, seed=23)
    _, stats = measure(lambda ctr: enum_monotone_log(d, counter=ctr), collect=False)
    assert stats.n_models == 144688
    assert stats.peak_aux_memory_estimate == 443


def test_reverse_search_memory_holds_all_models():
    # the gauge counts one unit per stored model
    d = all_width_terms(8, 4)
    models, stats = measure(lambda ctr: enum_monotone_rs(MonotoneDnf(d), counter=ctr))
    assert stats.peak_aux_memory_estimate == stats.n_models


@pytest.mark.parametrize(
    "d,n_models,total,max_delay,avg_delay",
    [
        (all_width_terms(6, 5), 7, 225, 13, 10.571428571428571),
        (all_width_terms(8, 4), 163, 5062, 307, 20.478527607361965),
        # 1068 steps, not the 961 of the recursive walk: each x -> 1 re-root
        # now goes through Trie.strip, which charges a re-root the one
        # step that setunion's already paid; the max delay is unchanged
        (Dnf(8, ((1, 2), (3, 4))), 112, 1068, 43, 8.848214285714286),
        # the avg phase undoes merges on its minlen-tracking trie, priced
        # as on any trie: 76,710 steps and a max delay of 821 while that
        # undo also charged the per-word minlen recalculations
        (generate("monotone", 13, 19, seed=12), 7376, 76634, 811, 10.36117136659436),
    ],
    ids=["width-5-of-6", "width-4-of-8", "two-pairs", "monotone-13-19-seed-12"],
)
def test_log_step_counts_are_pinned(d, n_models, total, max_delay, avg_delay):
    # recorded from the recursive complement walk the frame stack replaced
    _, stats = measure(lambda c: enum_monotone_log(MonotoneDnf(d), counter=c))
    assert stats.n_models == n_models
    assert stats.total_steps == total
    assert stats.max_delay_steps == max_delay
    assert stats.avg_delay_steps == pytest.approx(avg_delay, rel=1e-12)


def test_complement_walk_needs_no_recursion():
    # all width-(n-1) terms re-encode at the root into n one-variable
    # complements, and the walk then decides the n variables one by one
    n = 300
    md = MonotoneDnf(all_width_terms(n, n - 1))
    with shallow_recursion_limit(50):
        got = list(enum_monotone_log(md))
    full = (1 << n) - 1
    assert sorted(got) == sorted([full] + [full ^ (1 << (n - v)) for v in range(1, n + 1)])


def test_rs_step_counts_are_pinned():
    # each store probe or insert costs n + 1 steps; the binary model trie
    # the store replaced charged 12,256 steps with a max delay of 90, its
    # probes stopping at the first missing node
    md = MonotoneDnf(generate("monotone", 9, 14, seed=5))
    _, stats = measure(lambda c: enum_monotone_rs(md, counter=c))
    assert stats.n_models == 459
    assert stats.total_steps == 11763
    assert stats.max_delay_steps == 100
    assert stats.avg_delay_steps == pytest.approx(25.538126361655774, rel=1e-12)
