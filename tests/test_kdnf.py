"""Budgeted bounded-width enumeration and its hybrid variant."""

import math
import random
import subprocess
import sys
import tracemalloc
from itertools import islice

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import child_env, dnfs, random_dnf
from dnfenum.avg import enum_avg
from dnfenum.core import Dnf, brute_force_models, compatible, make_term, satisfies
from dnfenum.graycode import enum_term_models
from dnfenum.instances import generate
from dnfenum.instrument import measure
from dnfenum.kdnf import (
    A,
    KdnfConfig,
    choose_min_term,
    enum_kdnf,
    enum_kdnf_hybrid,
    partition_assignments,
    step_constant,
    _kdnf_tagged,
)


def test_partition_assignments_example():
    one, cofs = partition_assignments(make_term([1, 2, -3]))
    assert one == {1: 1, 2: 1, 3: 0}
    assert cofs == [{1: 0}, {1: 1, 2: 0}, {1: 1, 2: 1, 3: 1}]


def test_partition_assignments_single_literal():
    one, cofs = partition_assignments((1,))
    assert one == {1: 1}
    assert cofs == [{1: 0}]
    with pytest.raises(ValueError):
        partition_assignments(())


@settings(max_examples=100)
@given(st.data())
def test_partition_classes_cover_everything_once(data):
    from conftest import terms

    n = data.draw(st.integers(1, 8))
    t = data.draw(terms(n))
    one, cofs = partition_assignments(t)
    classes = [one] + cofs
    for a in range(1 << n):
        hits = sum(compatible(a, c, n) for c in classes)
        assert hits == 1


def test_choose_min_term():
    assert choose_min_term(Dnf(3, ((1, 2), (-3,)))) == (-3,)
    # tie on width: first in canonical word order wins
    assert choose_min_term(Dnf(3, ((1, 2), (-1, 3)))) == (-1, 3)
    with pytest.raises(ValueError):
        choose_min_term(Dnf(3, ()))


def test_config_budget_values():
    assert KdnfConfig.for_width(1).d == 4
    assert KdnfConfig.for_width(2).d == math.ceil(2 ** 1.5 * 16)
    assert KdnfConfig.for_width(3).d == math.ceil(3 ** 1.5 * 64)


def test_budget_matches_the_float_formula_wherever_that_fits():
    # the float product overflows from k = 506 on; the exact one does not
    for k in range(1, 506):
        assert KdnfConfig.for_width(k).d == math.ceil(k**1.5 * 2 ** (2 * k))


def test_step_constant_is_stable():
    # a measured construction constant, not re-measured per process
    assert step_constant() == A == 5


def test_example_model_set():
    d = Dnf(3, ((1, 2), (-3,)))
    got = set(enum_kdnf(d, KdnfConfig.for_width(2)))
    assert got == brute_force_models(d)


def test_rejects_terms_wider_than_k():
    d = Dnf(3, ((1, 2, 3),))
    with pytest.raises(ValueError):
        list(enum_kdnf(d, KdnfConfig.for_width(2)))


def test_single_term_is_plain_gray_walk():
    d = Dnf(4, ((1, -2),))
    assert list(enum_kdnf(d)) == list(enum_term_models((1, -2), 4))


def test_no_terms_is_empty_stream():
    assert list(enum_kdnf(Dnf(3, ()))) == []


@settings(max_examples=150)
@given(st.data())
def test_matches_oracle(data):
    k = data.draw(st.integers(1, 4))
    d = data.draw(dnfs(max_n=9, max_m=10, max_width=k))
    cfg = KdnfConfig.for_width(k)
    got = list(enum_kdnf(d, cfg))
    assert sorted(got) == sorted(brute_force_models(d))
    assert len(set(got)) == len(got)
    hybrid = list(enum_kdnf_hybrid(d, cfg))
    assert sorted(hybrid) == sorted(got)


def test_hybrid_small_n_is_pure_trie_dfs():
    # cutoff lambda*k exceeds n, so the root frame is handed over whole
    d = Dnf(6, ((1, 2), (-3, 4), (5, -6)))
    cfg = KdnfConfig.for_width(2)
    assert cfg.lam * cfg.k > d.n
    assert list(enum_kdnf_hybrid(d, cfg)) == list(enum_avg(d, "t11"))


def test_frames_partition_the_models():
    """Every model is tagged by exactly one frame, and each frame's block
    agrees with one term of the input."""
    rng = random.Random(0xF8A3E)
    for _ in range(60):
        n = rng.randint(2, 11)
        d = random_dnf(rng, n, rng.randint(1, 10), max_width=min(3, n))
        if d.m == 0:
            continue
        tagged = list(_kdnf_tagged(d))
        masks = [mk for mk, _ in tagged]
        assert sorted(masks) == sorted(brute_force_models(d))
        assert len(set(masks)) == len(masks)
        by_path: dict = {}
        for mk, path in tagged:
            by_path.setdefault(path, []).append(mk)
        for block in by_path.values():
            assert any(
                all(satisfies(Dnf(n, (t,)), mk) for mk in block) for t in d.terms
            )


def test_budget_guard_refuses_an_infeasible_config():
    # d * 2^(n - k) = 1 * 2 cannot pay for k^2 * m = 27 construction steps
    d = Dnf(4, [(1, 2, 3), (-1, 2, 4), (2, -3, 4)])
    with pytest.raises(ValueError, match="infeasible kdnf budget"):
        list(enum_kdnf(d, KdnfConfig(k=3, d=1)))


def test_budget_guard_runs_under_optimize():
    # python -O strips asserts; the guard must still refuse the config
    code = (
        "from dnfenum import Dnf, KdnfConfig, enum_kdnf\n"
        "d = Dnf(4, [(1, 2, 3), (-1, 2, 4), (2, -3, 4)])\n"
        "try:\n"
        "    print(len(list(enum_kdnf(d, KdnfConfig(k=3, d=1)))))\n"
        "except ValueError as e:\n"
        "    print('refused:', e)\n"
    )
    r = subprocess.run([sys.executable, "-O", "-c", code], env=child_env(),
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("refused: infeasible kdnf budget"), r.stdout


def test_budget_guard_holds_on_random_inputs():
    # the frame constructor checks the budget inequality; a failure here
    # would surface as a ValueError during enumeration
    rng = random.Random(0xB4D6E7)
    for _ in range(40):
        n = rng.randint(1, 12)
        d = random_dnf(rng, n, rng.randint(1, 20), max_width=min(3, n))
        list(enum_kdnf(d))


def test_delay_does_not_grow_with_m():
    """Doubling the term count leaves the max delay in the same band."""
    rng = random.Random(0xD31A)
    cfg = KdnfConfig.for_width(3)
    maxima = []
    for m in (50, 400):
        d = random_dnf(rng, 18, m, min_width=3, max_width=3)
        _, stats = measure(lambda ctr: enum_kdnf(d, cfg, counter=ctr), limit=20_000, collect=False)
        maxima.append(stats.max_delay_steps)
    assert maxima[1] <= 3 * maxima[0]


# a fixed 3-DNF: 12 terms over n=11
PINNED_DNF = generate("kdnf", 11, 12, k=3, seed=1)


@pytest.mark.parametrize(
    "fn,n_models,total,max_delay,avg_delay",
    [
        (enum_kdnf, 2012, 8918, 31, 4.386182902584493),
        (enum_kdnf_hybrid, 2012, 11079, 82, 5.460238568588469),
    ],
    ids=["kdnf", "kdnf-hybrid"],
)
def test_step_counts_are_pinned(fn, n_models, total, max_delay, avg_delay):
    # recorded before the trie moved to one child layout
    _, stats = measure(lambda c: fn(PINNED_DNF, counter=c))
    assert stats.n_models == n_models
    assert stats.total_steps == total
    assert stats.max_delay_steps == max_delay
    assert stats.avg_delay_steps == pytest.approx(avg_delay, rel=1e-12)


def test_criterion_11_step_counts_are_pinned():
    # recorded before Gray runs were folded in measure(); runs must not move them
    d = generate("kdnf", 40, 1000, k=3, seed=11)
    _, stats = measure(lambda c: enum_kdnf(d, counter=c), limit=100_000, collect=False)
    assert stats.total_steps == 409383
    assert stats.max_delay_steps == 85
    assert stats.avg_delay_steps == pytest.approx(4.02188, rel=1e-12)


@pytest.mark.parametrize("fn", [enum_kdnf, enum_kdnf_hybrid], ids=["kdnf", "kdnf-hybrid"])
def test_budgeted_frame_loop_step_counts_are_pinned(fn):
    # 591 width-3 terms over n=20: 1,777 outputs come while the root's builder
    # still runs, so the paced slices between outputs are exercised
    d = random_dnf(random.Random(7), 20, 600, min_width=3, max_width=3, signed=True)
    assert d.m == 591
    _, stats = measure(lambda c: fn(d, counter=c), collect=False)
    assert stats.n_models == 1 << 20
    assert stats.total_steps == 4276679
    assert stats.max_delay_steps == 45
    assert stats.avg_delay_steps == pytest.approx(4.073663711547852, rel=1e-12)
    assert stats.precompute_steps == 5133
    # the live peak: a popped frame's trie leaves the gauge
    assert stats.peak_aux_memory_estimate == 3232


@pytest.mark.parametrize(
    "fn, d, models, stats",
    [
        # x1 | ~x1 has one variable, under lambda*k = 3.55: the trie DFS
        # takes the root frame, and its leaf sits one level down
        (enum_kdnf_hybrid, Dnf(1, [(1,), (-1,)]), [0, 1], (23, 7, 11, 3)),
        # no variable at all: the DFS has no active variable, and its root
        # is the leaf
        (enum_kdnf_hybrid, Dnf(0, [()]), [0], (4, 1, 3, 1)),
        (lambda d, counter: enum_avg(d, "t10", counter=counter), Dnf(0, [()]), [0], (2, 1, 1, 1)),
        (lambda d, counter: enum_avg(d, "t11", counter=counter), Dnf(0, [()]), [0], (2, 1, 1, 1)),
    ],
    ids=["kdnf-hybrid-one-var", "kdnf-hybrid-no-var", "avg-t10-no-var", "avg-t11-no-var"],
)
def test_trie_dfs_at_the_shallowest_depths_is_pinned(fn, d, models, stats):
    got, st = measure(lambda c: fn(d, counter=c))
    assert got == models
    assert (st.total_steps, st.max_delay_steps, st.precompute_steps,
            st.peak_aux_memory_estimate) == stats


def test_frame_memory_does_not_grow_with_the_alphabet():
    # n=20000: a frame keeps shift amounts and builds a slot's single-bit
    # mask only when its Gray walk first reaches it, after 2^slot outputs.
    # Most of what remains is one run of up to 4096 masks of 20000 bits.
    d = generate("kdnf", 20000, 2000, k=3, seed=1)
    tracemalloc.start()
    try:
        got = list(islice(enum_kdnf(d), 1000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(got) == 1000
    assert peak <= 16 * 2**20
