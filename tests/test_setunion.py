"""Union-of-subfamily enumeration over set families."""

import random
import subprocess

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import cli_launch, set_families, shallow_recursion_limit
from dnfenum.core import MAX_INPUT_VARS, DnfFormatError, mask_from_bits
from dnfenum import setunion
from dnfenum.instrument import measure
from dnfenum.setunion import (
    SetFamily,
    brute_force_unions,
    dumps_sets,
    enum_unions,
    parse_sets,
)


def test_family_dedups_and_sorts():
    fam = SetFamily(4, [(2, 1), (1, 2), (3,), ()])
    assert fam.sets == ((1, 2), (3,), ())
    assert fam.m == 3
    assert fam.masks() == [mask_from_bits("1100"), mask_from_bits("0010"), 0]


def test_family_rejects_out_of_range():
    with pytest.raises(ValueError):
        SetFamily(3, [(1, 4)])
    with pytest.raises(ValueError):
        SetFamily(2, [(0,)])
    with pytest.raises(ValueError):
        SetFamily(-1, [])


def test_parse_round_trip():
    fam = SetFamily(5, [(1, 3), (2,), ()])
    assert parse_sets(dumps_sets(fam)) == fam
    text = "c comment\np sets 3 2\n1 2 0\n3 0\n"
    fam2 = parse_sets(text)
    assert fam2.n == 3 and fam2.sets == ((1, 2), (3,))


@pytest.mark.parametrize(
    "text,lineno",
    [
        ("1 2 0\n", 1),  # set line before header
        ("p sets 3\n", 1),  # short header
        ("p sets 3 1\n1 2\n", 2),  # missing terminator
        ("p sets 3 1\n2 1 0\n", 2),  # not ascending
        ("p sets 3 1\n4 0\n", 2),  # out of range
        ("p sets 3 2\n1 0\n", 1),  # count mismatch reported at header
        ("p sets 3 1\np sets 3 1\n1 0\n", 2),  # duplicate header
        ("c nothing\n", 1),  # no header at all
        ("p sets 3 1\n1 x 0\n", 2),  # non-integer
        ("p sets 65537 0\n", 1),  # n above MAX_INPUT_VARS
        ("p sets 1_0 1\n1 0\n", 1),  # underscore: int() reads 10
        ("p sets 3 1\n1 \uff13 0\n", 2),  # full-width 3: int() reads 3
    ],
)
def test_parse_errors_carry_line_numbers(text, lineno):
    with pytest.raises(DnfFormatError) as exc:
        parse_sets(text)
    assert exc.value.lineno == lineno


def test_parse_accepts_n_at_the_cap():
    fam = parse_sets(f"p sets {MAX_INPUT_VARS} 1\n1 {MAX_INPUT_VARS} 0\n")
    assert fam.n == MAX_INPUT_VARS and fam.sets == ((1, MAX_INPUT_VARS),)


def test_empty_set_convention():
    # the empty union is a target exactly when the empty set is in the family
    with_empty = SetFamily(2, [(1,), ()])
    assert 0 in set(enum_unions(with_empty))
    assert brute_force_unions(with_empty)[0] == 0
    without = SetFamily(2, [(1,)])
    assert 0 not in set(enum_unions(without))


def test_only_empty_set():
    fam = SetFamily(3, [()])
    assert list(enum_unions(fam)) == [0]


def test_empty_family():
    assert list(enum_unions(SetFamily(3, []))) == []
    assert brute_force_unions(SetFamily(3, [])) == []


def test_brute_force_unions_refuses_more_than_20_sets():
    with pytest.raises(ValueError, match="m <= 20"):
        brute_force_unions(SetFamily(21, [(e,) for e in range(1, 22)]))
    assert len(brute_force_unions(SetFamily(20, [(e,) for e in range(1, 21)]))) == 2**20 - 1


def test_ruling_in_can_retract_later():
    # committing 1 to the union via {1,2} and then ruling 2 out must abandon
    # the branch: the only witness for 1 is gone
    fam = SetFamily(3, [(1, 2), (3,)])
    got = list(enum_unions(fam))
    want = [
        mask_from_bits(b) for b in ["001", "110", "111"]
    ]
    assert got == sorted(want)
    assert mask_from_bits("100") not in got


def test_two_singletons():
    fam = SetFamily(2, [(1,), (2,)])
    assert list(enum_unions(fam)) == [
        mask_from_bits("01"),
        mask_from_bits("10"),
        mask_from_bits("11"),
    ]


def test_triangle_family():
    fam = SetFamily(3, [(1, 2), (2, 3), (1, 3)])
    want = {mask_from_bits(b) for b in ["110", "011", "101", "111"]}
    assert set(enum_unions(fam)) == want


@settings(max_examples=200)
@given(set_families(max_n=9, max_m=9))
def test_enumeration_matches_brute_force(fam):
    got = list(enum_unions(fam))
    assert got == brute_force_unions(fam)
    assert len(set(got)) == len(got)
    universe = set(got)
    for mk in fam.masks():
        assert mk in universe  # each input set is the union of itself


def test_average_delay_scales_with_n():
    """With the family size held fixed, per-output work tracks n, not 2^n."""
    rng = random.Random(0x5E7)
    per_n = {}
    for n in (8, 16, 32):
        m = 10
        sets = []
        for _ in range(m):
            w = rng.randint(1, 3)
            sets.append(tuple(sorted(rng.sample(range(1, n + 1), w))))
        fam = SetFamily(n, sets)
        _, stats = measure(lambda ctr: enum_unions(fam, counter=ctr))
        assert stats.n_models == len(brute_force_unions(fam))
        per_n[n] = stats.avg_delay_steps / n
    assert per_n[32] <= 2 * per_n[8]

# the deep-setunion benchmark shape, cut to m=10: disjoint sets of sizes
# 1 + i % 3, each inside its own 40-element slice of 1..400
DEEP_SHAPE = SetFamily(400, [tuple(40 * i + 1 + 13 * j for j in range(1 + i % 3)) for i in range(10)])


@pytest.mark.parametrize(
    "fam,n_models,total,max_delay,avg_delay",
    [
        (DEEP_SHAPE, 1023, 111310, 843, 108.75073313782991),
        (
            SetFamily(12, [(1, 2, 3), (3, 4), (2, 5, 6, 7), (7, 8, 12), (1, 12), (9,), (5, 9, 10, 11), ()]),
            78, 4546, 194, 57.55128205128205,
        ),
        (
            SetFamily(60, [(4, 11, 16, 44), (9, 13, 20), (1,), (8, 23, 30, 37, 47), (29, 34),
                           (29, 52), (3, 25), (42,), (20, 30, 33)]),
            511, 34678, 326, 67.7358121330724,
        ),
    ],
    ids=["deep-shape", "overlapping", "random"],
)
def test_step_counts_are_pinned(fam, n_models, total, max_delay, avg_delay):
    # the element walk's step charges are part of the claim; these figures
    # were recorded with the bit-sliced cover counts
    _, stats = measure(lambda c: enum_unions(fam, counter=c))
    assert stats.n_models == n_models
    assert stats.total_steps == total
    assert stats.max_delay_steps == max_delay
    assert stats.avg_delay_steps == pytest.approx(avg_delay, rel=1e-12)


def test_sets_that_collapse_into_one_word_keep_their_own_counts():
    # once 1 is ruled in, (1, 2, 3, 4, 5) and (2, 3, 4, 5) are both the word
    # 2 3 4 5, which the trie counts once; cover counts read off the trie
    # lost the union 30 = {1, 2, 3, 4} here
    fam = SetFamily(5, [(1, 2, 3, 4, 5), (2, 3), (2, 3, 4, 5), (1, 4)])
    assert list(enum_unions(fam)) == brute_force_unions(fam) == [12, 15, 18, 30, 31]


@st.composite
def shared_tail_families(draw):
    """Sets made of a prefix in 1..c and one of a few tails in c+1..n, so
    that sets collapse into one trie word once their prefixes are ruled in."""
    n = draw(st.integers(2, 14))
    c = draw(st.integers(1, n - 1))
    tails = draw(st.lists(st.sets(st.integers(c + 1, n)), min_size=1, max_size=3))
    prefixes = draw(st.lists(st.sets(st.integers(1, c)), min_size=1, max_size=9))
    return SetFamily(n, [p | draw(st.sampled_from(tails)) for p in prefixes])


@settings(max_examples=200)
@given(shared_tail_families())
def test_shared_tails_match_brute_force(fam):
    assert list(enum_unions(fam)) == brute_force_unions(fam)


def _sparse_family(m: int) -> SetFamily:
    rng = random.Random(m)
    return SetFamily(40, [rng.sample(range(1, 41), rng.randint(2, 5)) for _ in range(m)])


def test_average_delay_is_flat_in_m():
    # only a dying set that held a ruled-in element costs a cover check,
    # and it costs one step per plane, so the mean delay does not grow
    # with the family
    avg = {}
    for m in (50, 1000):
        fam = _sparse_family(m)
        _, stats = measure(lambda c: enum_unions(fam, counter=c), limit=5000, collect=False)
        assert stats.n_models == 5000
        avg[m] = stats.avg_delay_steps
    assert avg[1000] <= 2 * avg[50]


@pytest.mark.parametrize(
    "fam,lost_call,message",
    [
        (SetFamily(2, [(1,), (2,)]), 3, "did not return to their start"),
        (SetFamily(3, [(1, 2), (3,)]), 2, "fell below zero"),
    ],
    ids=["end-of-walk", "borrow"],
)
def test_a_revive_that_loses_a_set_is_caught(monkeypatch, fam, lost_call, message):
    # call 1 of _count_in is the build; each later one revives the sets an
    # "e out" branch killed, and here one of them drops its first set
    count_in = setunion._count_in
    calls = 0

    def lossy(planes, masks):
        nonlocal calls
        calls += 1
        return count_in(planes, masks[1:] if calls == lost_call else masks)

    monkeypatch.setattr(setunion, "_count_in", lossy)
    with pytest.raises(RuntimeError, match=message):
        list(enum_unions(fam))


@st.composite
def wide_families(draw):
    n = draw(st.integers(1, 4000))
    m = draw(st.integers(1, 8))
    elems = st.integers(1, n)
    sets = draw(st.lists(st.lists(elems, max_size=12, unique=True), min_size=m, max_size=m))
    return SetFamily(n, sets)


@settings(max_examples=150)
@given(wide_families())
def test_wide_universe_matches_brute_force(fam):
    # the oracle's cost depends on m only, so n can go far past any
    # recursion limit
    got = list(enum_unions(fam))
    assert got == brute_force_unions(fam)
    assert all(a < b for a, b in zip(got, got[1:]))


def test_walk_depth_needs_no_recursion():
    fam = SetFamily(400, [(1,), (200, 201), (400,)])
    # 50 frames: far fewer than the 400 elements the walk decides
    with shallow_recursion_limit(50):
        got = list(enum_unions(fam))
    assert got == brute_force_unions(fam)


def test_cli_on_a_wide_universe(tmp_path):
    f = tmp_path / "wide.sets"
    f.write_text("p sets 3000 3\n1 0\n1500 1501 0\n3000 0\n")
    argv, env = cli_launch(["--algo", "setunion", "--format", "bits", str(f)])
    r = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert r.returncode == 0
    assert r.stderr == ""
    lines = r.stdout.splitlines()
    assert len(lines) == 7
    assert all(len(line) == 3000 for line in lines)
