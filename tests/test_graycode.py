"""Gray-code walks and the single-term enumerator."""

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import terms
from dnfenum.core import Dnf, brute_force_models, make_term, mask_from_bits
from dnfenum.graycode import GrayRun, GrayState, enum_single_term_dnf, enum_term_models
from dnfenum.instrument import SINK_BLOCK, StepCounter, measure


def reflected(start: int, shifts: list[int], i: int) -> int:
    """Model i of a walk in closed form: start xor the slots set in the
    reflected code i ^ (i >> 1)."""
    code = i ^ (i >> 1)
    for j, shift in enumerate(shifts):
        if code >> j & 1:
            start ^= 1 << shift
    return start


def spell_patterns(k: int) -> list[tuple[int, ...]]:
    """Run a full walk over k slots from all zeros; slot j is bit k-1-j."""
    shifts = [k - 1 - j for j in range(k)]
    g = GrayState(0, shifts)
    ctr = StepCounter()
    masks = [g.mask]
    while g.remaining():
        masks.append(g.advance(ctr))
    assert ctr.n == 2 * (len(masks) - 1)
    assert masks == [reflected(0, shifts, i) for i in range(1 << k)]
    return [tuple(mask >> (k - 1 - j) & 1 for j in range(k)) for mask in masks]


def flipped_slots(pats: list[tuple[int, ...]]) -> list[int]:
    out = []
    for a, b in zip(pats, pats[1:]):
        diff = [j for j in range(len(a)) if a[j] != b[j]]
        assert len(diff) == 1
        out.append(diff[0])
    return out


def test_flip_schedule_two_slots():
    pats = spell_patterns(2)
    assert pats == [(0, 0), (1, 0), (1, 1), (0, 1)]
    assert flipped_slots(pats) == [0, 1, 0]


def test_flip_schedule_zero_slots():
    assert spell_patterns(0) == [()]


@pytest.mark.parametrize("k", [1, 3, 5])
def test_flip_schedule_visits_everything_once(k):
    pats = spell_patterns(k)
    assert len(pats) == 2 ** k
    assert len(set(pats)) == 2 ** k


@pytest.mark.parametrize("k", [1, 3, 5])
def test_flip_schedule_is_the_reflected_one(k):
    # after i models the next flip lands on slot trailing_zeros(i)
    slots = flipped_slots(spell_patterns(k))
    assert slots == [(i & -i).bit_length() - 1 for i in range(1, 1 << k)]


def test_advance_counts_and_runs_out():
    g = GrayState(0b100, [1, 0])
    ctr = StepCounter()
    seen = []
    while g.remaining():
        seen.append(g.advance(ctr))
    assert seen == [0b110, 0b111, 0b101]
    assert ctr.n == 6
    assert g.remaining() == 0


def test_enum_term_models_example():
    models = list(enum_term_models(make_term([1, -3]), 3))
    assert models[0] == mask_from_bits("100")  # free variables start at 0
    assert set(models) == {mask_from_bits("100"), mask_from_bits("110")}


def test_enum_term_models_no_free_variables():
    assert list(enum_term_models(make_term([1, -2, 3]), 3)) == [mask_from_bits("101")]


def test_enum_term_models_empty_term():
    models = list(enum_term_models((), 3))
    assert sorted(models) == list(range(8))
    for a, b in zip(models, models[1:]):
        assert (a ^ b).bit_count() == 1


@given(st.data())
def test_matches_oracle_and_flips_once(data):
    n = data.draw(st.integers(1, 10))
    t = data.draw(terms(n))
    d = Dnf(n, (t,))
    models = list(enum_term_models(t, n))
    assert sorted(models) == sorted(brute_force_models(d))
    assert len(set(models)) == len(models)
    for a, b in zip(models, models[1:]):
        assert (a ^ b).bit_count() == 1


@given(st.data())
def test_delay_is_constant(data):
    n = data.draw(st.integers(1, 16))
    t = data.draw(terms(n))
    _, stats = measure(lambda ctr: enum_term_models(t, n, counter=ctr))
    assert stats.max_delay_steps <= 32


def test_single_term_dnf_requires_one_term():
    with pytest.raises(ValueError):
        enum_single_term_dnf(Dnf(2, ((1,), (2,))))
    with pytest.raises(ValueError):
        enum_single_term_dnf(Dnf(2, ()))
    got = list(enum_single_term_dnf(Dnf(2, ((1,),))))
    assert got == list(enum_term_models((1,), 2))


@pytest.mark.parametrize("k", [0, 1, 2, 5, 9])
@given(data=st.data())
def test_advance_and_runs_match_the_closed_form(k, data):
    # both against the closed form, not one against the other
    shifts = data.draw(st.permutations(range(k + 3)))[:k]
    start = data.draw(st.integers(0, (1 << (k + 3)) - 1))
    want = [reflected(start, shifts, i) for i in range(1, 1 << k)]
    ref = GrayState(start, shifts)
    ctr = StepCounter()
    assert [ref.advance(ctr) for _ in range(ref.remaining())] == want
    assert ctr.n == 2 * len(want)
    # advance to a random point, then hand out the rest as runs
    cut = data.draw(st.integers(0, len(want)))
    g = GrayState(start, shifts)
    got = [g.advance(ctr) for _ in range(cut)]
    assert (g.i, g.mask) == (cut, (got or [start])[-1])
    got += [m for r in g.runs() for m in r]
    assert got == want
    assert (g.i, g.mask) == (len(want), (want or [start])[-1])


def test_runs_hand_out_the_rest_of_the_walk():
    shifts = list(range(13))
    g = GrayState(0b101, shifts)
    for _ in range(5):
        g.advance(StepCounter())
    runs = list(g.runs())
    # runs end on multiples of SINK_BLOCK in walk index, and at the walk's end
    assert [len(r) for r in runs] == [SINK_BLOCK - 5, SINK_BLOCK - 1]
    assert all(type(r) is GrayRun for r in runs)
    want = [reflected(0b101, shifts, i) for i in range(6, 1 << 13)]
    assert [m for r in runs for m in r] == want
    assert [r.last for r in runs] == [want[SINK_BLOCK - 6], want[-1]]
    assert (runs[0].prev, runs[1].prev) == (reflected(0b101, shifts, 5), runs[0].last)
    assert (g.i, g.mask) == ((1 << 13) - 1, want[-1])
    assert g.remaining() == 0 and list(g.runs()) == []


def flips_lines(n: int, prev: int, masks: list[int]) -> str:
    """The flips lines of masks after prev, one flipped bit each."""
    out = []
    for mask in masks:
        out.append(f"{n - ((mask ^ prev).bit_length() - 1)}\n")
        prev = mask
    return "".join(out)


@pytest.mark.parametrize("slots", [1, 5, 12, 14])
@settings(max_examples=25)
@given(data=st.data())
def test_a_run_and_its_cuts_give_their_masks_and_flips_lines(slots, data):
    n = slots + 3
    shifts = data.draw(st.permutations(range(n)))[:slots]
    start = data.draw(st.integers(0, (1 << n) - 1))
    g = GrayState(start, shifts)
    for _ in range(data.draw(st.integers(0, g.remaining() - 1))):
        g.advance(StepCounter())
    for run in g.runs():
        cut = data.draw(st.integers(1, len(run)))
        for r in (run, run.cut(cut)):
            want = [reflected(start, shifts, i) for i in range(r.i + 1, r.i + len(r) + 1)]
            assert list(r) == want and r.last == want[-1]
            assert r.prev == reflected(start, shifts, r.i)
            assert r.flips_text(n) == flips_lines(n, r.prev, want)


def test_slot_masks_are_built_on_first_reach():
    # slot j is first flipped at output 2^j
    g = GrayState(0, [40, 30, 20, 10])
    ctr = StepCounter()
    assert g.bits == []
    g.advance(ctr)
    assert g.bits == [1 << 40]
    g.advance(ctr)
    g.advance(ctr)
    assert g.bits == [1 << 40, 1 << 30]
    while g.remaining():
        g.advance(ctr)
    assert g.bits == [1 << 40, 1 << 30, 1 << 20, 1 << 10]
