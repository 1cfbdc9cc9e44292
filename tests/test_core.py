"""Formula representation, restriction semantics, parsing, and the oracle."""

import ast
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import compatible, dnfs, restrict
import dnfenum
from dnfenum.core import (
    BRUTE_FORCE_MAX_VARS,
    MAX_INPUT_VARS,
    Dnf,
    DnfFormatError,
    all_terms,
    bits_from_mask,
    brute_force_models,
    dumps_dnf,
    lit_index,
    make_term,
    mask_from_bits,
    parse_dnf,
    satisfies,
)

EXAMPLE = "p dnf 3 2\n1 2 0\n-3 0\n"


def test_parse_basic():
    d = parse_dnf(EXAMPLE)
    assert d.n == 3
    assert d.m == 2
    assert d.size == 3
    assert d.terms == ((1, 2), (-3,))


def test_parse_dedups_terms():
    d = parse_dnf("p dnf 3 3\n1 2 0\n1 2 0\n-3 0\n")
    assert d.m == 2
    assert d.terms == parse_dnf(EXAMPLE).terms


def test_parse_rejects_contradictory_literals():
    with pytest.raises(DnfFormatError) as ei:
        parse_dnf("p dnf 2 1\n1 -1 0\n")
    assert ei.value.lineno == 2


@pytest.mark.parametrize(
    "text",
    [
        "p dnf 2 1\n3 0\n",          # variable out of range
        "p dnf 2 1\n1\n",            # missing 0 terminator
        "p dnf 2 2\n1 0\n",          # fewer terms than header says
        "p cnf 2 1\n1 0\n",          # wrong format tag
        "1 0\n",                     # missing header
        "p dnf 0 0\n",               # n must be positive
        "p dnf 2 1\nx 0\n",          # non-integer literal
        "p dnf 65537 0\n",           # n above MAX_INPUT_VARS
        "p dnf 1_0 1\n1 0\n",        # underscore: int() reads 10
        "p dnf 3 1\n1 \uff13 0\n",     # full-width 3: int() reads 3
        "p dnf 3 1\n1 0x2 0\n",       # not decimal
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(DnfFormatError):
        parse_dnf(text)


def test_parse_accepts_n_at_the_cap():
    d = parse_dnf(f"p dnf {MAX_INPUT_VARS} 1\n-{MAX_INPUT_VARS} 0\n")
    assert d.n == MAX_INPUT_VARS and d.terms == ((-MAX_INPUT_VARS,),)


def test_parse_skips_comments():
    d = parse_dnf("c a comment\np dnf 3 2\nc another\n1 2 0\n-3 0\n")
    assert d.terms == ((1, 2), (-3,))


def test_satisfies_example():
    d = parse_dnf(EXAMPLE)
    assert satisfies(d, mask_from_bits("110"))
    assert not satisfies(d, mask_from_bits("001"))
    assert not satisfies(Dnf(3, ()), mask_from_bits("000"))


def test_restrict_strips_assigned_literal():
    d = Dnf(3, (make_term([1, 2, -3]),))
    assert restrict(d, {1: 1}).terms == ((2, -3),)


def test_restrict_drops_falsified_term():
    d = parse_dnf(EXAMPLE)
    r = restrict(d, {3: 1})
    assert r.terms == ((1, 2),)
    # cross-check via the oracle: models of r (over remaining vars) extended
    # by the assignment equal the compatible models of d
    left = {m | 0 for m in brute_force_models(r) if compatible(m, {3: 1}, 3)}
    right = {m for m in brute_force_models(d) if compatible(m, {3: 1}, 3)}
    assert left == right


def test_restrict_empty_term_absorbs():
    d = Dnf(2, ((1,), (1, 2)))
    r = restrict(d, {1: 1})
    assert r.terms == ((),)
    assert len(brute_force_models(r)) == 4  # tautology on the 2 variables


def test_empty_term_absorbs_at_construction():
    assert Dnf(2, ((), (1,), (-2,))).terms == ((),)


def test_terms_after_the_empty_term_are_still_checked():
    with pytest.raises(ValueError, match="variable 1 appears twice"):
        Dnf(2, [(), (1, -1)])
    with pytest.raises(ValueError, match="literal 3 out of range"):
        Dnf(2, [(), (3,)])
    with pytest.raises(DnfFormatError) as ei:
        parse_dnf("p dnf 2 2\n0\n1 -1 0\n")
    assert ei.value.lineno == 3


def test_brute_force_example():
    d = parse_dnf(EXAMPLE)
    got = {bits_from_mask(m, 3) for m in brute_force_models(d)}
    assert got == {"110", "111", "000", "010", "100"}


def test_brute_force_all_nonempty_terms_n2():
    d = Dnf(2, tuple(all_terms(2)))
    assert d.m == 8
    assert len(brute_force_models(d)) == 4


def test_brute_force_no_terms():
    assert brute_force_models(Dnf(3, ())) == set()


def test_brute_force_refuses_large_n():
    with pytest.raises(ValueError):
        brute_force_models(Dnf(BRUTE_FORCE_MAX_VARS + 1, ((1,),)))


def scan_models(d: Dnf) -> set[int]:
    """The models of d from d.terms alone: term by term, every assignment of
    the variables the term leaves free, spelled as the bit string x_1..x_n."""
    out = set()
    for t in d.terms:
        fixed = {abs(lit): "1" if lit > 0 else "0" for lit in t}
        free = [v for v in range(1, d.n + 1) if v not in fixed]
        for bits in itertools.product("01", repeat=len(free)):
            value = {**fixed, **dict(zip(free, bits))}
            out.add(int("".join(value[v] for v in range(1, d.n + 1)) or "0", 2))
    return out


def _random_dnf(seed: int) -> Dnf:
    rng = random.Random(seed)
    n = rng.randint(1, 10)
    terms = [
        [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), rng.randint(1, n))]
        for _ in range(rng.randint(0, 8))
    ]
    return Dnf(n, terms)


ORACLE_CASES = [
    pytest.param(Dnf(0, []), id="n0-no-terms"),
    pytest.param(Dnf(0, [()]), id="n0-empty-term"),
    pytest.param(Dnf(5, [()]), id="tautology"),
    pytest.param(Dnf(7, []), id="m0"),
    # 2^24 assignments, 16 of them models: the top of the oracle's range
    pytest.param(Dnf(24, [[v if v % 3 else -v for v in range(3, 23)]]), id="n24-width20"),
    *(pytest.param(_random_dnf(seed), id=f"random-{seed}") for seed in range(24)),
]


@pytest.mark.parametrize("d", ORACLE_CASES)
def test_brute_force_matches_an_independent_scan(d):
    assert brute_force_models(d) == scan_models(d)


@given(dnfs(max_n=8, max_m=8), st.data())
def test_restriction_consistency(d, data):
    """Restricting then extending yields exactly the compatible models."""
    dom = data.draw(st.lists(st.integers(1, d.n), unique=True, max_size=d.n))
    tau = {v: data.draw(st.integers(0, 1)) for v in dom}
    r = restrict(d, tau)
    assert all(v not in tau for t in r.terms for v in map(abs, t))
    tau_mask = 0
    for v, b in tau.items():
        if b:
            tau_mask |= 1 << (d.n - v)
    left = {m | tau_mask for m in brute_force_models(r) if compatible(m, {v: 0 for v in tau}, d.n)}
    right = {m for m in brute_force_models(d) if compatible(m, tau, d.n)}
    assert left == right


@given(dnfs(max_n=8, max_m=8), st.data())
def test_restrict_composes(d, data):
    vs = list(range(1, d.n + 1))
    dom1 = data.draw(st.lists(st.sampled_from(vs), unique=True, max_size=d.n))
    rest = [v for v in vs if v not in dom1]
    dom2 = data.draw(st.lists(st.sampled_from(rest), unique=True, max_size=len(rest))) if rest else []
    t1 = {v: data.draw(st.integers(0, 1)) for v in dom1}
    t2 = {v: data.draw(st.integers(0, 1)) for v in dom2}
    assert restrict(d, {}) == d
    assert restrict(restrict(d, t1), t2) == restrict(d, {**t1, **t2})


@given(dnfs(max_n=10, max_m=12))
def test_parse_dumps_round_trip(d):
    assert parse_dnf(dumps_dnf(d)) == d


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_all_terms_count(n):
    ts = list(all_terms(n))
    assert len(ts) == 3 ** n - 1
    assert len(set(ts)) == len(ts)
    assert all(t == make_term(t) for t in ts)


@given(st.integers(0, 2 ** 12 - 1))
def test_mask_bits_round_trip(mask):
    assert mask_from_bits(bits_from_mask(mask, 12)) == mask


def test_make_term_canonical_order():
    # -x_i sorts immediately before x_i; variables ascend
    assert make_term([2, -1]) == (-1, 2)
    assert make_term([-3, 1, 2]) == (1, 2, -3)
    with pytest.raises(ValueError):
        make_term([1, -1])
    with pytest.raises(ValueError):
        make_term([0])


@given(st.lists(st.integers(-6, 6), max_size=9))
def test_make_term_matches_a_scan_in_literal_order(lits):
    # reference: sort by lit_index, then refuse a 0 or the first repeated variable
    ref = sorted(set(lits), key=lit_index)
    vs = [abs(lit) for lit in ref]
    twice = [v for i, v in enumerate(vs) if v in vs[:i]]
    if 0 in ref:
        expect = "literal 0 is not allowed"
    elif twice:
        expect = f"variable {twice[0]} appears twice in one term"
    else:
        expect = tuple(ref)
    try:
        got = make_term(lits)
    except ValueError as e:
        got = str(e)
    assert got == expect


def test_every_exported_name_resolves():
    import dnfenum

    star: dict = {}
    exec("from dnfenum import *", star)  # an unresolved name raises here
    assert set(dnfenum.__all__) <= set(star)


def test_no_assert_statement_in_the_package():
    # python -O strips assert statements: a guard in the package must be a
    # real check that raises
    found = []
    for path in sorted(Path(dnfenum.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
