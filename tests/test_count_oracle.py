"""Enumerators against an inclusion-exclusion model count at large n.

The brute-force oracle scans 2^n assignments and stops at n = 24.  Counting
by inclusion-exclusion over term subsets costs 2^m instead, so formulas of
at most 14 wide terms can be checked at n in the thousands.  There the trie
restrictions strip and merge words of thousands of symbols, far beyond the
brute-force range.  Each test checks the model count, checks every output
with `satisfies`, and forbids repeated outputs.
"""

from unittest.mock import patch

import pytest
from hypothesis import given, settings

from conftest import dnfs, inclusion_exclusion_count, wide_dnfs
from dnfenum.avg import enum_avg
from dnfenum.core import Dnf, brute_force_models, satisfies
from dnfenum import kdnf
from dnfenum.kdnf import KdnfConfig, enum_kdnf_hybrid
from dnfenum.monotone import MonotoneDnf, enum_monotone_avg, enum_monotone_log


def check_enumeration(d: Dnf, models) -> None:
    seen = set()
    for mask in models:
        assert mask not in seen, f"model {mask:b} repeated"
        assert satisfies(d, mask)
        seen.add(mask)
    assert len(seen) == inclusion_exclusion_count(d)


@settings(max_examples=300)
@given(dnfs(max_n=10, max_m=14))
def test_inclusion_exclusion_matches_brute_force(d):
    assert inclusion_exclusion_count(d) == len(brute_force_models(d))


def test_inclusion_exclusion_at_large_n():
    n = 3000
    d = Dnf(n, ((1,), (-1, 2), (2, 3)))
    # x1, or x2 and not x1, or x2 x3 (inside the second when x1 is 0)
    assert inclusion_exclusion_count(d) == 3 << (n - 2)
    with pytest.raises(ValueError):
        inclusion_exclusion_count(Dnf(20, tuple((v,) for v in range(1, 16))))


@settings(max_examples=25)
@given(wide_dnfs(max_n=2000))
def test_avg_t11_at_large_n(d):
    check_enumeration(d, enum_avg(d, "t11"))


@settings(max_examples=25)
@given(wide_dnfs(max_n=300))
def test_avg_t10_at_large_n(d):
    # t10 strips and merges the satisfied side on every branch, the whole
    # trie on a forced variable: O(m n^2) steps per path, so n stays lower
    check_enumeration(d, enum_avg(d, "t10"))


@settings(max_examples=25)
@given(wide_dnfs(max_n=150))
def test_kdnf_hybrid_at_large_n(d):
    # with LAMBDA_DEFAULT, a frame of fewer than 3.55 k free variables goes
    # to the trie DFS, so wide terms would skip the frames; at 0.5 the
    # root frame builds its blocks first.  Each block scans every term, so
    # a frame costs O(k m n) steps, and n stays lower
    cfg = KdnfConfig.for_width(max(len(t) for t in d.terms))
    with patch.object(kdnf, "LAMBDA_DEFAULT", 0.5):
        check_enumeration(d, enum_kdnf_hybrid(d, cfg))


@settings(max_examples=25)
@given(wide_dnfs(max_n=2000, signed=False))
def test_monotone_avg_and_log_at_large_n(d):
    md = MonotoneDnf(d)
    check_enumeration(md.dnf, enum_monotone_avg(md))
    check_enumeration(md.dnf, enum_monotone_log(md))
