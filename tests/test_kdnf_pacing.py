"""kdnf's paced construction ends inside each frame's Gray walk.

Each frame runs ceil(bound / 2^(n' - k')) steps of child construction
before each output, with bound its ``_construction_bound``; if any
construction step is left once the walk is over, the frame raises
RuntimeError.
"""

import random
from collections import deque

import pytest

from conftest import random_dnf
from dnfenum import kdnf
from dnfenum.kdnf import KdnfConfig, enum_kdnf, enum_kdnf_hybrid


def _families(seed: int, count: int):
    """(k, formula) pairs with k in 1..5, n <= 16 and m <= 300."""
    rng = random.Random(seed)
    for _ in range(count):
        k = rng.randint(1, 5)
        n = rng.randint(k, 16)
        yield k, random_dnf(rng, n, rng.randint(1, 300), max_width=k)


def _exhaust_all(seed: int, count: int) -> None:
    for k, d in _families(seed, count):
        cfg = KdnfConfig.for_width(k)
        for fn in (enum_kdnf, enum_kdnf_hybrid):
            deque(fn(d, cfg).items, maxlen=0)


def test_construction_ends_inside_the_walk():
    # any frame with construction left after its walk raises RuntimeError
    _exhaust_all(1, 400)


def test_a_bound_without_the_child_set_up_is_caught(monkeypatch):
    # A * k'^2 * m' leaves out the O(n') set-up of each child frame, so
    # small frames finish their walk with construction still to run
    monkeypatch.setattr(
        kdnf, "_construction_bound",
        lambda F, cfg: kdnf.A * len(F.min_word) ** 2 * F.tt.root.count,
    )
    with pytest.raises(RuntimeError, match="outran its bound"):
        _exhaust_all(1, 400)
