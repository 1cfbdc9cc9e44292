"""Enumerating the unions of a set family.

Given sets S_1..S_m over {1..n}, the targets are all unions of non-empty
subfamilies (the empty set is a target exactly when it is one of the S_i).
The enumerator decides element by element whether it belongs to the union,
keeping the still-usable sets in a trie of sorted element words, and each
element's number of live sets holding it as a bit-sliced count: planes[j]
holds bit j of every count, m.bit_length() planes of n bits, O(n log m)
bits in all.  A set joins the counts by a carry ripple over the planes and
leaves them by a borrow ripple, at one step per plane touched.  The
counts cannot be read off the trie: it counts distinct words, and two sets
become one word once their ruled-in prefixes are stripped.

* ruling an element out kills precisely the sets containing it — one
  detached subtree, since by then every live word starts at or after the
  element — and takes each from the counts.  Only if a dying set held an
  element already ruled in must the survivors be checked to still cover
  everything ruled in: the OR of the planes, one step per plane;
* ruling it in keeps every set and strips the element from the words that
  start with it, a small-into-large merge.

Both branches restore the trie through the undo log on backtrack, and the
dead sets rejoin the counts, so the space beyond the family itself stays
O(size of the family) plus the planes.  When the walk is exhausted, every
kill has been revived, and the planes are checked to equal their value
after the build.

The walk is one loop over an explicit stack of frames, one per element
whose branch is open, so no recursion limit bounds n and resuming after an
output does not climb a chain of suspended generators.  Since every live
word starts at or after the current element, the next element that heads a
word is the root's smallest child symbol; the elements before it have no
root child, and the loop jumps over them while still charging each its one
step, in a single add, so every delay is that of a walk that decides the
skipped elements one by one.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import ge
from typing import Iterable

from .core import dumps_rows, parse_rows
from .instrument import StepCounter
from .trie import Trie


@dataclass(frozen=True)
class SetFamily:
    """Sets over {1..n}; duplicates dropped, first occurrence kept."""

    n: int
    sets: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, sets: Iterable[Iterable[int]]):
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        canon: list[tuple[int, ...]] = []
        seen = set()
        for s in sets:
            t = tuple(sorted(set(s)))
            for e in t:
                if not isinstance(e, int) or not 1 <= e <= n:
                    raise ValueError(f"element {e!r} out of range 1..{n}")
            if t not in seen:
                seen.add(t)
                canon.append(t)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "sets", tuple(canon))

    @property
    def m(self) -> int:
        return len(self.sets)

    def masks(self) -> list[int]:
        """Bit masks of the sets, element e at bit (n - e)."""
        out = []
        for s in self.sets:
            mk = 0
            for e in s:
                mk |= 1 << (self.n - e)
            out.append(mk)
        return out


def _ascending_family(n: int, rows: list[list[int]]) -> SetFamily:
    for row in rows:
        if any(map(ge, row, row[1:])):
            raise ValueError("elements must be strictly ascending")
    return SetFamily(n, rows)


def parse_sets(text: str) -> SetFamily:
    """Parse the .sets format: rows of strictly ascending elements under ``p sets <n> <m>``."""
    return parse_rows(text, "sets", _ascending_family)


def dumps_sets(fam: SetFamily) -> str:
    return dumps_rows("sets", fam.n, fam.sets)


#: brute-forcing set unions doubles per set; keep the oracle under a second
ORACLE_MAX_SETS = 20


def brute_force_unions(fam: SetFamily) -> list[int]:
    """All achievable unions as sorted masks, by trying every subfamily; refuses m > 20."""
    if fam.m > ORACLE_MAX_SETS:
        raise ValueError(f"brute force limited to m <= {ORACLE_MAX_SETS} sets")
    masks = fam.masks()
    out = set()
    for pick in range(1, 1 << fam.m):
        u = 0
        for i in range(fam.m):
            if pick >> i & 1:
                u |= masks[i]
        out.add(u)
    return sorted(out)


def _count_in(planes: list[int], masks: list[int]) -> int:
    """Add one to the bit-sliced count of each element of each mask, by a
    carry ripple per mask; returns the planes touched."""
    touched = 0
    try:
        for mk in masks:
            j = 0
            while mk:
                p = planes[j]
                planes[j] = p ^ mk
                mk &= p
                j += 1
            touched += j
    except IndexError:
        raise RuntimeError("a cover count outgrew its planes") from None
    return touched


def _count_out(planes: list[int], masks: list[int]) -> tuple[int, int]:
    """Take one off the bit-sliced count of each element of each mask, by a
    borrow ripple per mask; returns the planes touched and the masks' union."""
    touched = hit = 0
    try:
        for mk in masks:
            hit |= mk
            j = 0
            while mk:
                p = planes[j]
                planes[j] = p ^ mk
                mk &= ~p
                j += 1
            touched += j
    except IndexError:
        raise RuntimeError("a cover count fell below zero") from None
    return touched, hit


def enum_unions(fam: SetFamily, *, counter: StepCounter | None = None):
    """Enumerate the union masks in ascending order."""
    ctr = counter if counter is not None else StepCounter()
    n = fam.n
    masks = fam.masks()
    trie = Trie(n + 1, counter=ctr)
    for s, mk in zip(fam.sets, masks):
        fresh, leaf = trie.insert_get(s)
        if fresh is None:
            raise RuntimeError(f"set {s} is in the family twice")
        leaf.data = [mk]
    # planes[j] holds bit j of every element's count of live sets holding it
    planes = [0] * fam.m.bit_length()
    ctr.n += _count_in(planes, masks)
    built = planes[:]

    def walk():
        # the open branches, innermost last: (e, ones, token, died) while
        # "e out" runs, (e, ones, token, None) while "e in" runs
        frames: list = []
        e = 1
        ones = 0
        while True:
            root = trie.root
            nxt = trie._min_sym(root)
            if nxt is not None:
                # every live word starts at e or later, so the elements up to
                # the next root child are ruled out at one step each
                skip = nxt - e
                e = nxt
                # e out of the union: the sets containing e, one detached
                # subtree, die and leave the counts
                token = []
                stack = [trie.detach(e, token)]
                died: list[int] = []
                steps = skip + 2  # the skipped elements, e, and the detach
                while stack:
                    nd = stack.pop()
                    steps += 1
                    if nd.word:
                        died += nd.data
                    if nd.s0 >= 0:
                        stack.append(nd.k0)
                    elif nd.kids:
                        stack.extend(nd.kids.values())
                touched, hit = _count_out(planes, died)
                steps += touched
                frames.append((e, ones, token, died))
                if ones & hit:
                    # a ruled-in element lost a holder: the survivors must
                    # still cover everything ruled in
                    u = 0
                    for p in planes:
                        u |= p
                    steps += len(planes)
                    ok = ones & ~u == 0
                else:
                    # everything ruled in keeps its holders; root.count is
                    # nonzero exactly while some set is alive
                    ok = root.count
                ctr.n += steps
                if ok:
                    e += 1
                    continue
            else:
                # no root child left: e..n are ruled out, and this is a leaf
                ctr.n += n + 1 - e
                if root.count:
                    ctr.charge_output(ones, n)
                    yield ones
            # close "e in" branches up to the innermost open "e out" one,
            # then switch that one to "e in"
            while frames:
                e, ones, token, died = frames.pop()
                if died is not None:
                    break
                trie.undo(token)
            else:
                if planes != built:
                    raise RuntimeError("the cover counts did not return to their start")
                return
            ctr.n += _count_in(planes, died)
            trie.undo(token)
            # e in the union: every set survives, and the words starting
            # with e lose it
            frames.append((e, ones, trie.strip(e), None))
            ones |= 1 << (n - e)
            e += 1

    return walk()
