"""Enumerating the unions of a set family.

Given sets S_1..S_m over {1..n}, the targets are all unions of non-empty
subfamilies (the empty set is a target exactly when it is one of the S_i).
The enumerator decides element by element whether it belongs to the union,
keeping the still-usable sets in a trie of sorted element words:

* ruling an element out kills precisely the sets containing it — one
  detached subtree, since by then every live word starts at or after the
  element — followed by an O(m) re-check that the union of survivors still
  covers everything already ruled in;
* ruling it in keeps every set and strips the element from the words that
  start with it, a small-into-large merge.

Both branches restore the trie through the undo log on backtrack, so the
space beyond the family itself stays O(size of the family).

The walk is one loop over an explicit stack of frames, one per element
whose branch is open, so no recursion limit bounds n and resuming after an
output does not climb a chain of suspended generators.  Since every live
word starts at or after the current element, the next element that heads a
word is the root's smallest child symbol; the elements before it have no
root child, and the loop jumps over them while still charging each its one
step, in a single add.  Step charges, and so the output stream and every
delay, are the same as those of the element-by-element recursion the loop
replaced.
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


def brute_force_unions(fam: SetFamily) -> list[int]:
    """All achievable unions as sorted masks, by trying every subfamily."""
    masks = fam.masks()
    out = set()
    for pick in range(1, 1 << fam.m):
        u = 0
        for i in range(fam.m):
            if pick >> i & 1:
                u |= masks[i]
        out.add(u)
    return sorted(out)


def enum_unions(fam: SetFamily, *, counter: StepCounter | None = None):
    """Enumerate the union masks in ascending order."""
    ctr = counter if counter is not None else StepCounter()
    n = fam.n
    m = fam.m
    masks = fam.masks()
    trie = Trie(n + 1, counter=ctr)
    for i, s in enumerate(fam.sets):
        fresh, leaf = trie.insert_get(s)
        if fresh is None:
            raise RuntimeError(f"set {s} is in the family twice")
        leaf.data = [i]
    alive = [True] * m

    def kill_subtree(node) -> list[int]:
        died: list[int] = []
        stack = [node]
        seen = 0
        while stack:
            nd = stack.pop()
            seen += 1
            if nd.word:
                for i in nd.data:
                    alive[i] = False
                    died.append(i)
            for _, kid in trie._child_items(nd):
                stack.append(kid)
        ctr.n += seen + len(died) + 1
        return died

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
                ctr.n += skip + 1
                # e out of the union: sets containing e die; the survivors'
                # union must still cover the elements already ruled in
                token = []
                died = kill_subtree(trie.detach(e, token))
                u = 0
                for i in range(m):
                    if alive[i]:
                        u |= masks[i]
                ctr.n += m + 1
                frames.append((e, ones, token, died))
                # root.count is nonzero exactly while some set is alive
                if ones & ~u == 0 and (u != 0 or (ones == 0 and root.count)):
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
                return
            for i in died:
                alive[i] = True
            trie.undo(token)
            # e in the union: every set survives, and the words starting
            # with e lose it
            frames.append((e, ones, trie.strip_first(e), None))
            ones |= 1 << (n - e)
            e += 1

    return walk()
