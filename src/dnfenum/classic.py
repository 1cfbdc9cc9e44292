"""Baseline enumerators for arbitrary DNF formulas.

Three strategies with different delay profiles:

* enum_union_priority: every term runs its own Gray walk; a candidate is
  output only by the last term that satisfies it.  No repetitions, but the
  delay between outputs can grow with the number of suppressed candidates.
* enum_union_ordered: per-term lexicographic walks merged through a frontier
  trie, outputs in increasing bitstring order.  Delay O(n * m).
* enum_flashlight: depth-first assignment search pruned by an exact
  extendability test (some term not yet falsified).  Delay O(n * size).
"""

from __future__ import annotations

from .core import Dnf, bits_word
from .graycode import GrayState, term_start_mask
from .instrument import StepCounter
from .trie import Trie


def enum_union_priority(d: Dnf, *, counter: StepCounter | None = None):
    """Interleave per-term Gray walks, deduplicating by owner term.

    Round r hands out the r-th model of every term still walking; a model
    is emitted only if no later term also satisfies it, so the last
    satisfying term owns each model.  One counted step per ownership probe.
    """
    ctr = counter if counter is not None else StepCounter()
    n, m = d.n, d.m
    walks = []
    for t in d.terms:
        start, free = term_start_mask(t, n, ctr)
        walks.append(GrayState(start, free))
    masks = d.term_masks
    ctr.n += m

    def gen():
        live = list(range(m))
        first = [True] * m
        while live:
            nxt_live = []
            for i in live:
                w = walks[i]
                if first[i]:
                    first[i] = False
                    cand = w.mask
                else:
                    cand = w.advance(ctr)
                owned = True
                probes = 0
                for j in range(i + 1, m):
                    probes += 1
                    pos, neg = masks[j]
                    if cand & pos == pos and cand & neg == 0:
                        owned = False
                        break
                ctr.n += probes + 1
                if owned:
                    yield cand
                if w.remaining():
                    nxt_live.append(i)
            live = nxt_live

    return gen()


def enum_union_ordered(d: Dnf, *, counter: StepCounter | None = None):
    """Merge per-term lexicographic walks; outputs in increasing order.

    A frontier trie over model bitstrings holds the current candidate of
    every unfinished term, with the owning term ids on the leaf.  Each round
    extracts the leftmost word, emits it once, and advances exactly the
    terms that produced it.
    """
    ctr = counter if counter is not None else StepCounter()
    n, m = d.n, d.m
    starts = []
    frees = []
    for t in d.terms:
        start, free = term_start_mask(t, n, ctr)
        starts.append(start)
        frees.append(free)
    idx = [0] * m  # next free-bits pattern per term, MSB on lowest var
    frontier = Trie(2, counter=ctr)

    def term_mask(i: int) -> int:
        mask = starts[i]
        f = frees[i]
        c = idx[i]
        for j, shift in enumerate(f):
            if (c >> (len(f) - 1 - j)) & 1:
                mask |= 1 << shift
        ctr.n += len(f) + 1
        return mask

    def put(i: int) -> None:
        mask = term_mask(i)
        fresh, leaf = frontier.insert_get(bits_word(mask, n))
        if fresh is not None:
            leaf.data = [i]
        else:
            leaf.data.append(i)
        ctr.n += 1

    for i in range(m):
        put(i)

    def gen():
        while len(frontier):
            word, leaf = frontier.min_word()
            owners = leaf.data
            leaf.data = None
            frontier.delete(word)
            mask = 0
            for s in word:
                mask = mask << 1 | s
            ctr.n += n
            yield mask
            for i in owners:
                idx[i] += 1
                if idx[i] < (1 << len(frees[i])):
                    put(i)

    return gen()


def enum_flashlight(d: Dnf, *, counter: StepCounter | None = None):
    """Backtracking search over assignments with exact pruning.

    Variables are assigned in index order, 0 before 1, so models come out
    in increasing bitstring order.  A branch is kept iff some term has no
    falsified literal yet; the per-term falsified-literal counts are
    maintained through occurrence lists, one counted step per touch.
    """
    ctr = counter if counter is not None else StepCounter()
    n, m = d.n, d.m
    # occ[b][v]: terms falsified by x_v := b
    occ0: list[list[int]] = [[] for _ in range(n + 1)]
    occ1: list[list[int]] = [[] for _ in range(n + 1)]
    for i, t in enumerate(d.terms):
        for lit in t:
            if lit > 0:
                occ0[lit].append(i)
            else:
                occ1[-lit].append(i)
    fcount = [0] * m
    ctr.n += d.size + m + n + 1

    def gen():
        if m == 0:
            return
        c = m  # terms not yet falsified
        mask = 0
        v, trying = 1, 0

        while True:
            if trying <= 1:
                lst = occ1[v] if trying else occ0[v]
                for t in lst:
                    if fcount[t] == 0:
                        c -= 1
                    fcount[t] += 1
                if trying:
                    mask |= 1 << (n - v)
                ctr.n += len(lst) + 1
                if c > 0:
                    if v == n:
                        yield mask
                        ctr.n += 1
                    else:
                        v += 1
                        trying = 0
                        continue
                # dead branch, or emitted at full depth: undo and advance
                for t in lst:
                    fcount[t] -= 1
                    if fcount[t] == 0:
                        c += 1
                if trying:
                    mask &= ~(1 << (n - v))
                ctr.n += len(lst)
                trying += 1
                continue
            v -= 1
            if v == 0:
                return
            # the mask's bit on v tells which branch ran
            b = mask >> (n - v) & 1
            lst = occ1[v] if b else occ0[v]
            for t in lst:
                fcount[t] -= 1
                if fcount[t] == 0:
                    c += 1
            if b:
                mask &= ~(1 << (n - v))
            ctr.n += len(lst) + 1
            trying = b + 1

    return gen()
