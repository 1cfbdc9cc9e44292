"""Baseline enumerators for arbitrary DNF formulas.

Three strategies with different delay profiles:

* enum_union_priority: every term runs its own Gray walk; a candidate is
  output only by the last term that satisfies it.  No repetitions, but the
  delay between outputs can grow with the number of suppressed candidates.
* enum_union_ordered: per-term lexicographic walks merged through a heap of
  candidate masks, outputs in increasing bitstring order.  Delay O(n * m).
* enum_flashlight: depth-first assignment search pruned by an exact
  extendability test (some term not yet falsified).  Delay O(n * size).
"""

from __future__ import annotations

from heapq import heappop, heappush

from .core import Dnf
from .graycode import GrayState, term_start_mask
from .instrument import StepCounter


def enum_union_priority(d: Dnf, *, counter: StepCounter | None = None):
    """Interleave per-term Gray walks, deduplicating by owner term.

    Round r hands out the r-th model of every term still walking; a model
    is emitted only if no later term also satisfies it, so the last
    satisfying term owns each model.  One counted step per ownership probe,
    plus one per candidate, and each owned candidate is charged as an
    output.
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
                    ctr.charge_output(cand, n)
                    yield cand
                if w.remaining():
                    nxt_live.append(i)
            live = nxt_live

    return gen()


def enum_union_ordered(d: Dnf, *, counter: StepCounter | None = None):
    """Merge per-term lexicographic walks; outputs in increasing order.

    A heap of distinct candidate masks holds the current candidate of every
    unfinished term, and a dict maps each candidate to the terms at it.
    Each round pops the smallest candidate, emits it once, and advances
    exactly the terms that produced it.  Term i's next candidate is
    base | (((cur | ~F) + 1) & F), with F the mask of its free variables:
    the free bits count up by one, and the walk ends when they wrap to 0.
    A frontier insert or pop reads one n-bit key and costs n + 1 steps;
    writing a candidate costs one step per free bit plus one, and filing
    its term one more.  The node gauge counts one unit per live frontier
    entry.
    """
    ctr = counter if counter is not None else StepCounter()
    n = d.n
    full = (1 << n) - 1
    free_masks = [full & ~(pos | neg) for pos, neg in d.term_masks]
    heap: list[int] = []
    owners: dict[int, list[int]] = {}

    def put(mask: int, i: int) -> None:
        # write the candidate's free bits, read its key, file the term
        ctr.n += free_masks[i].bit_count() + n + 3
        at = owners.get(mask)
        if at is None:
            owners[mask] = [i]
            heappush(heap, mask)
            ctr.nodes += 1
        else:
            at.append(i)

    for i, (pos, _) in enumerate(d.term_masks):
        ctr.n += n + 1  # read the term
        put(pos, i)

    def gen():
        while heap:
            mask = heappop(heap)
            ctr.n += n + 1
            ctr.nodes -= 1
            ctr.charge_output(mask, n)
            yield mask
            for i in owners.pop(mask):
                f = free_masks[i]
                nxt = ((mask | ~f) + 1) & f
                if nxt:
                    put(mask & ~f | nxt, i)

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
                        ctr.charge_output(mask, n)
                        yield mask
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
