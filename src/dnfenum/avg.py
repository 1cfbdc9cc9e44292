"""Trie-guided branching enumeration with amortised output cost.

The driver walks variables in index order, keeping the restricted formula
in a term trie.  Root subtree counts give the three-way split on the next
variable x (terms with -x, with x, with neither), which yields an exact
dead-branch test: a branch survives iff its restriction keeps at least one
term.  Every inner node therefore has a model below it, and the total trie
work can be charged to the models produced.

enum_avg runs it in one of two modes:

* MODE_SLOW ("t10") restricts by strip-and-reinsert only; the work per node
  is proportional to the satisfied side.
* MODE_FAST ("t11") greedily re-roots on the satisfied literal's subtree
  whenever the leftover side (terms mentioning neither literal) is strictly
  smaller, so the charged side is always a minority of the current terms.

A formula with m nonempty terms has at least m**GAMMA models, which is what
makes charging trie work against outputs pay off.
"""

from __future__ import annotations

import math

from .core import MODE_FAST, MODE_SLOW, Dnf
from .instrument import StepCounter
from .trie import TermTrie

#: models >= m**GAMMA for any DNF with m nonempty distinct terms
GAMMA = math.log(2, 3)


def min_models_bound(m: int) -> float:
    """Lower bound on the model count of a DNF with m nonempty terms."""
    return m ** GAMMA


def _trie_dfs(
    tt: TermTrie,
    active: list[int],
    base_mask: int,
    ctr: StepCounter,
    *,
    fast: bool,
    node_hook=None,
):
    """DFS over assignments to `active` guided by the trie `tt`.

    Yields model masks; `base_mask` must be 0 on every active position.
    `node_hook(tt, active, pos, mask)` may return a generator that takes
    over the whole subtree at that node.
    """
    if tt.root.count == 0:
        return
    n = tt.n
    L = len(active)
    mask = base_mask
    counts: list = [None] * L
    tokens: list = [None] * L
    pos, trying = 0, 0
    while True:
        if pos == L:
            ctr.charge_output(mask, n)
            yield mask
            trying = 2
        elif trying == 0:
            if node_hook is not None:
                sub = node_hook(tt, active, pos, mask)
                if sub is not None:
                    yield from sub
                    trying = 2
                    continue
            counts[pos] = tt.counts_for(active[pos])
        if trying <= 1:
            na, nb, rest = counts[pos]
            sat = nb if trying else na
            if sat + rest == 0:
                trying += 1
                continue
            v = active[pos]
            # fast only when raising x and the leftover side is the
            # strict minority; ties rebuild (the cheap construction)
            use_fast = fast and trying == 1 and rest < sat
            if use_fast:
                if 2 * rest >= tt.root.count:
                    raise RuntimeError(
                        f"fast branch on x{v}: {rest} leftover terms are not a strict"
                        f" minority of {tt.root.count}"
                    )
            tokens[pos] = tt.set_variable(v, trying, use_fast)
            if trying:
                mask |= 1 << (n - v)
            pos += 1
            trying = 0
            continue
        # a leaf, or a node whose branches are done: back up one level;
        # the mask's bit there tells which branch ran
        pos -= 1
        if pos < 0:
            return
        tt.undo(tokens[pos])
        bit = 1 << (n - active[pos])
        trying = 2 if mask & bit else 1
        mask &= ~bit


def enum_avg(d: Dnf, mode: str = MODE_FAST, *, counter: StepCounter | None = None):
    """Enumerate sat(d) in lexicographic order (0 before 1 per variable).

    mode "t10" rebuilds the trie on both branches by strip-and-reinsert.
    mode "t11" additionally re-roots on the x subtree when raising x and
    the terms mentioning neither literal are the strict minority, so the
    inserted side never exceeds half the current terms.
    """
    if mode not in (MODE_SLOW, MODE_FAST):
        raise ValueError(f"unknown mode {mode!r}")
    ctr = counter if counter is not None else StepCounter()
    tt = TermTrie.from_dnf(d, counter=ctr)
    return _trie_dfs(tt, list(range(1, d.n + 1)), 0, ctr, fast=mode == MODE_FAST)

