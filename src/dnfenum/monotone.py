"""Enumeration specialized to monotone (all-positive) DNF.

Monotone structure buys three things over the general algorithms:

* reverse search (enum_monotone_rs): models of each term form a subset
  lattice walked root-to-leaves; a set of everything output so far prunes
  whole subtrees, giving delay O(n^2) independent of the term count,
  at the price of storing every model.
* enum_monotone_avg: the trie-guided DFS needs no adaptation — positive
  formulas simply never branch on a negated literal.
* enum_monotone_log (complement phase): once every live term misses fewer
  than log2(m) + 2*log2(n) of the remaining variables, terms are re-encoded
  by the variables they lack.  Restriction work then scales with those
  short complement words, and runs of variables appearing in every term are
  forced to 1 in O(1) by jumping over them.

normalize_unate maps any formula whose variables each occur with a single
polarity onto a monotone one; model streams map back by XOR with the
returned flip mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .avg import MODE_FAST, _trie_dfs, enum_avg
from .core import Dnf, Term
from .graycode import term_start_mask
from .instrument import StepCounter
from .trie import TermTrie, Trie


@dataclass(frozen=True)
class MonotoneDnf:
    dnf: Dnf
    #: promises the terms form an antichain in canonical sorted order, which
    #: lets minimize_monotone skip its quadratic absorption scan
    minimized: bool = False

    def __post_init__(self):
        for t in self.dnf.terms:
            for lit in t:
                if lit < 0:
                    raise ValueError(f"literal {lit} is negative; formula is not monotone")


def _as_mono(d) -> MonotoneDnf:
    if isinstance(d, MonotoneDnf):
        return d
    return MonotoneDnf(d)


def normalize_unate(d: Dnf) -> tuple[MonotoneDnf, int]:
    """Flip single-polarity-negative variables to obtain a monotone formula.

    Returns the monotone formula and the mask of flipped variables; a model
    of the returned formula XOR the mask is a model of the original.
    Raises ValueError when some variable occurs in both polarities.
    """
    pos: set[int] = set()
    neg: set[int] = set()
    for t in d.terms:
        for lit in t:
            (pos if lit > 0 else neg).add(abs(lit))
    both = sorted(pos & neg)
    if both:
        raise ValueError(f"variables {both} occur in both polarities; not unate")
    mask = 0
    for v in neg:
        mask |= 1 << (d.n - v)
    terms = [tuple(sorted(abs(lit) for lit in t)) for t in d.terms]
    return MonotoneDnf(Dnf(d.n, terms)), mask


def minimize_monotone(md: MonotoneDnf, *, counter: StepCounter | None = None) -> MonotoneDnf:
    """Drop every term that contains another term; result is an antichain.

    Output terms are sorted in canonical word order, which downstream
    enumerators rely on.
    """
    if md.minimized:
        return md
    ctr = counter if counter is not None else StepCounter()
    d = md.dnf
    items = [(pos, t) for (pos, _), t in zip(d.term_masks, d.terms)]
    items.sort(key=lambda it: (it[0].bit_count(), it[1]))
    kept: list[tuple[int, Term]] = []
    for mask, t in items:
        ok = True
        for km, _ in kept:
            ctr.n += 1
            if km & mask == km:
                ok = False
                break
        if ok:
            kept.append((mask, t))
    ctr.n += len(items) + 1
    terms = sorted(t for _, t in kept)
    return MonotoneDnf(Dnf(d.n, terms), minimized=True)


def enum_monotone_rs(md, *, counter: StepCounter | None = None):
    """Reverse search over per-term subset lattices with a set of models.

    For each term in order, walks the tree of free-variable subsets rooted
    at the term's characteristic model.  A successor already in the set of
    models output so far is discarded together with its whole subtree (its
    models all belong to earlier terms); fresh successors are pushed on a
    stack in reverse, so the walk is depth first in successor order and
    never revisits a node.  Every visit outputs.  Each store probe or
    insert reads one n-bit key and costs n + 1 steps; the node gauge counts
    one unit per stored model.
    """
    ctr = counter if counter is not None else StepCounter()
    md = minimize_monotone(_as_mono(md), counter=ctr)
    d = md.dnf
    n = d.n
    seen: set[int] = set()

    def gen():
        for t in d.terms:
            base, free = term_start_mask(t, n, ctr)
            bits = [1 << s for s in free]
            stack = [(base, -1)]
            while stack:
                mask, last = stack.pop()
                ctr.n += n + 1
                if mask in seen:
                    raise RuntimeError("reverse-search visit repeated a model")
                seen.add(mask)
                ctr.nodes += 1
                ctr.charge_output(mask, n)
                yield mask
                succs = []
                for j in range(last + 1, len(bits)):
                    cand = mask | bits[j]
                    ctr.n += n + 2  # form the candidate, probe the store
                    if cand not in seen:
                        succs.append((cand, j))
                stack.extend(reversed(succs))

    return gen()


def enum_monotone_avg(md, *, counter: StepCounter | None = None):
    """The greedy trie-guided DFS, which needs no monotone adaptation."""
    md = _as_mono(md)
    return enum_avg(md.dnf, MODE_FAST, counter=counter)


def _complement_phase(tt: TermTrie, live: list[int], base_mask: int, ctr: StepCounter, n: int):
    """Enumerate the subtree after re-encoding terms by their missing vars.

    The complement trie's alphabet is variable indices.  Setting x to 0
    keeps exactly the terms missing x — the child(x) subtree, a re-root.
    Setting x to 1 keeps everything and strips x from the words that have
    it — a small-into-large merge.  Variables smaller than every root child
    symbol appear in every term, so they are forced to 1 and skipped with
    no trie work at all.  The walk keeps its open branches on an explicit
    frame stack, so its depth is not bounded by the recursion limit.
    """
    L = len(live)
    bits = [1 << (n - v) for v in live]
    suf = [0] * (L + 1)
    for i in range(L - 1, -1, -1):
        suf[i] = suf[i + 1] | bits[i]
    idx = {v: i for i, v in enumerate(live)}
    ct = Trie(n + 1, counter=ctr)
    for w in tt.iter_words():
        tvars = [s // 2 + 1 for s in w]
        comp = []
        ti = 0
        for u in live:
            if ti < len(tvars) and tvars[ti] == u:
                ti += 1
            else:
                comp.append(u)
        ctr.n += L + 1
        ct.insert(tuple(comp))
    ctr.n += 2 * L + 2

    def walk():
        # the open branches, innermost last: (i, mask, x, root, token), with
        # token None while "x -> 0" runs and the undo token of the strip
        # once "x -> 1" runs
        frames: list = []
        i = 0
        mask = base_mask
        while True:
            root = ct.root
            x = ct._min_sym(root)
            ctr.n += 1
            if x is not None:
                j = idx[x]
                if j > i:
                    # vars live[i:j] occur in every term: forced to 1, zero
                    # trie work
                    mask |= suf[i] ^ suf[j]
                    ctr.n += 2
                    i = j
                ctr.n += 2
                # x -> 0: only the terms missing x survive, already rooted
                # at child(x)
                ct.root = ct._get(root, x)
                frames.append((i, mask, x, root, None))
                i += 1
                continue
            # lone fully-shrunk term: every remaining variable is in it
            out = mask | suf[i]
            ctr.charge_output(out, n)
            yield out
            # close "x -> 1" branches up to the innermost open "x -> 0" one,
            # then switch that one to "x -> 1"
            while frames:
                i, mask, x, root, token = frames.pop()
                if token is None:
                    break
                ct.undo(token)
            else:
                ct.release()  # the walk is done with its trie
                return
            # x -> 1: every term survives, and x leaves the words that have it
            ct.root = root
            frames.append((i, mask, x, root, ct.strip(x)))
            mask |= bits[idx[x]]
            i += 1

    return walk()


def enum_monotone_log(md, *, counter: StepCounter | None = None):
    """Greedy DFS that re-encodes to complements once all terms are wide.

    Runs enum_monotone_avg's traversal until, at some node, every live term
    misses fewer than log2(live terms) + 2*log2(n) of the remaining
    variables; from there the whole subtree is enumerated on the complement
    trie, whose words are those short miss-lists.
    """
    md = _as_mono(md)
    d = md.dnf
    ctr = counter if counter is not None else StepCounter()
    n = d.n
    log2n2 = 2 * math.log2(n) if n > 1 else 0.0
    tt = TermTrie.from_dnf(d, counter=ctr, track_minlen=True)
    active = list(range(1, n + 1))

    m = tt.root.count
    if m and n - tt.root.minlen < math.log2(m) + log2n2:
        # every term is already wide at the root: re-encode during setup so
        # the complement build is paid before the first output; the
        # complement trie replaces the term trie
        walk = _complement_phase(tt, active, 0, ctr, n)
        tt.release()
        return walk

    def hook(tt_, active_, pos, mask):
        n_tau = len(active_) - pos
        m_tau = tt_.root.count
        maxcomp = n_tau - tt_.root.minlen
        ctr.n += 1
        if maxcomp < math.log2(m_tau) + log2n2:
            return _complement_phase(tt_, active_[pos:], mask, ctr, n)
        return None

    return _trie_dfs(tt, active, 0, ctr, fast=True, node_hook=hook)
