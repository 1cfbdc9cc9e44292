"""Bounded-width enumeration with delay independent of the term count.

A shortest term T of the formula supplies at least 2^(N-k) models, walked
by Gray code at constant cost each.  The remaining models split cleanly:
ordering var(T) ascending, every other model agrees with T strictly below
some y in var(T) and disagrees at y.  Each of those blocks is the formula
restricted by that prefix assignment — a smaller instance of the same
problem.  The restrictions for all y are built while the Gray walk runs,
paced: each frame states an upper bound on the steps of its own
construction (from its shortest-term width, term count and free-variable
count), divides it once by the length of its walk, and runs at least that
share before each output until construction is done.  So construction
always ends inside the walk; the frame checks that it did.

The hybrid variant hands any frame whose live variable count drops below
lambda*k to the trie-guided enumerator from avg, which is the better
strategy on small dense subproblems.
"""

from __future__ import annotations

from dataclasses import dataclass

from .avg import _trie_dfs
from .core import MAX_INPUT_VARS, Dnf, PartialAssignment, Term, lit_index
from .graycode import GrayState
from .instrument import Models, StepCounter
from .trie import TermTrie

LAMBDA_DEFAULT = 3.55301


def partition_assignments(t: Term) -> tuple[PartialAssignment, list[PartialAssignment]]:
    """The satisfying assignment of t and the per-variable flip prefixes.

    For y in var(t) ascending, the y-th prefix agrees with t strictly below
    y and flips y; together with t's own assignment these classes partition
    all assignments.
    """
    if not t:
        raise ValueError("empty term has no partition")
    one = {abs(lit): (1 if lit > 0 else 0) for lit in t}
    cofs = []
    prefix: dict[int, int] = {}
    for lit in t:
        y = abs(lit)
        block = dict(prefix)
        block[y] = 1 - one[y]
        cofs.append(block)
        prefix[y] = one[y]
    return one, cofs


def choose_min_term(d: Dnf) -> Term:
    """A term of minimum width; ties broken by canonical word order."""
    return min(d.terms, key=lambda t: (len(t), tuple(map(lit_index, t))))


#: steps per (term x literal x block) of child construction, measured once:
#: _build_children on 60 distinct random 3-terms over 14 variables (seed
#: 0x5EED) counts 2,174 steps against k^2 * m = 540, rounded up to 5.  The
#: walk paces by _construction_bound instead; A stays only for
#: step_constant(), which perfbench/layers.py still calls
A = 5


def step_constant() -> int:
    return A


@dataclass(frozen=True)
class KdnfConfig:
    k: int
    d: int
    lam: float = LAMBDA_DEFAULT

    @classmethod
    def for_width(cls, k: int, lam: float = LAMBDA_DEFAULT) -> "KdnfConfig":
        k = max(k, 1)
        if k > MAX_INPUT_VARS:
            raise ValueError(f"k={k} exceeds the limit of {MAX_INPUT_VARS}")
        # d = ceil(k^1.5 * 4^k), with k^1.5 the float k**1.5 taken exactly:
        # the product in floats would overflow from k = 506 on
        p, q = (k**1.5).as_integer_ratio()
        return cls(k=k, d=-((-p << 2 * k) // q), lam=lam)

    @classmethod
    def for_formula(cls, d: Dnf) -> "KdnfConfig":
        return cls.for_width(max((len(t) for t in d.terms), default=1))


class _Frame:
    __slots__ = ("tt", "assign", "unassigned", "min_word", "gray", "children", "path")

    def __init__(self, tt, assign, unassigned, min_word, gray, path):
        self.tt = tt
        self.assign = assign
        self.unassigned = unassigned
        self.min_word = min_word
        self.gray = gray
        self.children: list[_Frame] = []
        self.path = path


def _make_frame(tt, assign, unassigned, min_word, cfg, ctr, n, path=()):
    kp = len(min_word)
    mp = tt.root.count
    nu = len(unassigned)
    # step-budget feasibility: the Gray walk is long enough to pay for the
    # whole construction (holds for every dedup'd bounded-width formula with
    # the default budget)
    if (cfg.d << (nu - kp)) < kp * kp * mp:
        raise ValueError(
            f"infeasible kdnf budget: d * 2^(n' - k') = {cfg.d} * 2^{nu - kp}"
            f" < k'^2 * m' = {kp * kp * mp}"
        )
    tvars = set()
    start = assign
    for s in min_word:
        v = s // 2 + 1
        tvars.add(v)
        if s & 1:
            start |= 1 << (n - v)
    free = [n - v for v in unassigned if v not in tvars]
    ctr.n += nu + 1
    return _Frame(tt, assign, unassigned, min_word, GrayState(start, free), path)


def _construction_bound(F: _Frame, cfg: KdnfConfig) -> int:
    """An upper bound on the steps _build_children(F) charges.

    Per block of the k' blocks, with m' words of at most k symbols and n'
    unassigned variables: iter_words visits at most 1 + m'k nodes, each term scan
    costs at most k + 2, each insert at most 2k + 1 (k + 1 plus one per new
    node), and the child costs len(F.unassigned) + len(delta) plus
    _make_frame's nu + 1, 2n' + 1 together.
    """
    k = cfg.k
    return len(F.min_word) * (F.tt.root.count * (4 * k + 3) + 2 * len(F.unassigned) + 2)


def _build_children(F: _Frame, cfg: KdnfConfig, ctr: StepCounter, n: int):
    """Resumable construction of the flip-prefix restrictions of F.

    Yields once per parent term scanned so the caller can meter steps.
    Each block scans every term against the block's partial assignment,
    dropping falsified terms and stripping satisfied literals; surviving
    words go into a fresh trie that dedups and tracks the new shortest
    term on the fly.
    """
    if not F.min_word:  # a tautology frame: its Gray walk covers every model
        return
    term = tuple(s // 2 + 1 if s & 1 else -(s // 2 + 1) for s in F.min_word)
    for y, delta in zip(map(abs, term), partition_assignments(term)[1]):
        child_tt = TermTrie(n, counter=ctr)
        min_key = None  # (width, word) of the shortest term so far
        for w in F.tt.iter_words():
            keep = True
            out = []
            for sym in w:
                b = delta.get(sym // 2 + 1)
                if b is None:
                    out.append(sym)
                elif (sym & 1) != b:
                    keep = False
                    break
            ctr.n += len(w) + 2
            if keep:
                tw = tuple(out)
                if tw == ():
                    # fully satisfied term: the block is a tautology
                    child_tt.release()
                    child_tt = TermTrie(n, counter=ctr)
                    child_tt.insert(())
                    min_key = (0, ())
                    yield
                    break
                if child_tt.insert(tw):
                    key = (len(tw), tw)
                    if min_key is None or key < min_key:
                        min_key = key
            yield
        if child_tt.root.count:
            sub_unassigned = tuple(u for u in F.unassigned if u not in delta)
            sub_assign = F.assign
            for v, b in delta.items():
                if b:
                    sub_assign |= 1 << (n - v)
            ctr.n += len(F.unassigned) + len(delta)
            F.children.append(
                _make_frame(child_tt, sub_assign, sub_unassigned, min_key[1], cfg, ctr, n, F.path + (y,))
            )
            yield
        else:
            child_tt.release()  # no term survives: the block has no models


def _kdnf_walk(d: Dnf, cfg: KdnfConfig | None, counter: StepCounter | None, hybrid: bool):
    """Enumerate sat(d): the model stream and its live frame stack.

    Fills in the default counter and config.  After each model, the top
    frame of the stack is the frame whose block holds that model.  A frame
    is walked in one pass: before each output, a slice of at least
    ceil(bound / 2^(n' - k')) steps of child construction, with bound its
    _construction_bound, until the builder is done; then the rest of the
    Gray walk as runs at 4 steps an output (2 for the flip, 2 for
    charge_output's one-bit change).  The walk has 2^(n' - k') outputs, so
    the slices cover the bound; if construction still has steps left after
    the walk, the bound was wrong and the frame raises RuntimeError.
    """
    ctr = counter if counter is not None else StepCounter()
    if cfg is None:
        cfg = KdnfConfig.for_formula(d)
    wide = max((len(t) for t in d.terms), default=0)
    if wide > cfg.k:
        raise ValueError(f"term of width {wide} exceeds k={cfg.k}")
    n = d.n
    stack: list[_Frame] = []
    if d.m:
        tt = TermTrie.from_dnf(d, counter=ctr)
        min_word = tuple(lit_index(lit) for lit in choose_min_term(d))
        ctr.n += d.size + 1
        stack.append(_make_frame(tt, 0, tuple(range(1, n + 1)), min_word, cfg, ctr, n))
    cutoff = cfg.lam * cfg.k

    def gen():
        while stack:
            F = stack[-1]
            if hybrid and len(F.unassigned) < cutoff:
                yield from _trie_dfs(F.tt, list(F.unassigned), F.assign, ctr, fast=True)
            else:
                gray = F.gray
                # ceil(bound / 2^(n' - k')): the walk has 2^(n' - k') outputs
                budget = -(-_construction_bound(F, cfg) >> (len(F.unassigned) - len(F.min_word)))
                builder = _build_children(F, cfg, ctr, n)
                building = True
                mask = gray.mask
                while True:
                    mark = ctr.n
                    for _ in builder:  # one slice of construction
                        if ctr.n - mark >= budget:
                            break
                    else:
                        building = False
                    ctr.charge_output(mask, n)
                    yield mask
                    if not (building and gray.remaining()):
                        break
                    mask = gray.advance(ctr)
                yield from gray.runs(4)
                mark = ctr.n
                for _ in builder:
                    pass
                if ctr.n != mark:
                    raise RuntimeError(
                        f"kdnf frame {F.path}: construction outran its bound by {ctr.n - mark} steps"
                    )
            stack.pop()
            F.tt.release()
            stack.extend(reversed(F.children))

    return Models(gen(), ctr), stack


def enum_kdnf(d: Dnf, cfg: KdnfConfig | None = None, *, counter: StepCounter | None = None):
    """Enumerate sat(d) with delay bounded by the width budget, not by m."""
    return _kdnf_walk(d, cfg, counter, hybrid=False)[0]


def enum_kdnf_hybrid(d: Dnf, cfg: KdnfConfig | None = None, *, counter: StepCounter | None = None):
    """Like enum_kdnf, but small frames switch to the trie-guided DFS."""
    return _kdnf_walk(d, cfg, counter, hybrid=True)[0]


def _kdnf_tagged(d: Dnf, cfg: KdnfConfig | None = None, *, counter: StepCounter | None = None):
    """(mask, frame path) stream for partition testing."""
    models, stack = _kdnf_walk(d, cfg, counter, hybrid=False)
    return ((mask, stack[-1].path) for mask in models)
