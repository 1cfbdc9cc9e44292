"""Trie behavior: set semantics, strip-and-merge and restriction with undo."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import decode, dnfs, restrict
from dnfenum import (
    enum_avg,
    enum_kdnf,
    enum_kdnf_hybrid,
    enum_monotone_avg,
    enum_monotone_log,
    enum_unions,
)
from dnfenum.core import Dnf, lit_index
from dnfenum.instances import generate
from dnfenum.instrument import StepCounter, measure
from dnfenum.trie import NO_WORDS, TermTrie, Trie


def test_insert_search_basics():
    t = Trie(2)
    assert t.insert((1, 1, 0))
    assert len(t) == 1
    assert not t.insert((1, 1, 0))
    assert len(t) == 1
    assert t.insert((1, 0))
    assert t.insert((1, 1))
    assert len(t) == 3
    assert set(t.iter_words()) == {(1, 1, 0), (1, 0), (1, 1)}


def test_empty_word():
    t = Trie(3)
    assert t.insert(())
    assert list(t.iter_words()) == [()]
    assert len(t) == 1


def test_symbol_out_of_range():
    t = Trie(2)
    with pytest.raises(ValueError):
        t.insert((2,))
    with pytest.raises(ValueError):
        t.insert((-1,))


def subtree_size(t: Trie, node) -> int:
    """Words below `node`, counted by walking it; checks every node's count."""
    total = 1 if node.word else 0
    for _, kid in t._child_items(node):
        total += subtree_size(t, kid)
    assert node.count == total
    return total


@pytest.mark.parametrize("alphabet", [4, 40_000])
def test_differential_against_reference_set(alphabet):
    """10^4 random inserts agree with a plain python set.

    Symbols come from a pool of six, so nodes branch and words repeat; on
    the wide alphabet the pool is spread across all of it.
    """
    rng = random.Random(0xD1FF + alphabet)
    pool = sorted(rng.sample(range(alphabet), min(alphabet, 6)))
    t = Trie(alphabet)
    ref: set[tuple[int, ...]] = set()
    for i in range(10_000):
        w = tuple(rng.choice(pool) for _ in range(rng.randrange(6)))
        assert t.insert(w) == (w not in ref)
        ref.add(w)
        assert len(t) == len(ref)
        if i % 500 == 0:
            assert subtree_size(t, t.root) == len(ref)
            assert {p for p, row in node_table(t).items() if row[0]} == ref
    words = list(t.iter_words())
    assert len(words) == len(set(words))
    assert set(words) == ref
    assert t.node_count == 1 + len({w[:i] for w in ref for i in range(1, len(w) + 1)})


def test_iter_words_from_subtree():
    t = Trie(3)
    for w in [(1,), (1, 0), (1, 2, 2), (2,)]:
        t.insert(w)
    kid = t._get(t.root, 1)
    assert sorted(t.iter_words(kid)) == [(), (0,), (2, 2)]


def test_iter_words_order_is_insertion_order():
    t = Trie(10)
    for w in [(7,), (3, 1), (3, 0), (9,), (3,)]:
        t.insert(w)
    assert list(t.iter_words()) == [(7,), (3,), (3, 1), (3, 0), (9,)]
    t.undo(t.strip(7))  # detaches child(7); a child put back counts as inserted anew
    assert list(t.iter_words()) == [(3,), (3, 1), (3, 0), (9,), (7,)]


def test_array_ops_touch_linearly_many_nodes():
    """Each insert's counted steps stay within 4x the word length."""
    rng = random.Random(7)
    ctr = StepCounter()
    t = Trie(8, counter=ctr)
    for _ in range(500):
        w = tuple(rng.randrange(8) for _ in range(rng.randrange(12)))
        before = ctr.n
        t.insert(w)
        assert ctr.n - before <= 4 * (len(w) + 1)


def test_term_trie_memory_does_not_grow_with_the_alphabet():
    # 2000 width-3 terms over n=20000: an alphabet of 40000 literal ranks
    d = generate("kdnf", 20000, 2000, k=3, seed=1)
    tracemalloc.start()
    try:
        tt = TermTrie.from_dnf(d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tt) == d.m
    assert peak < 10 * 2**20


def test_term_trie_node_memory_is_independent_of_the_alphabet():
    # the same trie of 3,915 nodes over 40000 literal ranks: no per-node
    # field may grow with the alphabet, so the whole build stays under 1 MB
    d = generate("kdnf", 20000, 2000, k=3, seed=1)
    tracemalloc.start()
    try:
        tt = TermTrie.from_dnf(d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tt.node_count == 3915
    assert peak <= 2**20


def words_with_data(t: Trie) -> dict[tuple[int, ...], list]:
    return {path: sorted(row[3]) for path, row in node_table(t).items() if row[0]}


@pytest.mark.parametrize("seed", range(60))
def test_strip_first_merges_and_undoes(seed):
    rng = random.Random(seed)
    t = Trie(5)
    ref: dict[tuple[int, ...], list[int]] = {}
    for i in range(rng.randint(1, 30)):
        w = tuple(rng.randrange(5) for _ in range(rng.randrange(5)))
        fresh, leaf = t.insert_get(w)
        if fresh is not None:
            leaf.data = [i]
            ref[w] = [i]
    heads = sorted({w[0] for w in ref if w})
    if not heads:
        return
    s = rng.choice(heads)
    before = words_with_data(t)
    token = t.strip(s)
    want: dict[tuple[int, ...], list[int]] = {}
    for w, data in ref.items():
        want.setdefault(w[1:] if w[:1] == (s,) else w, []).extend(data)
    assert words_with_data(t) == {w: sorted(data) for w, data in want.items()}
    assert subtree_size(t, t.root) == len(want)
    t.undo(token)
    assert words_with_data(t) == before
    assert subtree_size(t, t.root) == len(ref)


def test_strip_first_moves_the_smaller_side():
    t = Trie(4)
    for w in [(0, 1), (0, 2), (0, 3), (1,), (1, 2)]:
        t.insert(w)
    root = t.root
    token = t.strip(0)  # child(0) holds 3 of 5 words: re-root on it
    assert token[0] == ("root", root)
    assert set(t.iter_words()) == {(1,), (2,), (3,), (1, 2)}
    t.undo(token)
    assert t.root is root
    token = t.strip(1)  # child(1) holds 2 of 5 words: detach it
    assert token[0][0] == "detach"
    assert set(t.iter_words()) == {(0, 1), (0, 2), (0, 3), (), (2,)}
    t.undo(token)
    assert set(t.iter_words()) == {(0, 1), (0, 2), (0, 3), (1,), (1, 2)}


def test_minlen_tracking():
    t = Trie(3, track_minlen=True)
    assert t.root.minlen == NO_WORDS
    t.insert((1, 2, 0))
    assert t.root.minlen == 3
    t.insert((2,))
    assert t.root.minlen == 1
    t.insert(())
    assert t.root.minlen == 0


class _PerWordMerge:
    """The copying merge: every moved word is inserted from the root, in
    iter_words order, and undo deletes the fresh words one by one in
    reverse order.  The reference the one-walk graft merge must match.
    A delete is priced as its walk and its pruned nodes: minlen needs no
    recalculation steps, since the graft merge's undo puts it back from a
    snapshot."""

    def _delete(self, word):
        """Remove a word known to be present, pruning the nodes it leaves
        empty and recomputing minlen along its path; charges nothing."""
        node = self.root
        parents = []
        for s in word:
            parents.append((node, s))
            node = self._get(node, s)
        node.word = False
        node.count -= 1
        for p, _ in parents:
            p.count -= 1
        while parents and node.count == 0:
            p, s = parents.pop()
            self._pop_child(p, s)
            self._grow(-1)
            node = p
        if self.track_minlen:
            for p in [node] + [p for p, _ in reversed(parents)]:
                self._recalc_minlen(p)

    def _merge(self, src, token, skip=None):
        if skip is None:
            self._ref_merge(src, (), token)
            return
        if src.word:
            self._ref_word((), src.data, token)
        for t, sub in list(self._child_items(src)):
            if t not in skip:
                self._ref_merge(sub, (t,), token)

    def _ref_merge(self, node, prefix, token):
        stack = [(node, prefix)]
        while stack:
            nd, w = stack.pop()
            self.counter.n += 1
            if nd.word:
                self._ref_word(w, nd.data, token)
            stack.extend([(k, w + (t,)) for t, k in reversed(list(self._child_items(nd)))])

    def _ref_word(self, w, data, token):
        fresh, leaf = self.insert_get(w)
        if fresh is not None:
            token.append(("ins", w))
            if data is not None:
                leaf.data = list(data)
        elif data is not None:
            token.append(("data", leaf, leaf.data))
            leaf.data = leaf.data + data

    def undo(self, token):
        for op in reversed(token):
            if op[0] == "ins":
                ctr = self.counter
                steps, nodes = ctr.n, ctr.nodes
                self._delete(op[1])
                ctr.n = steps + len(op[1]) + 1 + nodes - ctr.nodes
            elif op[0] == "data":
                op[1].data = op[2]
            else:
                super().undo([op])


class RefTermTrie(_PerWordMerge, TermTrie):
    pass


def node_table(t: Trie) -> dict:
    """Every node by its path: word flag, count, minlen, payload and the set
    of its child symbols."""
    table = {}
    stack = [((), t.root)]
    while stack:
        path, nd = stack.pop()
        kids = list(t._child_items(nd))
        table[path] = (nd.word, nd.count, nd.minlen, nd.data if nd.word else None, {s for s, _ in kids})
        stack.extend((path + (s,), k) for s, k in kids)
    return table


def assert_same_trie(new: Trie, ref: Trie) -> None:
    assert node_table(new) == node_table(ref)
    assert new.node_count == ref.node_count
    assert (new.counter.n, new.counter.nodes) == (ref.counter.n, ref.counter.nodes)


def random_terms(rng: random.Random, n: int) -> list[tuple[int, ...]]:
    terms = set()
    for _ in range(rng.randint(1, 40)):
        vs = sorted(rng.sample(range(1, n + 1), rng.randint(0, min(n, 5))))
        terms.add(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return sorted(terms)


@pytest.mark.parametrize("track", [False, True], ids=["plain", "minlen"])
@pytest.mark.parametrize("payload", [False, True], ids=["bare", "data"])
@pytest.mark.parametrize("seed", range(40))
def test_merge_and_undo_match_the_per_word_merge(seed, payload, track):
    """Nested LIFO restrictions agree with the copying merge after every op
    and every undo: words, payloads, every node's count and minlen, the node
    gauge and the step counter."""
    rng = random.Random(seed * 4 + 2 * payload + track)
    n = rng.randint(2, 7)
    terms = random_terms(rng, n)
    tries = []
    for cls in (TermTrie, RefTermTrie):
        tt = cls(n, counter=StepCounter(), track_minlen=track)
        for i, term in enumerate(terms):
            fresh, leaf = tt.insert_get(tuple(lit_index(lit) for lit in term))
            if payload:
                leaf.data = [i]
        tries.append(tt)
    new, ref = tries
    assert_same_trie(new, ref)
    stack = []
    for _ in range(60):
        if stack and (len(stack) >= 8 or rng.random() < 0.4):
            tok_new, tok_ref = stack.pop()
            new.undo(tok_new)
            ref.undo(tok_ref)
        else:
            heads = [s for s, _ in new._child_items(new.root)]
            ops = ["set", "fast"] + (["strip"] if heads and not track else [])
            op = rng.choice(ops)
            if op == "strip":
                s = rng.choice(heads)
                stack.append((new.strip(s), ref.strip(s)))
            else:
                v, b = rng.randint(1, n), rng.randint(0, 1)
                fast = op == "fast"
                stack.append((new.set_variable(v, b, fast), ref.set_variable(v, b, fast)))
        assert_same_trie(new, ref)
    while stack:
        tok_new, tok_ref = stack.pop()
        new.undo(tok_new)
        ref.undo(tok_ref)
        assert_same_trie(new, ref)
    assert sorted(decode(new)) == sorted(terms)


@pytest.mark.parametrize("seed", range(30))
def test_merge_undo_costs_the_same_with_and_without_minlen(seed):
    """A merge's undo charges the fresh words and the made nodes on every
    trie; tracking minlen adds nothing to it, and the minlen snapshot still
    gives the root back its shortest term."""
    rng = random.Random(seed)
    n = rng.randint(2, 7)
    d = Dnf(n, tuple(random_terms(rng, n)))
    plain, track = (TermTrie.from_dnf(d, counter=StepCounter(), track_minlen=t) for t in (False, True))

    stack = []

    def undo_both():
        tok_plain, tok_track = stack.pop()
        before = plain.counter.n, track.counter.n
        plain.undo(tok_plain)
        track.undo(tok_track)
        assert plain.counter.n - before[0] == track.counter.n - before[1]

    def check():
        words = set(track.iter_words())
        assert set(plain.iter_words()) == words
        assert track.root.minlen == min((len(w) for w in words), default=NO_WORDS)

    for _ in range(60):
        if stack and (len(stack) >= 8 or rng.random() < 0.4):
            undo_both()
        else:
            v, b = rng.randint(1, n), rng.randint(0, 1)
            fast = rng.choice([False, True])
            stack.append((plain.set_variable(v, b, fast), track.set_variable(v, b, fast)))
        check()
    while stack:
        undo_both()
        check()
    assert sorted(decode(track)) == sorted(d.terms)


def test_fast_restriction_of_an_absent_literal_leaves_the_node_gauge_alone():
    # x1 heads no term: the re-root side roots on a fresh empty node, which
    # stands in for the root it hides and so is not counted
    tt = TermTrie.from_dnf(Dnf(3, ((2,), (3,))), counter=StepCounter())
    assert tt.node_count == tt.counter.nodes == 3
    for _ in range(3):
        tt.undo(tt.set_variable(1, 1, fast=True))
        assert tt.node_count == tt.counter.nodes == 3
    assert sorted(decode(tt)) == [(2,), (3,)]


@pytest.mark.parametrize("fast,steps", [(False, 3), (True, 1)], ids=["detach", "reroot"])
def test_bare_literal_absorbs_at_fixed_charges(fast, steps):
    """x1 := 1 on {x1, x2 x3} leaves a lone empty-word root on both sides:
    the detach side charges its two probes and the absorption, the re-root
    side its one probe.  At that tautology root a restriction charges
    nothing and changes nothing, and counts_for charges its two probes.
    Undo gives back the words, the counts and the node gauge."""
    tt = TermTrie.from_dnf(Dnf(3, [(1,), (2, 3)]), counter=StepCounter())
    ctr = tt.counter
    before = node_table(tt), tt.node_count, ctr.nodes
    n0 = ctr.n
    token = tt.set_variable(1, 1, fast)
    assert ctr.n - n0 == steps
    assert node_table(tt) == {(): (True, 1, 0, None, set())}
    assert (tt.node_count, ctr.nodes) == before[1:]
    for v, b in [(2, 0), (2, 1), (3, 1)]:
        n0 = ctr.n
        assert tt.set_variable(v, b, fast) == []
        assert ctr.n == n0
        assert tt.counts_for(v) == (0, 0, 1)
        assert ctr.n - n0 == 2
    tt.undo(token)
    assert (node_table(tt), tt.node_count, ctr.nodes) == before
    assert sorted(decode(tt)) == [(1,), (2, 3)]


def test_release_takes_a_trie_off_the_gauge():
    ctr = StepCounter()
    keep = TermTrie.from_dnf(Dnf(3, ((1, 2), (-3,))), counter=ctr)
    drop = TermTrie.from_dnf(Dnf(3, ((2, 3),)), counter=ctr)
    assert ctr.nodes == keep.node_count + drop.node_count == 7
    drop.release()
    assert drop.node_count == 0
    assert ctr.nodes == keep.node_count == 4


#: monotone-log restricts this one in its DFS and re-encodes subtrees on the way
MONO_DFS = generate("monotone", 18, 20, seed=23)
#: every term is wide at the root: monotone-log re-encodes it during setup
MONO_SETUP = generate("monotone", 12, 10, seed=1)
KDNF = generate("kdnf", 14, 40, k=3, seed=1)
#: x1 & x2 | x1 & x3: the block x1 = 0 of the first term keeps no term
KDNF_EMPTY_BLOCK = Dnf(3, ((1, 2), (1, 3)))
RANDOM = generate("random", 12, 20, seed=1)


@pytest.mark.parametrize(
    "factory, keeps_its_trie",
    [
        (lambda c: enum_avg(RANDOM, "t10", counter=c), True),
        (lambda c: enum_avg(RANDOM, "t11", counter=c), True),
        (lambda c: enum_monotone_avg(MONO_DFS, counter=c), True),
        (lambda c: enum_unions(generate("sets", 12, 8, seed=1), counter=c), True),
        (lambda c: enum_monotone_log(MONO_DFS, counter=c), True),
        (lambda c: enum_monotone_log(MONO_SETUP, counter=c), False),
        (lambda c: enum_kdnf(KDNF, counter=c), False),
        (lambda c: enum_kdnf_hybrid(KDNF, counter=c), False),
        (lambda c: enum_kdnf(KDNF_EMPTY_BLOCK, counter=c), False),
        (lambda c: enum_kdnf_hybrid(KDNF_EMPTY_BLOCK, counter=c), False),
    ],
    ids=[
        "avg-t10", "avg-t11", "monotone-avg", "setunion", "monotone-log-dfs",
        "monotone-log-setup", "kdnf", "kdnf-hybrid", "kdnf-empty-block", "kdnf-hybrid-empty-block",
    ],
)
def test_a_finished_run_leaves_only_the_tries_it_holds_on_the_gauge(factory, keeps_its_trie):
    # the DFS enumerators undo every restriction and keep the trie they
    # started with; kdnf drops each frame's trie, and monotone-log each
    # complement trie and, when it re-encodes during setup, the term trie
    seen = {}

    def spy(ctr):
        models = factory(ctr)
        seen["ctr"], seen["at_return"] = ctr, ctr.nodes
        return models

    _, stats = measure(spy, collect=False)
    assert stats.n_models > 0
    assert seen["ctr"].nodes == (seen["at_return"] if keeps_its_trie else 0)


# -- term tries ---------------------------------------------------------------


@given(dnfs(max_n=8, max_m=10))
def test_from_dnf_decode_round_trip(d):
    tt = TermTrie.from_dnf(d)
    assert sorted(decode(tt)) == sorted(d.terms)
    assert len(tt) == d.m


def test_set_variable_to_zero_dedups():
    d = Dnf(2, ((1,), (-1, 2), (2,)))
    tt = TermTrie.from_dnf(d)
    token = tt.set_variable(1, 0)
    assert decode(tt) == [(2,)]  # {x2} arrived from two sources, kept once
    tt.undo(token)
    assert sorted(decode(tt)) == sorted(d.terms)


def test_set_variable_to_one_gives_tautology():
    d = Dnf(2, ((1,), (-1, 2), (2,)))
    tt = TermTrie.from_dnf(d)
    tt.set_variable(1, 1)
    assert decode(tt) == [()]


def test_counts_for():
    # counts are root-level splits, so they apply to the branching variable
    d = Dnf(3, ((1,), (-1, 2), (2,), (-1, 3)))
    tt = TermTrie.from_dnf(d)
    assert tt.counts_for(1) == (2, 1, 1)
    tt.set_variable(1, 0)  # keeps {(2,), (3,)} as the live terms
    assert tt.counts_for(2) == (0, 1, 1)


@given(dnfs(max_n=8, max_m=10), st.integers(0, 1))
def test_set_variable_matches_restrict(d, b):
    tt = TermTrie.from_dnf(d)
    token = tt.set_variable(1, b)
    assert set(decode(tt)) == set(restrict(d, {1: b}).terms)
    tt.undo(token)
    assert set(decode(tt)) == set(d.terms)


@settings(max_examples=200)
@given(dnfs(max_n=8, max_m=10))
def test_set_variable_fast_equivalent(d):
    a = TermTrie.from_dnf(d)
    b = TermTrie.from_dnf(d)
    ta = a.set_variable(1, 1)
    tb = b.set_variable(1, 1, fast=True)
    assert sorted(decode(a)) == sorted(decode(b))
    a.undo(ta)
    b.undo(tb)
    assert sorted(decode(a)) == sorted(decode(b)) == sorted(d.terms)


@given(dnfs(max_n=7, max_m=9), st.data())
def test_restriction_walk_with_undo(d, data):
    """A random walk of set/undo always mirrors conftest.restrict."""
    tt = TermTrie.from_dnf(d, track_minlen=True)
    stack: list[tuple] = []
    tau: dict[int, int] = {}
    next_var = 1
    for _ in range(12):
        going_down = next_var <= d.n and (not stack or data.draw(st.booleans()))
        if going_down:
            b = data.draw(st.integers(0, 1))
            fast = b == 1 and data.draw(st.booleans())
            token = tt.set_variable(next_var, b, fast)
            stack.append((token, next_var, b))
            tau[next_var] = b
            next_var += 1
        elif stack:
            token, v, _ = stack.pop()
            tt.undo(token)
            del tau[v]
            next_var = v
        assert set(decode(tt)) == set(restrict(d, tau).terms)
        if tt.root.count:
            assert tt.root.minlen == min(len(t) for t in decode(tt))


def test_undo_is_lifo_only():
    d = Dnf(3, ((1, 2), (-1, 3)))
    tt = TermTrie.from_dnf(d)
    t1 = tt.set_variable(1, 1)
    t2 = tt.set_variable(2, 0)
    tt.undo(t2)
    tt.undo(t1)
    assert set(decode(tt)) == set(d.terms)
