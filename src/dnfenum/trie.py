"""Tries over small integer alphabets.

Words are tuples of symbols.  Every node keeps its children in one layout: a
lone child sits in two plain fields (``s0``/``k0``), and once a second child
arrives all of them move into one dict keyed by symbol, which keeps
insertion order.  Long unary chains, the common case in term tries, thus
cost no dict.  Child operations are O(1) whatever the alphabet, and a
node's memory grows with its number of children, not with the alphabet.

Every node carries the number of words in its subtree, which is what the
enumeration algorithms read to decide how to branch.  The one in-place
restriction is strip(s, drop): strip s from the words that start with it
and drop the words that start with drop, by one of two sides.  The detach
side detaches child(drop) and child(s) and merges child(s)'s words in at
the root; the re-root side makes child(s) the root and merges the old
root's other words into it.  Left to choose, strip moves the smaller side.
On a :class:`TermTrie` the empty word is the empty term, which absorbs
every other, and set_variable(v, b) is strip on the literal ranks of v.
Each restriction returns an undo token; applying tokens in LIFO order
restores the exact prior word set.

The merge is one walk over the moved subtree (the source) and the trie
(the target) together.  Where the target already has the child, the walk
descends into it (a collision): it adds the source's word count to the
target's and takes one back for each word that was already there.  Where
the target lacks the child, the source subtree is linked in as it stands (a
graft), shared and not copied.  Sharing is safe because the source is
detached, or hangs off an old root that is no longer reachable, so only
the merge's undo reads it again, and every later mutation is undone before
that (LIFO).

Undoing a merge is one op: it pops the grafts and puts back the count,
minlen, word flag and payload of each node the walk collided with, from a
snapshot taken at merge time.  Steps are charged as if every moved word
were inserted from the root: the paper's cost model.  The undo costs the
same on every trie: the sum over the fresh words of len(w) + 1, plus the
nodes the merge made; minlen comes back from the snapshot at no charge of
its own.  A grafted subtree is priced as the copy it replaces, and
StepCounter.nodes counts its nodes as made, so peak_aux_memory_estimate is
that of the copying merge while the real allocation is lower.  A trie's
nodes stay on that gauge until release(), which its owner calls when it
drops the trie.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .core import Dnf, lit_index
from .instrument import StepCounter

#: "no words below" sentinel for minlen tracking
NO_WORDS = 1 << 30


class _Node:
    __slots__ = ("s0", "k0", "kids", "word", "count", "minlen", "data")

    def __init__(self) -> None:
        self.s0 = -1
        self.k0 = None
        self.kids = None
        self.word = False
        self.count = 0
        self.minlen = NO_WORDS
        self.data = None


def _subtree_size(node: _Node) -> tuple[int, int]:
    """(nodes, sum of the counts below node) of a subtree about to be grafted."""
    nodes = below = 0
    stack = [node]
    while stack:
        nd = stack.pop()
        nodes += 1
        below += nd.count
        if nd.s0 >= 0:
            stack.append(nd.k0)
        elif nd.kids:
            stack.extend(nd.kids.values())
    return nodes, below - node.count


class Trie:
    #: whether the empty word absorbs every other (a DNF's empty term)
    absorbs = False

    def __init__(
        self,
        alphabet: int,
        counter: StepCounter | None = None,
        track_minlen: bool = False,
    ):
        self.alphabet = alphabet
        self.counter = counter if counter is not None else StepCounter()
        self.track_minlen = track_minlen
        self.root = _Node()
        self.node_count = 0
        self._grow(1)

    def __len__(self) -> int:
        return self.root.count

    def _grow(self, k: int) -> None:
        """Count k more nodes (fewer, for k < 0) here and on the counter's gauge."""
        self.node_count += k
        self.counter.nodes += k

    def release(self) -> None:
        """Take this trie off the counter's node gauge; its owner drops it."""
        self._grow(-self.node_count)

    # -- child plumbing ----------------------------------------------------

    def _get(self, node: _Node, s: int) -> _Node | None:
        if node.s0 == s:
            return node.k0
        kids = node.kids
        return kids.get(s) if kids is not None else None

    def _put(self, node: _Node, s: int, child: _Node) -> None:
        kids = node.kids
        if kids is None:
            if node.s0 < 0:
                node.s0 = s
                node.k0 = child
                return
            # second child: all children move into the dict
            kids = node.kids = {node.s0: node.k0}
            node.s0 = -1
            node.k0 = None
        kids[s] = child

    def _pop_child(self, node: _Node, s: int) -> _Node | None:
        if node.s0 == s:
            k = node.k0
            node.s0 = -1
            node.k0 = None
        elif node.kids is None or (k := node.kids.pop(s, None)) is None:
            return None
        return k

    def _min_sym(self, node: _Node) -> int | None:
        """The smallest child symbol of node, or None if it has no children."""
        if node.s0 >= 0:
            return node.s0
        return min(node.kids) if node.kids else None

    def _child_items(self, node: _Node) -> Iterable[tuple[int, _Node]]:
        if node.s0 >= 0:
            return ((node.s0, node.k0),)
        return node.kids.items() if node.kids else ()

    def _recalc_minlen(self, node: _Node) -> None:
        m = 0 if node.word else NO_WORDS
        for _, kid in self._child_items(node):
            self.counter.n += 1
            if kid.minlen + 1 < m:
                m = kid.minlen + 1
        node.minlen = m

    # -- word operations ---------------------------------------------------

    def _check_word(self, word: Sequence[int]) -> None:
        for s in word:
            if not 0 <= s < self.alphabet:
                raise ValueError(f"symbol {s} outside alphabet of size {self.alphabet}")

    def insert(self, word: Sequence[int]) -> bool:
        """Add a word; returns False if it was already present."""
        node, _ = self.insert_get(word)
        return node is not None

    def insert_get(self, word: Sequence[int]) -> tuple[_Node | None, _Node]:
        """Like insert, but returns (leaf-if-new-else-None, leaf).

        Walks the prefix already in the trie, then builds the missing suffix
        as one chain from its leaf up and links it in once.  Charges
        len(word) + 1 plus one per node made.
        """
        self._check_word(word)
        track = self.track_minlen
        total = len(word)
        node = self.root
        path = [node]
        i = 0
        while i < total:
            nxt = self._get(node, word[i])
            if nxt is None:
                break
            node = nxt
            path.append(node)
            i += 1
        made = total - i
        self.counter.n += total + 1 + made
        if made:
            leaf = top = _Node()
            leaf.word = True
            leaf.count = 1
            if track:
                leaf.minlen = 0
            for j in range(total - 1, i, -1):  # the chain node at depth j
                up = _Node()
                up.s0 = word[j]
                up.k0 = top
                up.count = 1
                if track:
                    up.minlen = total - j
                top = up
            self._put(node, word[i], top)
            self._grow(made)
        elif node.word:
            return None, node
        else:
            node.word = True
            leaf = node
        for p in path:
            p.count += 1
        if track:
            for d, p in enumerate(path):
                r = total - d
                if r < p.minlen:
                    p.minlen = r
        return leaf, leaf

    def iter_words(self, start: _Node | None = None) -> Iterator[tuple[int, ...]]:
        """All words in the subtree, as suffixes relative to `start`.

        Deterministic order: a word before its extensions, and each node's
        children in insertion order (a child detached and put back counts as
        inserted anew).  The empty word, if present, comes first.
        """
        ctr = self.counter
        node = self.root if start is None else start
        ctr.n += 1
        if node.word:
            yield ()
        stack = [iter(self._child_items(node))]
        syms: list[int] = []
        while stack:
            nxt = next(stack[-1], None)
            if nxt is None:
                stack.pop()
                if syms:
                    syms.pop()
                continue
            s, kid = nxt
            ctr.n += 1
            syms.append(s)
            if kid.word:
                yield tuple(syms)
            stack.append(iter(self._child_items(kid)))

    # -- strip and merge ---------------------------------------------------

    def detach(self, s: int, token: list) -> _Node | None:
        """Pop the root's child s, if any, and log its re-attach to token.

        Charges nothing; the caller prices the probe.  Returns the child.
        """
        root = self.root
        kid = self._pop_child(root, s)
        if kid is not None:
            root.count -= kid.count
            token.append(("detach", root, s, kid))
        return kid

    def strip(self, s: int, drop: int = -1, reroot: bool | None = None) -> list:
        """Strip s from the words that start with it and drop the words that
        start with drop (if drop >= 0), in place; returns an undo token.

        With reroot, child(s) becomes the root (a fresh empty one, off the
        node gauge, if absent) and the old root's words that start with
        neither s nor drop are merged into it.  Without it, child(drop) and
        child(s) are detached and child(s)'s words are merged in at the
        root.  None re-roots only when child(s) holds most of the words.
        Grafted subtrees stay shared with the detached child or the hidden
        old root, so undo tokens in LIFO order.  Leaf payload lists travel
        with their words, concatenated where two meet.  On a trie that
        absorbs, a root holding the empty word is left alone, and a bare
        word (s,) leaves a lone empty-word root, also off the gauge.
        Charges one step, plus on the detach side one for drop, the root's
        minlen recalculation and one for an absorption, and the merge as if
        each moved word were copied.
        """
        token: list = []
        root = self.root
        if root.word and self.absorbs:
            return token
        ctr = self.counter
        # the detach side pops child(s) below; look it up only to re-root
        # or to choose the side
        kid = None if reroot is False else self._get(root, s)
        if reroot is None:
            reroot = kid is not None and 2 * kid.count > root.count
        ctr.n += 1
        if not reroot:
            detached = False
            if drop >= 0:
                ctr.n += 1
                detached = self.detach(drop, token) is not None
            kid = self.detach(s, token)
            if (detached or kid is not None) and self.track_minlen:
                self._recalc_minlen(root)
        if kid is not None and kid.word and self.absorbs:
            # the bare word (s,) strips to the empty word, which absorbs
            # every other: a lone empty-word leaf becomes the root
            ctr.n += not reroot
            token.append(("root", root))
            leaf = self.root = _Node()
            leaf.word = True
            leaf.count = 1
            leaf.minlen = 0
        elif reroot:
            token.append(("root", root))
            self.root = kid if kid is not None else _Node()
            self._merge(root, token, (s, drop))
        elif kid is not None:
            self._merge(kid, token)
        return token

    def _merge(self, src: _Node, token: list, skip: tuple[int, ...] | None = None) -> None:
        """Merge the words below src into the root by collisions and grafts
        (see the module docstring), logging one undo op to token.

        With skip None, src is a detached node and is visited; otherwise it
        is the hidden old root, not visited, and its children in skip stay
        out.  Charges what inserting each moved word from the root in
        iter_words order would: one step per source node, len(w) + 1 per
        word and one per node made.  The op charges len(w) + 1 per fresh
        word and one per node made.
        """
        track = self.track_minlen
        items = self._child_items(src)
        if skip is None:
            cnt = src.count
            steps = 1
        else:
            items = [(t, k) for t, k in items if t not in skip]
            cnt = src.word + sum(k.count for _, k in items)
            if not cnt:
                return
            steps = 0
        # collision nodes as they were: (node, count, minlen, word, payload)
        cols: list[tuple] = []
        grafts: list[tuple[_Node, int]] = []  # (parent, symbol) of each graft
        made = 0  # nodes of the grafted subtrees
        undo = 0  # steps of the undo: the fresh words and the made nodes
        # collisions to walk: (target, source, depth, the pair above)
        pairs = [(self.root, src, 0, None)]
        while pairs:
            pair = pairs.pop()
            x, s, d, up = pair
            if d:
                cnt = s.count
                if s.s0 >= 0:
                    items = ((s.s0, s.k0),)
                else:
                    items = s.kids.items() if s.kids else ()
            cols.append((x, x.count, x.minlen, x.word, x.data))
            x.count += cnt
            if s.word:
                steps += d + 1
                if x.word:
                    # the word was already there: the counts took it twice
                    x.count -= 1
                    while up is not None:
                        up[0].count -= 1
                        up = up[3]
                    if s.data is not None:
                        x.data = x.data + s.data
                else:
                    x.word = True
                    undo += d + 1
                    if s.data is not None:
                        x.data = s.data
                    if track:
                        x.minlen = 0
            d += 1
            for t, c in items:
                steps += 1
                if track and c.minlen + 1 < x.minlen:
                    x.minlen = c.minlen + 1
                if x.s0 == t:
                    y = x.k0
                elif x.kids is not None:
                    y = x.kids.get(t)
                else:
                    y = None
                if y is not None:
                    pairs.append((y, c, d, pair))
                    continue
                self._put(x, t, c)
                grafts.append((x, t))
                if c.s0 < 0 and not c.kids:
                    nodes = 1
                    below = 0
                else:
                    nodes, below = _subtree_size(c)
                words = c.count * (d + 1) + below
                steps += 2 * nodes - 1 + words
                made += nodes
                undo += words + nodes
        self.counter.n += steps
        self._grow(made)
        token.append(("merge", cols, grafts, made, undo))

    # -- undo log ------------------------------------------------------------

    def undo(self, token: list) -> None:
        """Reverse one mutation token; tokens must unwind in LIFO order.

        Ops: ("merge", cols, grafts, made, steps) takes back one merge: it
        pops the grafted subtrees, puts back the count, minlen, word flag
        and payload of each node the walk collided with from the cols
        snapshot, and charges steps, fixed at merge time;
        ("detach", parent, sym, child) re-attaches a detached subtree;
        ("root", node) restores a previous root.
        """
        for op in reversed(token):
            tag = op[0]
            if tag == "merge":
                _, cols, grafts, made, steps = op
                for parent, s in grafts:
                    self._pop_child(parent, s)
                for x, count, minlen, word, data in cols:
                    x.count = count
                    x.minlen = minlen
                    x.word = word
                    x.data = data
                self._grow(-made)
                self.counter.n += steps
            elif tag == "detach":
                _, parent, s, child = op
                self._put(parent, s, child)
                parent.count += child.count
                self.counter.n += 1
                if self.track_minlen and child.minlen + 1 < parent.minlen:
                    parent.minlen = child.minlen + 1
            elif tag == "root":
                self.root = op[1]
            else:
                raise ValueError(f"bad undo op {tag!r}")


class TermTrie(Trie):
    """Trie of DNF terms encoded as canonical literal-rank words.

    The words of the trie are exactly the terms of the formula being
    restricted: root subtree counts for the literals of a variable give the
    three-way split (terms with the negated literal, with the positive one,
    with neither) that drives the branching enumerators.
    """

    absorbs = True

    def __init__(self, n: int, counter: StepCounter | None = None, track_minlen: bool = False):
        super().__init__(2 * n, counter=counter, track_minlen=track_minlen)
        self.n = n

    @classmethod
    def from_dnf(cls, d: Dnf, counter: StepCounter | None = None, track_minlen: bool = False) -> "TermTrie":
        tt = cls(d.n, counter=counter, track_minlen=track_minlen)
        for t in d.terms:
            tt.insert(tuple(map(lit_index, t)))
        return tt

    def counts_for(self, v: int) -> tuple[int, int, int]:
        """Subtree sizes (terms with -v, with v, with neither) at the root."""
        root = self.root
        a = self._get(root, 2 * v - 2)
        b = self._get(root, 2 * v - 1)
        self.counter.n += 2
        na = a.count if a is not None else 0
        nb = b.count if b is not None else 0
        return na, nb, root.count - na - nb

    def set_variable(self, v: int, b: int, fast: bool = False) -> list:
        """Restrict x_v := b in place: strip the satisfied literal (rank
        2v - 2 + b), drop the falsified one, re-rooting if fast.  Returns an
        undo token."""
        sat = 2 * v - 2 + b
        return self.strip(sat, sat ^ 1, fast)
