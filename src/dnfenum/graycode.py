"""Reflected Gray-code walks over the free variables of a term.

A term with k literals over n variables has 2^(n-k) models.  Starting from
the model where every free variable is 0, each subsequent model differs in
exactly one free variable, so emitting a model costs 4 counted steps
instead of about n: 2 for the flip and 2 for charging a one-bit output.
The flip schedule is the standard reflected one: after i models the next
flip lands on slot trailing_zeros(i+1).

A walk holds the shift amount of each free variable (its bit is
``1 << shift``) and builds the single-bit mask of slot j only when the walk
first reaches it, at output 2^j, so a walk that has made c outputs holds
about log2(c) masks however wide the alphabet is.  Once nothing else runs
between outputs, :meth:`GrayState.runs` hands out the rest of the walk as
runs, whose contract :mod:`dnfenum.instrument` states;
:func:`enum_term_models` and the kdnf frames both end that way.  A
:class:`GrayRun` holds its walk, its position and the masks just before and
at its end.  Runs end on multiples of SINK_BLOCK in walk index, so the
flips lines of a run are a slice of one pattern per walk plus at most one
line at the block's end (:meth:`GrayRun.flips_text`).
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator

from .core import Dnf, Term
from .instrument import SINK_BLOCK, Models, StepCounter

#: SINK_BLOCK == 2^LOG_BLOCK: inside a block of outputs aligned to it,
#: every flip but the last lands on one of the first LOG_BLOCK slots
LOG_BLOCK = SINK_BLOCK.bit_length() - 1


class GrayState:
    """Resumable Gray walk: a current mask plus per-slot shift amounts.

    Callers emit ``mask`` first, then call advance() or runs() until
    remaining() is 0.  Keeping the walk as plain state (rather than a
    generator) lets the budgeted enumerators suspend one walk, do other
    work, and resume it.
    """

    __slots__ = ("mask", "shifts", "bits", "i", "_pattern")

    def __init__(self, start_mask: int, shifts: list[int]):
        self.mask = start_mask
        self.shifts = shifts
        # bits[j] == 1 << shifts[j], for the slots reached so far
        self.bits: list[int] = []
        self.i = 0
        self._pattern: tuple[str, list[int]] | None = None

    def remaining(self) -> int:
        return (1 << len(self.shifts)) - 1 - self.i

    def _reach(self, i: int) -> None:
        """Build the slot masks that the flips up to output i use."""
        bits = self.bits
        while len(bits) < i.bit_length():
            bits.append(1 << self.shifts[len(bits)])

    def advance(self, ctr: StepCounter) -> int:
        """The next model, charged the 2 steps of its flip."""
        ctr.n += 2
        i = self.i = self.i + 1
        self._reach(i)
        self.mask ^= self.bits[(i & -i).bit_length() - 1]
        return self.mask

    def runs(self) -> Iterator[GrayRun]:
        """The rest of the walk as runs, not yet charged.  Each run ends at
        the next multiple of SINK_BLOCK in walk index, or at the walk's end."""
        while left := self.remaining():
            i = self.i
            run = GrayRun(self, i, min(left, SINK_BLOCK - i % SINK_BLOCK), self.mask)
            self.i = i + run.k
            self.mask = run.last
            yield run

    def pattern(self, n: int) -> tuple[str, list[int]]:
        """The flips lines of outputs 1 .. 2^s - 1, s = min(slots, LOG_BLOCK),
        and the length of the line of each of those s slots.

        Output i flips slot tz(i), so the lines of outputs 1 .. 2^(j+1) - 1
        are those of 1 .. 2^j - 1, the line of output 2^j, and those of
        1 .. 2^j - 1 again.  Built once per walk, for its n.
        """
        if self._pattern is None:
            lines = [f"{n - shift}\n" for shift in self.shifts[:LOG_BLOCK]]
            text = ""
            for line in lines:
                text = text + line + text
            self._pattern = (text, [len(line) for line in lines])
        return self._pattern


def _masks(mask: int, bits: list[int], i: int, k: int) -> list[int]:
    """Outputs i+1 .. i+k of a walk that stands at mask after output i."""
    out = []
    append = out.append
    for i in range(i + 1, i + k + 1):
        mask ^= bits[(i & -i).bit_length() - 1]
        append(mask)
    return out


class GrayRun:
    """Outputs i+1 .. i+k of a Gray walk, inside one SINK_BLOCK-aligned block.

    Holds no masks: ``prev`` is the walk's mask after output i (the model
    handed out just before the run) and ``last`` the one after output i+k,
    found in closed form; iterating makes the masks in between on demand.
    """

    __slots__ = ("walk", "i", "k", "prev", "last")

    def __init__(self, walk: GrayState, i: int, k: int, prev: int):
        self.walk = walk
        self.i = i
        self.k = k
        self.prev = prev
        walk._reach(i + k)
        # the reflected codes of outputs i and i+k differ in exactly the
        # slots that the flips in between leave flipped
        code = (i ^ i >> 1) ^ ((i + k) ^ (i + k) >> 1)
        bits = walk.bits
        while code:
            low = code & -code
            prev ^= bits[low.bit_length() - 1]
            code ^= low
        self.last = prev

    def __len__(self) -> int:
        return self.k

    def __iter__(self) -> Iterator[int]:
        return iter(_masks(self.prev, self.walk.bits, self.i, self.k))

    def cut(self, k: int) -> GrayRun:
        """The run of the first k (< len) of these models."""
        return GrayRun(self.walk, self.i, k, self.prev)

    def flips_text(self, n: int) -> str:
        """The flips lines of the run's models, one per model, from the
        walk's pattern: all lines but the one at a block boundary."""
        walk = self.walk
        text, lens = walk.pattern(n)
        end = self.i + self.k
        a = _offset(self.i % SINK_BLOCK, lens)
        if end % SINK_BLOCK:
            return text[a:_offset(end % SINK_BLOCK, lens)]
        return f"{text[a:]}{n - walk.shifts[(end & -end).bit_length() - 1]}\n"


def _offset(r: int, lens: list[int]) -> int:
    """Length of the pattern's first r lines: of outputs 1 .. r, the
    ((r >> t) + 1) >> 1 with tz t flip slot t."""
    return sum((((r >> t) + 1) >> 1) * size for t, size in enumerate(lens))


def term_start_mask(t: Term, n: int, ctr: StepCounter) -> tuple[int, list[int]]:
    """First model of a term (free variables all 0) and the free shifts."""
    mask = 0
    fixed = set()
    for lit in t:
        v = lit if lit > 0 else -lit
        fixed.add(v)
        if lit > 0:
            mask |= 1 << (n - v)
    free = [n - v for v in range(1, n + 1) if v not in fixed]
    ctr.n += n + 1
    return mask, free


def enum_term_models(t: Term, n: int, *, counter: StepCounter | None = None) -> Models:
    """Enumerate all models of a single term in Gray order.

    The start mask is assembled and charged before the iterator is handed
    back, so every delay afterwards is a constant number of counted steps:
    each model after the first comes in a run at RUN_PRICE.
    """
    ctr = counter if counter is not None else StepCounter()
    start, free = term_start_mask(t, n, ctr)
    ctr.charge_output(start, n)
    gs = GrayState(start, free)
    return Models(chain((gs.mask,), gs.runs()), ctr)


def enum_single_term_dnf(d: Dnf, *, counter: StepCounter | None = None) -> Models:
    """Gray enumeration for a formula that is a single term (m must be 1)."""
    if d.m != 1:
        raise ValueError(f"need exactly one term, got {d.m}")
    return enum_term_models(d.terms[0], d.n, counter=counter)
