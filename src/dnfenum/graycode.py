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
runs (see :mod:`dnfenum.instrument`), lists of models made in one loop and
charged RUN_PRICE each; :func:`enum_term_models` and the kdnf frames both
end that way.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator

from .core import Dnf, Term
from .instrument import SINK_BLOCK, Models, StepCounter


class GrayState:
    """Resumable Gray walk: a current mask plus per-slot shift amounts.

    Callers emit ``mask`` first, then call advance(), take() or runs()
    until remaining() is 0; take() is the one flip loop under all three.
    Keeping the walk as plain state (rather than a generator) lets the
    budgeted enumerators suspend one walk, do other work, and resume it.
    """

    __slots__ = ("mask", "shifts", "bits", "i")

    def __init__(self, start_mask: int, shifts: list[int]):
        self.mask = start_mask
        self.shifts = shifts
        # bits[j] == 1 << shifts[j], for the slots reached so far
        self.bits: list[int] = []
        self.i = 0

    def remaining(self) -> int:
        return (1 << len(self.shifts)) - 1 - self.i

    def take(self, k: int) -> list[int]:
        """The next k models (k <= remaining()), with no step charged: the
        caller prices them."""
        i = self.i
        bits = self.bits
        # the flips up to output i + k reach slots below its bit length
        while len(bits) < (i + k).bit_length():
            bits.append(1 << self.shifts[len(bits)])
        mask = self.mask
        out = []
        append = out.append
        for i in range(i + 1, i + k + 1):
            mask ^= bits[(i & -i).bit_length() - 1]
            append(mask)
        self.i = i
        self.mask = mask
        return out

    def advance(self, ctr: StepCounter) -> int:
        """The next model, charged the 2 steps of its flip."""
        ctr.n += 2
        return self.take(1)[0]

    def runs(self) -> Iterator[list[int]]:
        """The rest of the walk as runs of up to SINK_BLOCK models, not yet charged."""
        while left := self.remaining():
            yield self.take(min(left, SINK_BLOCK))


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
