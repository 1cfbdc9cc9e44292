"""Reflected Gray-code walks over the free variables of a term.

A term with k literals over n variables has 2^(n-k) models.  Starting from
the model where every free variable is 0, each subsequent model differs in
exactly one free variable, so emitting a model costs a couple of counted
steps instead of n.  The flip schedule is the standard reflected one: after
i models the next flip lands on slot trailing_zeros(i+1).
"""

from __future__ import annotations

from typing import Sequence

from .core import Dnf, Term
from .instrument import StepCounter


class GrayState:
    """Resumable Gray walk: a current mask plus per-slot flip bits.

    Callers emit ``mask`` first, then call advance() up to 2^f - 1 times.
    Keeping the walk as plain state (rather than a generator) lets the
    budgeted enumerators suspend one walk, do other work, and resume it.
    """

    __slots__ = ("mask", "free_bits", "i", "total")

    def __init__(self, start_mask: int, free_bits: Sequence[int]):
        self.mask = start_mask
        self.free_bits = list(free_bits)
        self.i = 0
        self.total = 1 << len(self.free_bits)

    def remaining(self) -> int:
        return self.total - 1 - self.i

    def advance(self, ctr: StepCounter) -> int:
        i = self.i + 1
        self.mask ^= self.free_bits[(i & -i).bit_length() - 1]
        self.i = i
        ctr.n += 2
        return self.mask


def term_start_mask(t: Term, n: int, ctr: StepCounter) -> tuple[int, list[int]]:
    """First model of a term (free variables all 0) and the free flip bits."""
    mask = 0
    fixed = 0
    for lit in t:
        v = lit if lit > 0 else -lit
        bit = 1 << (n - v)
        fixed |= bit
        if lit > 0:
            mask |= bit
    free = [1 << (n - v) for v in range(1, n + 1) if not fixed & (1 << (n - v))]
    ctr.n += n + 1
    return mask, free


def enum_term_models(t: Term, n: int, *, counter: StepCounter | None = None):
    """Enumerate all models of a single term in Gray order.

    The start mask is assembled before the generator is handed back, so
    every delay afterwards is a constant number of counted steps.
    """
    ctr = counter if counter is not None else StepCounter()
    start, free = term_start_mask(t, n, ctr)
    gs = GrayState(start, free)

    def gen():
        yield gs.mask
        while gs.i < gs.total - 1:
            yield gs.advance(ctr)

    return gen()


def enum_single_term_dnf(d: Dnf, *, counter: StepCounter | None = None):
    """Gray enumeration for a formula that is a single term (m must be 1)."""
    if d.m != 1:
        raise ValueError(f"need exactly one term, got {d.m}")
    return enum_term_models(d.terms[0], d.n, counter=counter)
