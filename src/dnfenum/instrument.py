"""Step counting and delay measurement.

Wall-clock time is too noisy to validate delay guarantees, so every
enumerator counts abstract steps on a shared :class:`StepCounter`.  The
counter is incremented at a fixed set of points:

* each trie node visited or created,
* each bookkeeping counter update (falsified-literal counts, live-term
  counts, subtree sizes),
* each output, by :meth:`StepCounter.charge_output`: the bits written
  (the Hamming distance to the previous output) plus one,
* each Gray code flip,
* each term comparison in direct term scans (weighted by term width).

Every enumerator charges every output through charge_output, or hands it
out in a run, whose fold below charges it the same.  Identical runs
produce identical counts; nothing here reads the clock except the
informational wall_ns field.

Runs.  A Gray walk with nothing else to do between its flips makes each
output at RUN_PRICE steps: 2 for the flip and 2 for charge_output's one-bit
change.  An enumerator may then yield a run in place of single masks: a
:class:`dnfenum.graycode.GrayRun`, a nonempty slice of at most SINK_BLOCK
consecutive outputs of one walk, not yet charged, that follows the model
its walk last handed out.  A run holds no list of masks: it has a length
and a last mask, makes its masks only when iterated, and can be cut to its
first k models.  Such an enumerator returns a :class:`Models`, whose
``items`` is the raw stream of int masks and runs: every item that is not
an int is a run.  Iterating a Models gives plain int masks and charges
each run output on the counter as it is handed out, so a caller that
iterates sees exactly the per-output counter values of an enumerator that
charged every output itself.  :func:`measure` reads ``items`` instead and
folds each run into its tallies from its length and last mask alone.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, asdict
from typing import Callable, Iterable, Iterator


class StepCounter:
    """Mutable step tally plus a coarse gauge of allocated trie nodes (or
    frontier entries and stored models, for enumerators that hold no trie).

    charge_output remembers the last model charged, so enumerators nested
    on one counter price their outputs as one stream.
    """

    __slots__ = ("n", "nodes", "last")

    def __init__(self) -> None:
        self.n = 0
        self.nodes = 0
        self.last = None

    def charge_output(self, mask: int, n: int) -> None:
        """Charge one output of n variables: the bits that differ from the
        last output (all n for the first), plus one step."""
        last = self.last
        self.n += (n if last is None else (mask ^ last).bit_count()) + 1
        self.last = mask

    def __repr__(self) -> str:
        return f"StepCounter(n={self.n}, nodes={self.nodes})"


@dataclass(frozen=True)
class DelayStats:
    """Summary of one measured enumeration run.

    Delays are measured in instrumented steps between consecutive outputs;
    precompute_steps covers everything before the enumerator can yield its
    first model and is excluded from the delays.  Steps spent after the last
    output (tearing the search back down) are folded into the final delay,
    so total_steps == precompute_steps + sum of all per-output delays.
    """

    total_steps: int
    n_models: int
    max_delay_steps: int
    avg_delay_steps: float
    precompute_steps: int
    wall_ns: int
    peak_aux_memory_estimate: int

    def to_json(self) -> str:
        return json.dumps(asdict(self))


#: most single masks measure() hands a sink in one list, and most models in
#: a run: runs end on its multiples in walk index
SINK_BLOCK = 4096


#: steps of each output in a run: a Gray flip (2) plus charge_output's
#: one-bit change (2)
RUN_PRICE = 4


def _flatten(items: Iterable, ctr: StepCounter) -> Iterator[int]:
    price = RUN_PRICE
    for item in items:
        if type(item) is int:
            yield item
        else:
            for mask in item:
                ctr.n += price
                ctr.last = mask
                yield mask


class Models:
    """An enumerator's models as an iterator of int masks, over its raw
    ``items`` stream (see the module docstring)."""

    __slots__ = ("items", "_flat")

    def __init__(self, items: Iterator, counter: StepCounter):
        self.items = items
        self._flat = _flatten(items, counter)

    def __iter__(self) -> Iterator[int]:
        return self._flat

    def __next__(self) -> int:
        return next(self._flat)


def measure(
    factory: Callable[[StepCounter], Iterator[int]],
    limit: int | None = None,
    collect: bool = True,
    sink: Callable[[Iterable[int]], None] | None = None,
) -> tuple[list[int], DelayStats]:
    """Run an enumerator to exhaustion (or `limit`) and record delay stats.

    `factory` receives a fresh StepCounter and must do its precomputation
    eagerly before returning the model iterator; the counter value at return
    time is recorded as precompute_steps.

    If the iterator is a :class:`Models`, its runs are folded in whole: with
    p = RUN_PRICE, the first output of a run of k models has the delay of
    the steps counted since the previous output plus p, each later one the
    delay p, the counter grows by k*p and remembers the run's last model,
    as if the k outputs had been charged one by one.  `limit` cuts a run at
    the exact model and charges only the part taken.  The stats equal those
    of iterating the Models one mask at a time.  measure() makes a run's
    masks only for `collect`; a sink makes them only if it iterates the run.

    `sink`, if given, receives the models in order, every model exactly
    once: the single masks as lists of at most SINK_BLOCK, each list handed
    on once it is full, before a run, or when the stream ends, whether by
    exhaustion or by `limit`; and each run whole (cut at `limit`), as the
    :class:`dnfenum.graycode.GrayRun` the enumerator made.  A sink may keep
    what it receives.  Sink calls sit outside the step accounting.
    """
    counter = StepCounter()
    t0 = time.perf_counter_ns()
    gen = factory(counter)
    pre = counter.n
    items = gen.items if type(gen) is Models else gen
    price = RUN_PRICE
    models: list[int] = []
    chunk: list[int] = []  # the single masks not yet handed on
    n_models = 0
    prev = pre
    max_delay = 0
    sum_delay = 0
    peak = counter.nodes
    if limit is not None and limit <= 0:
        items = ()

    def hand_on(block) -> None:
        if collect:
            models.extend(block)
        if sink is not None:
            sink(block)

    for item in items:  # an int mask, or a run when items is a Models stream
        if type(item) is int:
            now = counter.n
            gap = now - prev
            prev = now
            if gap > max_delay:
                max_delay = gap
            sum_delay += gap
            n_models += 1
            chunk.append(item)
            if len(chunk) == SINK_BLOCK:
                hand_on(chunk)
                chunk = []
        else:
            run = item
            k = len(run)
            if limit is not None and k > limit - n_models:
                k = limit - n_models
                run = run.cut(k)
            now = counter.n
            # the first output's delay, never below the price of each later one
            gap = now - prev + price
            if gap > max_delay:
                max_delay = gap
            sum_delay += gap + (k - 1) * price
            prev = counter.n = now + k * price
            counter.last = run.last
            if k > 1:
                gap = price
            n_models += k
            if chunk:
                hand_on(chunk)
                chunk = []
            hand_on(run)
        if counter.nodes > peak:
            peak = counter.nodes
        if limit is not None and n_models >= limit:
            break
    else:
        # the final delay, the last output's gap, includes the teardown tail
        tail = counter.n - prev
        sum_delay += tail
        if tail and n_models:
            max_delay = max(max_delay, gap + tail)
    if chunk:
        hand_on(chunk)
    if counter.nodes > peak:
        peak = counter.nodes
    stats = DelayStats(
        total_steps=pre + sum_delay if n_models else counter.n,
        n_models=n_models,
        max_delay_steps=max_delay,
        avg_delay_steps=(sum_delay / n_models) if n_models else 0.0,
        precompute_steps=pre if n_models else counter.n,
        wall_ns=time.perf_counter_ns() - t0,
        peak_aux_memory_estimate=peak,
    )
    return models, stats
