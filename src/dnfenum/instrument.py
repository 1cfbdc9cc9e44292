"""Step counting and delay measurement.

Wall-clock time is too noisy to validate delay guarantees, so every
enumerator counts abstract steps on a shared :class:`StepCounter`.  The
counter is incremented at a fixed set of points:

* each trie node visited or created,
* each bookkeeping counter update (falsified-literal counts, live-term
  counts, subtree sizes),
* each register/bit write while assembling an output (measured as the
  Hamming distance to the previously emitted model),
* each Gray code flip,
* each term comparison in direct term scans (weighted by term width).

Identical runs produce identical counts; nothing here reads the clock
except the informational wall_ns field.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, asdict
from typing import Callable, Iterator


class StepCounter:
    """Mutable step tally plus a coarse gauge of allocated trie nodes.

    It also remembers the last model charged through charge_output, so
    enumerators nested on one counter price their outputs as one stream.
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


#: most models measure() hands a sink in one call
SINK_BLOCK = 4096


def measure(
    factory: Callable[[StepCounter], Iterator[int]],
    limit: int | None = None,
    collect: bool = True,
    sink: Callable[[list[int]], None] | None = None,
) -> tuple[list[int], DelayStats]:
    """Run an enumerator to exhaustion (or `limit`) and record delay stats.

    `factory` receives a fresh StepCounter and must do its precomputation
    eagerly before returning the model iterator; the counter value at return
    time is recorded as precompute_steps.

    `sink`, if given, receives the models in order as nonempty lists of at
    most SINK_BLOCK masks: each full list as it fills, and the remainder once
    the run ends, whether by exhaustion or by `limit`.  Every model reaches
    the sink exactly once.  The list is cleared and refilled after each call,
    so a sink must copy what it wants to keep.  Sink calls sit outside the
    step accounting.
    """
    counter = StepCounter()
    t0 = time.perf_counter_ns()
    gen = factory(counter)
    pre = counter.n
    models: list[int] = []
    chunk: list[int] = []
    # every model joins the chunk, so it is full when n_models reaches this
    flush_at = SINK_BLOCK
    n_models = 0
    prev = pre
    max_delay = 0
    sum_delay = 0
    last_gap = 0
    peak = counter.nodes
    exhausted = True
    if limit is not None and limit <= 0:
        gen = iter(())
        exhausted = False
    for mask in gen:
        now = counter.n
        gap = now - prev
        prev = now
        last_gap = gap
        if gap > max_delay:
            max_delay = gap
        sum_delay += gap
        n_models += 1
        if collect:
            models.append(mask)
        if sink is not None:
            chunk.append(mask)
            if n_models == flush_at:
                sink(chunk)
                chunk.clear()
                flush_at += SINK_BLOCK
        if counter.nodes > peak:
            peak = counter.nodes
        if limit is not None and n_models >= limit:
            exhausted = False
            break
    if chunk:
        sink(chunk)
    if exhausted and n_models:
        tail = counter.n - prev
        sum_delay += tail
        # the final delay includes the teardown tail
        if tail:
            max_delay = max(max_delay, last_gap + tail)
    if counter.nodes > peak:
        peak = counter.nodes
    total = pre + sum_delay if n_models else counter.n
    stats = DelayStats(
        total_steps=total,
        n_models=n_models,
        max_delay_steps=max_delay,
        avg_delay_steps=(sum_delay / n_models) if n_models else 0.0,
        precompute_steps=pre if n_models else counter.n,
        wall_ns=time.perf_counter_ns() - t0,
        peak_aux_memory_estimate=peak,
    )
    return models, stats
