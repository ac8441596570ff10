"""Host speed, measured next to every timed piece of work.

A shared host changes speed by tens of percent within minutes
(frequency scaling, contention on sibling hardware threads), and that
drift moves CPU time exactly as a code change would.  So the benchmark
times a fixed pure-Python loop after every cell all through a run and
scales the run's CPU times by ``NOMINAL_S / (median loop time)``: the
result is the CPU time the work would take on a host where the loop
takes ``NOMINAL_S``.  One factor per run, from the median of many
samples, follows the host's speed in that run without letting a single
stalled sample rescale a cell.  The loop is a pointer chase through a
few MB of Python objects: of the loops tried, its speed followed the
simulator's most closely as the host's speed changed.  It uses only the
interpreter and must never change, or old and new results stop
comparing.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import List

#: CPU seconds the reference loop takes on the nominal host.
NOMINAL_S = 0.004

_CHAIN_LENGTH = 50_000
_STEPS = 20_000


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value
        self.next = None


_chain: List[_Node] = []


def _chain_head() -> _Node:
    """A linked list threaded through a shuffled array of nodes, built
    once (a few MB): walking it misses the CPU caches the way the
    simulator's dicts and object graphs do."""
    if not _chain:
        nodes = [_Node(i, i) for i in range(_CHAIN_LENGTH)]
        order = list(range(_CHAIN_LENGTH))
        random.Random(0).shuffle(order)
        for here, there in zip(order, order[1:]):
            nodes[here].next = nodes[there]
        _chain.append(nodes[order[0]])
        _chain.extend(nodes)
    return _chain[0]


def reference() -> int:
    """The fixed yardstick workload: a pointer chase through the chain."""
    head = node = _chain_head()
    total = 0
    for _ in range(_STEPS):
        total += node.value
        node = node.next or head
    return total


def sample() -> float:
    """CPU seconds of one run of :func:`reference`."""
    start = time.process_time()
    reference()
    return time.process_time() - start


class Yardstick:
    """Reference samples taken between pieces of work."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.mark()

    def mark(self) -> None:
        """Take a sample now."""
        self.samples.append(sample())

    def factor(self) -> float:
        """Nominal seconds per CPU second of this run's host."""
        return NOMINAL_S / statistics.median(self.samples)

    def median_ms(self) -> float:
        return statistics.median(self.samples) * 1e3
