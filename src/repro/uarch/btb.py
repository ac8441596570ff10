"""Branch Target Buffer with NightVision update semantics.

The paper's §5.3 channel rests on two BTB behaviours established by
NightVision (Yu et al., ISCA'23) and BunnyHop (Zhang et al., USENIX
Sec'23) on the evaluated machine:

1. Entries are indexed/tagged by the **lower 32 bits of the PC**, so an
   instruction placed exactly 4 GiB away from a victim instruction
   collides with it.
2. Both control-transfer *and* non-control-transfer instructions update
   the BTB on retirement: a control transfer (re)allocates an entry with
   its target; any other instruction that collides with an existing
   entry **invalidates** it (the frontend discovers the predicted
   "branch" is not a branch).
3. A valid entry causes the instruction prefetcher to fetch the
   predicted target's line ahead of time (this is what the Train+Probe
   gadget converts into a cache-timing signal).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

PC_INDEX_MASK = (1 << 32) - 1


@dataclass
class BtbEntry:
    """One predicted control transfer."""

    source_pc: int
    target: int
    valid: bool = True


class Btb:
    """Per-core BTB keyed by the low 32 bits of the source PC.

    ``capacity`` bounds the number of live entries; allocation beyond it
    evicts the oldest entry (FIFO), which is a coarse but sufficient
    stand-in for the real replacement policy: the attacks allocate a
    handful of entries and only care about targeted collisions.
    """

    def __init__(self, capacity: int = 4096):
        self.capacity = capacity
        self._entries: Dict[int, BtbEntry] = {}
        self.invalidations = 0
        self.allocations = 0

    @staticmethod
    def index_of(pc: int) -> int:
        return pc & PC_INDEX_MASK

    # ------------------------------------------------------------------
    # Update paths (called on instruction retirement/execution)
    # ------------------------------------------------------------------
    def on_control_transfer(self, pc: int, target: int) -> None:
        """A taken control transfer at ``pc`` (re)allocates its entry."""
        idx = self.index_of(pc)
        if idx not in self._entries and len(self._entries) >= self.capacity:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
        self._entries[idx] = BtbEntry(source_pc=pc, target=target)
        self.allocations += 1

    def on_plain_instruction(self, pc: int) -> None:
        """A non-control-transfer instruction at ``pc`` invalidates any
        colliding entry (NightVision behaviour)."""
        entry = self._entries.get(self.index_of(pc))
        if entry is not None and entry.valid:
            entry.valid = False
            self.invalidations += 1

    # ------------------------------------------------------------------
    # Prediction / probing
    # ------------------------------------------------------------------
    def predict(self, pc: int) -> Optional[int]:
        """Predicted target for a fetch at ``pc``, or None.

        Only a *valid* entry produces a prediction (and therefore a
        target-line prefetch).
        """
        entry = self._entries.get(self.index_of(pc))
        if entry is not None and entry.valid:
            return entry.target
        return None

    def entry_at(self, pc: int) -> Optional[BtbEntry]:
        """Raw entry access for tests/diagnostics."""
        return self._entries.get(self.index_of(pc))

    def flush(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)
