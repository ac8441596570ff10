"""Victim program abstraction.

A :class:`Program` exposes the dynamic instruction stream by index so
the execution engine can (a) retire instructions one at a time against
a deadline, (b) squash and later re-execute an in-flight instruction cut
off by an interrupt, and (c) peek *ahead* of the retirement point to
model speculative cache pollution (the "smear" of Fig 5.1).

Two concrete flavours cover every victim in the paper:

* :class:`TraceProgram` — a materialized list of instructions produced
  by actually running the algorithm (AES, base64, GCD).
* :class:`StraightlineProgram` — the §4.3 resolution victim: an
  unbounded loop of same-size instructions, synthesized on demand so an
  80 000-preemption experiment does not materialize millions of records.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.cpu.isa import Instruction, InstrKind
from repro.uarch.timing import cycles_to_ns


@dataclass(frozen=True)
class LoopProfile:
    """Steady-state description of a tight loop, enabling the executor
    to fast-forward whole iterations arithmetically once the loop's
    footprint is resident (all lines in L1I, all pages translated).

    ``cycles_per_loop`` assumes every fetch hits; the executor verifies
    residency before using it and falls back to per-instruction
    execution otherwise.
    """

    base_pc: int
    insts_per_loop: int
    line_addrs: Tuple[int, ...]
    page_vpns: Tuple[int, ...]
    cycles_per_loop: float
    #: Iterations available before the stream ends (None = unbounded).
    max_loops: Optional[int] = None


class Program(ABC):
    """Indexable dynamic instruction stream with a retirement cursor."""

    def __init__(self) -> None:
        self.retired = 0

    @abstractmethod
    def instruction_at(self, index: int) -> Optional[Instruction]:
        """The ``index``-th dynamic instruction, or None past the end."""

    @property
    def done(self) -> bool:
        return self.instruction_at(self.retired) is None

    def current(self) -> Optional[Instruction]:
        """The next instruction to retire."""
        return self.instruction_at(self.retired)

    def retire(self) -> None:
        self.retired += 1

    def retire_bulk(self, count: int) -> None:
        """Advance the retirement cursor by ``count`` instructions.

        The executor's arithmetic fast paths retire hundreds of uniform
        instructions per call; one addition replaces that many
        :meth:`retire` calls."""
        self.retired += count

    def reset(self) -> None:
        self.retired = 0

    @property
    def current_pc(self) -> Optional[int]:
        """PC the victim would resume at — what the paper's eBPF probe
        records at every schedule-in."""
        inst = self.current()
        return inst.pc if inst is not None else None

    def uniform_region_length(self, index: int) -> int:
        """Length of the uniform-cost run starting at ``index``.

        Returns how many consecutive instructions from ``index`` are
        plain single-cycle instructions on an already-warm line/page, so
        the executor may bulk-retire them arithmetically.  The default
        (0) disables the fast path; :class:`StraightlineProgram`
        overrides it.
        """
        return 0

    def loop_profile(self, index: int) -> Optional[LoopProfile]:
        """Steady-state loop description at ``index``, if the program is
        a tight loop (see :class:`LoopProfile`).  Default: none."""
        return None

    def steady_state(self, index: int) -> Optional[Tuple[LoopProfile, Optional[int]]]:
        """Slot-independent uniform-stream description at ``index``.

        Returns ``(steady_profile, insts_remaining)`` when *every*
        instruction from ``index`` onward costs exactly one base cycle
        once the loop footprint is resident — regardless of where inside
        the loop ``index`` falls.  ``insts_remaining`` is None for an
        unbounded stream.  The executor verifies residency before
        trusting the profile.  Default: none (no fast path).
        """
        return None

    #: Optional specialized arithmetic twin for the steady fast-forward
    #: (see :meth:`StraightlineProgram.steady_twin`).  ``None`` means
    #: the executor runs its generic twin loop instead.
    steady_twin = None


class TraceProgram(Program):
    """A finite, fully materialized instruction trace."""

    def __init__(self, instructions: List[Instruction], name: str = "trace"):
        super().__init__()
        self.name = name
        self.instructions = instructions

    def instruction_at(self, index: int) -> Optional[Instruction]:
        if 0 <= index < len(self.instructions):
            return self.instructions[index]
        return None

    def __len__(self) -> int:
        return len(self.instructions)

    def labels(self) -> List[str]:
        """Ground-truth labels in retirement order (analysis only)."""
        return [i.label for i in self.instructions if i.label]


class StraightlineProgram(Program):
    """Unbounded loop of same-byte-length instructions (§4.3 victim).

    The victim runs ``loop_bytes`` worth of ``inst_size``-byte NOPs and
    jumps back to the top.  Instruction count per preemption is then
    just the retired-index delta, exactly like the paper's PC-delta
    measurement.  ``total`` bounds the stream for experiments that want
    the victim to eventually exit (None = infinite).
    """

    def __init__(
        self,
        base_pc: int = 0x400000,
        inst_size: int = 4,
        loop_bytes: int = 4096,
        total: Optional[int] = None,
    ):
        super().__init__()
        if loop_bytes % inst_size:
            raise ValueError("loop_bytes must be a multiple of inst_size")
        self.base_pc = base_pc
        self.inst_size = inst_size
        self.loop_insts = loop_bytes // inst_size
        self.total = total
        # Instructions are a pure function of the loop slot, so memoize
        # them: an 80 000-preemption run asks for the same thousand
        # frozen records millions of times.
        self._slot_cache: List[Optional[Instruction]] = [None] * self.loop_insts
        self._steady_profile: Optional[LoopProfile] = None

    def instruction_at(self, index: int) -> Optional[Instruction]:
        if self.total is not None and index >= self.total:
            return None
        slot = index % self.loop_insts
        inst = self._slot_cache[slot]
        if inst is None:
            pc = self.base_pc + slot * self.inst_size
            if slot == self.loop_insts - 1:
                inst = Instruction(
                    pc=pc, kind=InstrKind.JMP, target=self.base_pc, size=self.inst_size
                )
            else:
                inst = Instruction(pc=pc, kind=InstrKind.NOP, size=self.inst_size)
            self._slot_cache[slot] = inst
        return inst

    def uniform_region_length(self, index: int) -> int:
        """Instructions until the next line boundary or loop-back jump.

        Within a cache line of NOPs every instruction costs exactly the
        base cycle once the line is resident, so the executor may retire
        the remainder of the current line in one step.  A region never
        starts at a line boundary: the boundary instruction must execute
        normally to warm the line (and possibly the page) first.
        """
        if self.total is not None and index >= self.total:
            return 0
        slot = index % self.loop_insts
        per_line = 64 // self.inst_size
        if slot % per_line == 0:
            return 0  # line boundary: must fetch normally first
        run = per_line - (slot % per_line)
        run = min(run, self.loop_insts - 1 - slot)  # stop before the jump
        if self.total is not None:
            run = min(run, self.total - index)
        return run if run > 0 else 0

    def loop_profile(self, index: int) -> Optional[LoopProfile]:
        """Whole-loop multiplies are valid from any loop-top index."""
        if index % self.loop_insts != 0:
            return None
        max_loops = None
        if self.total is not None:
            max_loops = (self.total - index) // self.loop_insts
            if max_loops < 1:
                return None
        steady = self._steady_profile
        if steady is None:
            loop_bytes = self.loop_insts * self.inst_size
            lines = tuple(range(self.base_pc, self.base_pc + loop_bytes, 64))
            pages = tuple(
                sorted({pc // 4096 for pc in range(self.base_pc,
                                                   self.base_pc + loop_bytes, 4096)}
                       | {(self.base_pc + loop_bytes - 1) // 4096})
            )
            steady = LoopProfile(
                base_pc=self.base_pc,
                insts_per_loop=self.loop_insts,
                line_addrs=lines,
                page_vpns=pages,
                cycles_per_loop=float(self.loop_insts),  # 1 cycle/inst, fetches hit
                max_loops=None,
            )
            self._steady_profile = steady
        if max_loops is None:
            return steady
        return LoopProfile(
            base_pc=steady.base_pc,
            insts_per_loop=steady.insts_per_loop,
            line_addrs=steady.line_addrs,
            page_vpns=steady.page_vpns,
            cycles_per_loop=steady.cycles_per_loop,
            max_loops=max_loops,
        )

    def steady_state(self, index: int) -> Optional[Tuple[LoopProfile, Optional[int]]]:
        """Every NOP (and the loop-back jump, predicted by its own BTB
        entry) costs one base cycle once the loop is resident, so the
        stream is uniform from *any* slot, not just the loop top."""
        if self.total is not None:
            remaining = self.total - index
            if remaining < 1:
                return None
        else:
            remaining = None
        profile = self.loop_profile(index - index % self.loop_insts)
        if profile is None:
            return None
        return profile, remaining

    def steady_twin(self, idx0: int, t: float, deadline: float,
                    per_inst: float, certified: Optional[int]):
        """Specialized arithmetic twin of the executor's steady
        fast-forward loop.

        Performs the *exact* float-accumulation sequence the generic
        twin in ``Core._try_steady_fast_forward`` would perform for this
        program — chunk-head additions, uniform-line bulk multiplies and
        whole-loop multiplies, in the same order — but with the loop
        structure (line length, loop length, stream bound) inlined as
        local integers instead of rediscovered through ``loop_profile``
        / ``uniform_region_length`` calls per cache line.  The generic
        twin *is* the hottest region of the tau-sweep profile; this
        method replaces ~70 Python method calls per preemption window
        with straight int/float arithmetic while staying bit-identical
        (EEVDF eligibility amplifies even ULP drift into different
        preemption counts).

        Returns ``(instructions, end_time_ns)`` or None, exactly like
        the generic loop.
        """
        loop_insts = self.loop_insts
        per_line = 64 // self.inst_size
        total = self.total
        per_loop = cycles_to_ns(float(loop_insts))
        two_loops = 2 * per_loop
        idx = idx0
        if total is None:
            # Unbounded stream (the §4.3 resolution victim) — the hot
            # case.  ``certified`` is always None here (steady_state
            # returns an unbounded remaining), so the stream-bound and
            # certification checks vanish; the loop slot is tracked
            # incrementally instead of recomputed as ``idx %
            # loop_insts`` (idx grows without bound, making that modulo
            # a long-int division); and the per-line deadline budget is
            # resolved with one float multiply in the common case — if
            # ``(run+1) * per_inst`` still fits in the window then
            # ``int(window / per_inst) >= run`` certainly holds (run is
            # tiny, so one spare per_inst dwarfs the rounding error of
            # correctly-rounded IEEE ops), and the division that the
            # reference performs would have returned ``bulk = run``
            # anyway.  Every ``t`` update below is operation-for-
            # operation the sequence the generic loop performs.
            last_bulk_slot = loop_insts - 1  # stop before the loop jump
            full_run = per_line - 1
            full_bulk = full_run * per_inst   # == run * per_inst, run full
            full_guard = per_line * per_inst  # == (run + 1) * per_inst
            # Conservative routing guard for the tight two-add loop
            # below: when the window still holds per_line + 3 base
            # instructions, the chunk head cannot straddle the deadline
            # and the full-line bulk guard certainly passes, so the
            # per-line decisions are forced and only the two float adds
            # remain.  Routing compares never touch ``t`` itself.
            tight_guard = (per_line + 3) * per_inst
            # Last line boundary whose bulk is still a full run (the
            # final line stops one short of the loop-back jump).
            last_tight = loop_insts - 2 * per_line
            slot = idx % loop_insts
            while t < deadline:
                if slot == 0:
                    window = deadline - t
                    if window >= two_loops:
                        loops = int(window / per_loop)
                        idx += loops * loop_insts
                        t += loops * per_loop
                        continue
                elif not slot % per_line:
                    # Tight loop over consecutive full warm lines: each
                    # line is exactly one chunk-head add plus one bulk
                    # add of the precomputed full-line product — the
                    # identical op pair the generic path performs when
                    # its (forced, see tight_guard above) decisions all
                    # take the full-line branch.  Slot never wraps here
                    # (last_tight keeps the loop-back jump line out).
                    while slot <= last_tight and deadline - t >= tight_guard:
                        t += per_inst
                        t += full_bulk
                        idx += per_line
                        slot += per_line
                t += per_inst  # chunk-head instruction (line warm)
                idx += 1
                slot += 1
                if slot == loop_insts:
                    slot = 0
                if t >= deadline:
                    break
                rem = slot % per_line
                if rem:
                    run = per_line - rem
                    stop = last_bulk_slot - slot
                    if run > stop:
                        run = stop
                    if run > 1:
                        if run == full_run and full_guard <= deadline - t:
                            # Full warm line with headroom: the two
                            # precomputed constants are the identical
                            # float products the generic ops produce.
                            idx += run
                            slot += run
                            t += full_bulk
                        elif (run + 1) * per_inst <= deadline - t:
                            idx += run
                            slot += run
                            t += run * per_inst
                        else:
                            budget = int((deadline - t) / per_inst)
                            bulk = (run if run < budget
                                    else (budget if budget > 0 else 0))
                            if bulk > 0:
                                idx += bulk
                                slot += bulk
                                t += bulk * per_inst
            count = idx - idx0
            if count < 1:
                return None
            return count, t
        while t < deadline:
            if idx % loop_insts == 0:
                max_loops = (total - idx) // loop_insts
                if max_loops >= 1:
                    window = deadline - t
                    if window >= two_loops:
                        loops = int(window / per_loop)
                        if loops > max_loops:
                            loops = max_loops
                        if loops >= 1:
                            idx += loops * loop_insts
                            t += loops * per_loop
                            continue
            if certified is not None and idx - idx0 >= certified:
                break
            t += per_inst  # chunk-head instruction (line warm: base cost)
            idx += 1
            if t >= deadline:
                break
            # uniform_region_length(idx), inlined
            if idx >= total:
                run = 0
            else:
                slot = idx % loop_insts
                rem = slot % per_line
                if rem == 0:
                    run = 0
                else:
                    run = per_line - rem
                    stop = loop_insts - 1 - slot
                    if run > stop:
                        run = stop
                    if run > total - idx:
                        run = total - idx
            if run > 1:
                budget = int((deadline - t) / per_inst)
                bulk = min(run, budget if budget > 0 else 0)
                if bulk > 0:
                    idx += bulk
                    t += bulk * per_inst
        count = idx - idx0
        if count < 1:
            return None
        return count, t
