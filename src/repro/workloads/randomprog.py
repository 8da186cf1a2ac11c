"""Small random substrate programs for cross-engine conformance testing.

The DPOR and unreduced engines must agree on *every* program, not
just the curated workloads — so the conformance suite
(``tests/test_dpor.py``) and the independence property tests
(``tests/test_independence.py``) draw programs from this generator:
2–3 threads running short random scripts of reads, writes, CASes,
pauses, value choices and history appends over a couple of shared
cells, optionally under a random fault plan.

Everything is a pure function of ``seed`` (via ``random.Random``, whose
sequence is stable across Python versions), so a failing seed is a
complete reproducer.  Programs are deliberately tiny: the unreduced
engine must be able to enumerate them exhaustively, since it is the
ground truth the reduced engine is compared against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.substrate.faults import CrashThread, FaultPlan, StallThread
from repro.substrate.program import Program
from repro.substrate.runtime import Runtime, World
from repro.substrate.schedulers import Scheduler

#: Script operation kinds, with rough weights favouring shared-memory
#: traffic (the interesting case for reduction) over control noise.
_OPS = (
    "write",
    "write",
    "read",
    "read",
    "cas",
    "invoke",
    "pause",
    "choose",
)


@dataclass(frozen=True)
class RandomProgram:
    """One generated program: a setup factory plus its description."""

    seed: int
    memory_model: str
    threads: int
    cells: int
    scripts: Tuple[Tuple[Tuple[str, int, int], ...], ...]
    faults: Optional[FaultPlan]

    def setup(self, scheduler: Scheduler) -> Runtime:
        world = World()
        refs = [
            world.heap.ref(f"c{index}", 0) for index in range(self.cells)
        ]
        program = Program(world)
        for index, script in enumerate(self.scripts):
            program.thread(f"t{index}", _script_body(script, refs))
        runtime = program.runtime(
            scheduler, memory_model=self.memory_model
        )
        if self.faults is not None:
            runtime.inject(self.faults)
        return runtime

    def describe(self) -> str:
        ops = sum(len(script) for script in self.scripts)
        fault = f" faults={self.faults!r}" if self.faults else ""
        return (
            f"seed={self.seed} {self.memory_model} threads={self.threads} "
            f"cells={self.cells} ops={ops}{fault}"
        )


def _script_body(script: Sequence[Tuple[str, int, int]], refs):
    def body(ctx):
        out: List[object] = []
        for op, cell, value in script:
            ref = refs[cell]
            if op == "write":
                yield from ctx.write(ref, value)
            elif op == "read":
                out.append((yield from ctx.read(ref)))
            elif op == "cas":
                out.append((yield from ctx.cas(ref, 0, value)))
            elif op == "invoke":
                yield from ctx.invoke("R", "note", (cell, value))
            elif op == "pause":
                yield from ctx.pause("rand")
            else:  # choose
                out.append((yield from ctx.choose((0, value))))
        return tuple(out)

    return body


def random_program(
    seed: int,
    memory_model: str = "sc",
    with_faults: bool = False,
) -> RandomProgram:
    """Generate one small program, deterministically from ``seed``.

    ``with_faults`` adds a crash or stall of one thread at a small step
    index (per-thread indexing, so the fault commutes with the schedule
    exactly as the curated fault plans do).  Sizes are tuned so the
    *unreduced* schedule space stays enumerable — a few hundred to a
    few thousand runs.
    """
    rng = random.Random(seed)
    threads = rng.choice((2, 2, 3))
    cells = rng.choice((1, 2))
    # Under TSO every write adds a flush pseudo-step, so scripts must be
    # shorter to keep the unreduced enumeration tractable (a 3-thread
    # 6-op program exceeds a million TSO interleavings).
    if memory_model == "tso":
        length = 2 if threads == 2 else 1
    else:
        length = rng.randint(2, 3) if threads == 2 else 2
    scripts = []
    for _ in range(threads):
        script = tuple(
            (rng.choice(_OPS), rng.randrange(cells), rng.randint(1, 3))
            for _ in range(length)
        )
        scripts.append(script)
    faults: Optional[FaultPlan] = None
    if with_faults:
        victim = rng.randrange(threads)
        at_step = rng.randrange(2)
        fault_cls = rng.choice((CrashThread, StallThread))
        faults = FaultPlan.of(fault_cls(f"t{victim}", at_step))
    return RandomProgram(
        seed=seed,
        memory_model=memory_model,
        threads=threads,
        cells=cells,
        scripts=tuple(scripts),
        faults=faults,
    )


__all__ = ["RandomProgram", "random_program"]
