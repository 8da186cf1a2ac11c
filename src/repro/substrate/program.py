"""Client-program plumbing.

A client program is, per §2, a parallel composition of sequential
commands.  :class:`Program` collects named threads (each a function from
:class:`~repro.substrate.context.Ctx` to a generator) and builds runtimes;
:func:`spawn` is a tiny helper for composing sequential method calls.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Sequence

from repro.substrate.context import Ctx
from repro.substrate.runtime import Runtime, World
from repro.substrate.schedulers import Scheduler

ThreadBody = Callable[[Ctx], Generator[Any, Any, Any]]


class Program:
    """A parallel composition of named sequential threads.

    .. code-block:: python

        def setup(scheduler):
            world = World()
            exchanger = Exchanger(world, "E")
            program = Program(world)
            program.thread("t1", lambda ctx: exchanger.exchange(ctx, 3))
            program.thread("t2", lambda ctx: exchanger.exchange(ctx, 4))
            return program.runtime(scheduler)
    """

    def __init__(self, world: World) -> None:
        self.world = world
        self._threads: Dict[str, ThreadBody] = {}
        self._monitors: list = []

    def thread(self, tid: str, body: ThreadBody) -> "Program":
        """Add a named thread; returns self for chaining."""
        if tid in self._threads:
            raise ValueError(f"duplicate thread id {tid!r}")
        self._threads[tid] = body
        return self

    def monitor(self, monitor: Any) -> "Program":
        """Attach a transition monitor (e.g. a rely/guarantee checker)."""
        self._monitors.append(monitor)
        return self

    def runtime(
        self,
        scheduler: Scheduler,
        memory_model: str = "sc",
    ) -> Runtime:
        return Runtime(
            self.world,
            dict(self._threads),
            scheduler,
            self._monitors,
            memory_model=memory_model,
        )

    @property
    def thread_ids(self) -> Sequence[str]:
        return list(self._threads)


def spawn(*calls: Callable[[Ctx], Generator[Any, Any, Any]]) -> ThreadBody:
    """Compose method calls into one sequential thread body.

    .. code-block:: python

        program.thread("t1", spawn(
            lambda ctx: stack.push(ctx, 1),
            lambda ctx: stack.pop(ctx),
        ))

    The thread's return value is the list of individual results.
    """

    def body(ctx: Ctx):
        results = []
        for call in calls:
            result = yield from call(ctx)
            results.append(result)
        return results

    return body
