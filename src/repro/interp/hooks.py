"""Instrumentation hook bus for the interpreter.

Profilers subscribe by implementing any subset of the listener
methods; the interpreter broadcasts events through :class:`HookBus`.
The design mirrors compiler instrumentation: profilers see dynamic
events (edges, loads, stores, allocations, loop iterations) tagged
with static IR entities and the current loop/calling context.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..analysis import Loop
from ..ir import BasicBlock, CallInst, Function, Instruction
from .memory import MemoryObject


class LoopRecord:
    """Dynamic state of one active loop execution."""

    __slots__ = ("loop", "iteration", "invocation")

    def __init__(self, loop: Loop, invocation: int):
        self.loop = loop
        self.iteration = 0
        self.invocation = invocation

    def __repr__(self) -> str:
        return (f"<LoopRecord {self.loop.name} inv={self.invocation} "
                f"iter={self.iteration}>")


class ExecutionListener:
    """Base class with no-op implementations of every event."""

    def on_edge(self, from_bb: BasicBlock, to_bb: BasicBlock) -> None:
        """A CFG edge was taken."""

    def on_load(self, inst: Instruction, address: int, size: int, value,
                obj: Optional[MemoryObject],
                loops: Sequence[LoopRecord],
                context: Tuple[CallInst, ...]) -> None:
        """A load executed."""

    def on_store(self, inst: Instruction, address: int, size: int, value,
                 obj: Optional[MemoryObject],
                 loops: Sequence[LoopRecord],
                 context: Tuple[CallInst, ...]) -> None:
        """A store executed."""

    def on_alloc(self, obj: MemoryObject,
                 loops: Sequence[LoopRecord]) -> None:
        """A heap/stack object was allocated."""

    def on_free(self, obj: MemoryObject,
                loops: Sequence[LoopRecord]) -> None:
        """A heap object was freed (or a stack object released)."""

    def on_loop_enter(self, record: LoopRecord) -> None:
        """Control entered a loop (new invocation)."""

    def on_loop_iterate(self, record: LoopRecord) -> None:
        """A back edge was taken (new iteration)."""

    def on_loop_exit(self, record: LoopRecord) -> None:
        """Control left a loop."""

    def on_call(self, inst: CallInst, callee: Function) -> None:
        """A function call is about to execute."""

    def on_return(self, fn: Function) -> None:
        """A function returned."""

    def finish(self) -> None:
        """The run is over: fold any deferred state into the result."""


class HookBus:
    """Fan-out of interpreter events to registered listeners."""

    def __init__(self):
        self.listeners: List[ExecutionListener] = []

    def register(self, listener: ExecutionListener) -> None:
        self.listeners.append(listener)

    def emit(self, event: str, *args) -> None:
        for listener in self.listeners:
            getattr(listener, event)(*args)
