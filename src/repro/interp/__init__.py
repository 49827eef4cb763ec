"""IR interpreter with simulated memory and instrumentation hooks."""

from .compile import (
    CompiledInterpreter,
    CompiledModule,
    CompileError,
    cached_compiled_module,
    compile_module,
    make_interpreter,
)
from .hooks import ExecutionListener, HookBus, LoopRecord
from .interpreter import Interpreter, InterpreterError, LoopStats
from .memory import (
    GLOBAL_BASE,
    HEAP_BASE,
    MemoryFault,
    MemoryObject,
    STACK_BASE,
    SimulatedMemory,
)

__all__ = [
    "CompiledInterpreter", "CompiledModule", "CompileError",
    "cached_compiled_module", "compile_module", "make_interpreter",
    "ExecutionListener", "HookBus", "LoopRecord",
    "Interpreter", "InterpreterError", "LoopStats",
    "GLOBAL_BASE", "HEAP_BASE", "MemoryFault", "MemoryObject",
    "STACK_BASE", "SimulatedMemory",
]
