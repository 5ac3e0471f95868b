"""One compiled program per distinct Tasklet source, per process.

The Tasklet library (``TaskletLibrary.compile``), the workflow builder
(``WorkflowBuilder.node``) and the simulator's workload generators take
source text.  Compiling one text twice gives an equal program, and a
compiled program is never changed (its packed bytes and fingerprint are
what crosses the wire), so they all share one bounded cache: a stencil
built afresh per workflow compiles its kernel once, not once per builder.
"""

from __future__ import annotations

from functools import lru_cache

from ..tvm.bytecode import CompiledProgram
from ..tvm.compiler import compile_source

#: Distinct sources kept; the least recently used one is compiled again.
MAX_CACHED_SOURCES = 256


@lru_cache(maxsize=MAX_CACHED_SOURCES)
def compiled(source: str) -> CompiledProgram:
    """``compile_source(source)``, once per distinct text (a source that
    does not compile raises every time)."""
    return compile_source(source)
