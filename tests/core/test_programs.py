"""One compiled program per distinct source, shared by every builder in a
process: the compiler's own output, with no unreachable instruction."""

import itertools

import pytest

from repro.common.errors import ParserError
from repro.consumer.library import TaskletLibrary
from repro.core import kernels, programs
from repro.dag.patterns import DAG_KERNEL, stencil
from repro.dag.spec import WorkflowBuilder
from repro.tvm import optimizer
from repro.tvm.compiler import compile_source

_fresh = itertools.count()


def counted_compiles(monkeypatch) -> list[str]:
    calls: list[str] = []
    real = programs.compile_source
    monkeypatch.setattr(programs, "compile_source", lambda text: calls.append(text) or real(text))
    return calls


def test_two_builders_and_a_library_given_one_source_compile_it_once(monkeypatch):
    calls = counted_compiles(monkeypatch)
    # A source no other test has compiled, so the process-wide cache is cold.
    source = f"func main(n: int) -> int {{ return n + {next(_fresh) + 7_000_001}; }}"
    first, second = WorkflowBuilder("wf-a"), WorkflowBuilder("wf-b")
    first.node(source, args=[1])
    second.node(source, args=[2])
    library = TaskletLibrary(session=None)
    assert library.compile(source) is TaskletLibrary(session=None).compile(source)
    assert calls == [source]
    assert first.build().programs == second.build().programs


def test_a_stencil_built_per_workflow_compiles_its_kernel_at_most_once(monkeypatch):
    calls = counted_compiles(monkeypatch)
    for _ in range(3):
        stencil(4, 3)
    assert calls in ([], [DAG_KERNEL])  # [] when an earlier test compiled it


def test_a_source_that_does_not_compile_raises_every_time():
    for _ in range(2):  # an error is not a cached value
        with pytest.raises(ParserError):
            programs.compiled("func main( {")


@pytest.mark.parametrize("name", sorted(kernels.ALL_KERNELS))
def test_the_library_ships_the_compilers_output_with_nothing_unreachable(name):
    source = kernels.ALL_KERNELS[name]
    shipped = TaskletLibrary(session=None).compile(source)
    assert shipped.packed() == compile_source(source).packed()  # what `repro compile` writes
    for function in shipped.functions:
        assert optimizer._eliminate_dead_code(function.code) == function.code, function.name
