"""Identifier generation: determinism, uniqueness, prefixes."""

from repro.common.ids import IdGenerator, random_id


def test_deterministic_sequence():
    first = IdGenerator()
    second = IdGenerator()
    for _ in range(5):
        assert first.next("tl") == second.next("tl")


def test_prefixes_have_independent_counters():
    generator = IdGenerator()
    assert generator.next("a") == "a-000000"
    assert generator.next("b") == "b-000000"
    assert generator.next("a") == "a-000001"


def test_typed_helpers_use_distinct_prefixes():
    generator = IdGenerator()
    node = generator.next_node()
    tasklet = generator.next_tasklet()
    execution = generator.next_execution()
    assert node.startswith("node-")
    assert tasklet.startswith("tl-")
    assert execution.startswith("ex-")


def test_next_node_custom_kind():
    generator = IdGenerator()
    assert generator.next_node("prov") == "prov-000000"


def test_ids_are_unique_within_prefix():
    generator = IdGenerator()
    ids = {generator.next("x") for _ in range(1000)}
    assert len(ids) == 1000


def test_namespace_is_woven_into_every_id():
    generator = IdGenerator(namespace="1f3a")
    assert generator.next("ex") == "ex-1f3a-000000"
    assert generator.next("ex") == "ex-1f3a-000001"
    assert generator.next_execution() == "ex-1f3a-000002"


def test_distinct_namespaces_never_collide():
    first = IdGenerator(namespace="aaaa")
    second = IdGenerator(namespace="bbbb")
    ids = {first.next("ex") for _ in range(100)}
    ids |= {second.next("ex") for _ in range(100)}
    assert len(ids) == 200


def test_random_id_contains_prefix_and_is_unique():
    first = random_id("prov")
    second = random_id("prov")
    assert first.startswith("prov-")
    assert first != second
