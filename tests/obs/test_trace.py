"""Span store, trace contexts, and tree reconstruction."""

from repro.obs.trace import (
    Span,
    SpanStore,
    TraceContext,
    Tracer,
    build_trace_tree,
    format_trace,
)


def span(span_id, parent_id=None, trace_id="t1", name="op", start=0.0, end=1.0,
         **attrs):
    return Span(
        trace_id=trace_id,
        span_id=span_id,
        parent_id=parent_id,
        name=name,
        node="n1",
        start=start,
        end=end,
        attrs=attrs,
    )


class TestTraceContext:
    def test_round_trips_through_dict(self):
        context = TraceContext(trace_id="t1", span_id="s1")
        assert TraceContext.from_dict(context.to_dict()) == context

    def test_malformed_dicts_return_none(self):
        assert TraceContext.from_dict(None) is None
        assert TraceContext.from_dict({}) is None
        assert TraceContext.from_dict({"trace_id": "t1"}) is None
        assert TraceContext.from_dict({"trace_id": "", "span_id": "s"}) is None

    def test_non_string_ids_coerced(self):
        context = TraceContext.from_dict({"trace_id": 7, "span_id": 9})
        assert context == TraceContext(trace_id="7", span_id="9")


class TestTracer:
    def test_ids_are_unique_and_prefixed(self):
        tracer = Tracer(prefix="abc")
        first = tracer.start_trace()
        second = tracer.start_trace()
        assert first.trace_id != second.trace_id
        assert first.span_id != second.span_id
        assert first.trace_id.startswith("tr-abc-")
        assert first.span_id.startswith("sp-abc-")

    def test_child_keeps_trace_id(self):
        tracer = Tracer()
        root = tracer.start_trace()
        child = tracer.child(root)
        assert child.trace_id == root.trace_id
        assert child.span_id != root.span_id

    def test_record_lands_in_store(self):
        tracer = Tracer()
        context = tracer.start_trace()
        recorded = tracer.record(
            name="op", context=context, node="n1", start=1.0, end=3.0
        )
        assert tracer.store.spans() == [recorded]
        assert recorded.duration == 2.0


class TestSpanStore:
    def test_ring_evicts_oldest_and_counts_drops(self):
        store = SpanStore(capacity=2)
        for i in range(4):
            store.add(span(f"s{i}"))
        assert [s.span_id for s in store.spans()] == ["s2", "s3"]
        assert store.dropped == 2
        assert len(store.spans()) == 2

    def test_capacity_must_be_positive(self):
        import pytest

        with pytest.raises(ValueError):
            SpanStore(capacity=0)

class TestTreeReconstruction:
    def test_builds_nested_tree_in_start_order(self):
        spans = [
            span("root", start=0.0),
            span("late_child", parent_id="root", start=2.0),
            span("early_child", parent_id="root", start=1.0),
            span("grandchild", parent_id="early_child", start=1.5),
        ]
        roots = build_trace_tree(spans)
        assert len(roots) == 1
        children = roots[0].children
        assert [c.span.span_id for c in children] == ["early_child", "late_child"]
        assert children[0].children[0].span.span_id == "grandchild"

    def test_orphans_hang_under_evicted_placeholder(self):
        spans = [span("orphan", parent_id="gone"), span("root")]
        roots = build_trace_tree(spans)
        assert {r.span.span_id for r in roots} == {"gone", "root"}
        placeholder = next(r for r in roots if r.span.span_id == "gone")
        assert placeholder.span.name == "(evicted)"
        assert placeholder.span.attrs["evicted"] is True
        assert placeholder.span.status == "evicted"
        assert [c.span.span_id for c in placeholder.children] == ["orphan"]

    def test_sibling_orphans_share_one_placeholder(self):
        spans = [
            span("a", parent_id="gone", start=1.0, end=2.0),
            span("b", parent_id="gone", start=0.5, end=1.5),
        ]
        roots = build_trace_tree(spans)
        assert len(roots) == 1
        holder = roots[0]
        assert holder.span.span_id == "gone"
        # Placeholder bounds cover all its children.
        assert holder.span.start == 0.5 and holder.span.end == 2.0
        assert [c.span.span_id for c in holder.children] == ["b", "a"]

    def test_store_smaller_than_one_trace_keeps_subtree_connected(self):
        # The root span is evicted by the ring; reconstruction must not
        # silently drop the surviving children.
        store = SpanStore(capacity=2)
        store.add(span("root", start=0.0))
        store.add(span("child1", parent_id="root", start=1.0))
        store.add(span("child2", parent_id="root", start=2.0))  # evicts root
        assert store.dropped == 1
        roots = build_trace_tree(store.spans())
        assert len(roots) == 1
        assert roots[0].span.span_id == "root"
        assert roots[0].span.attrs.get("evicted") is True
        assert {c.span.span_id for c in roots[0].children} == {
            "child1",
            "child2",
        }

    def test_self_parent_does_not_loop(self):
        roots = build_trace_tree([span("weird", parent_id="weird")])
        assert len(roots) == 1

class TestFormatTrace:
    def test_empty_store_renders_placeholder(self):
        assert format_trace([]) == "(no spans)"

    def test_tree_renders_names_status_and_attrs(self):
        spans = [
            span("root", name="tasklet", start=0.0, end=0.25),
            span(
                "child",
                parent_id="root",
                name="provider.execute",
                start=0.1,
                end=0.2,
                execution_id="e1",
            ),
        ]
        text = format_trace(spans)
        assert "trace t1" in text
        assert "tasklet" in text
        assert "  provider.execute" in text.splitlines()[2][:20]
        assert "execution_id=e1" in text
        assert "status=ok" in text
