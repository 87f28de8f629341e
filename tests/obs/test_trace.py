"""Trace propagation and the end-to-end span-tree acceptance contract."""

import threading

import pytest

from repro import obs
from repro.gateway import RankGateway
from repro.serving import ColumnCache
from repro.topk import local_topk


class TestSpanBasics:
    def test_disabled_span_is_noop(self):
        assert not obs.enabled()
        before = len(obs.spans())
        with obs.span("nothing") as span_:
            span_.set_attribute("k", 1)
            assert span_ is obs.NOOP_SPAN
            assert span_.context() is None
        assert len(obs.spans()) == before

    def test_nesting_sets_parent(self, obs_enabled):
        with obs.span("outer") as outer:
            with obs.span("inner") as inner:
                pass
        assert inner.trace_id == outer.trace_id
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        names = [s.name for s in obs.spans()]
        assert names == ["inner", "outer"]  # children finish first

    def test_sibling_spans_share_parent_not_each_other(self, obs_enabled):
        with obs.span("root") as root:
            with obs.span("a") as a:
                pass
            with obs.span("b") as b:
                pass
        assert a.parent_id == root.span_id
        assert b.parent_id == root.span_id

    def test_explicit_parent_crosses_threads(self, obs_enabled):
        """The batcher hop: a SpanContext captured at enqueue parents the flush."""
        captured = {}

        def worker(ctx):
            with obs.span("worker.side", parent=ctx) as span_:
                captured["span"] = span_

        with obs.span("producer") as producer:
            ctx = producer.context()
            thread = threading.Thread(target=worker, args=(ctx,), daemon=True)
            thread.start()
            thread.join()
        child = captured["span"]
        assert child.trace_id == producer.trace_id
        assert child.parent_id == producer.span_id

    def test_exception_records_error_attribute(self, obs_enabled):
        with pytest.raises(RuntimeError):
            with obs.span("boom"):
                raise RuntimeError("x")
        (span_,) = [s for s in obs.spans() if s.name == "boom"]
        assert span_.attributes["error"] == "RuntimeError"

    def test_duration_and_start_populated(self, obs_enabled):
        with obs.span("timed"):
            pass
        (span_,) = [s for s in obs.spans() if s.name == "timed"]
        assert span_.start_unix > 0
        assert span_.duration_s >= 0


def _span_tree(spans):
    """(by_id, roots, children) for finished Span objects."""
    by_id = {s.span_id: s for s in spans}
    roots = [s for s in spans if s.parent_id is None]
    children = {}
    for s in spans:
        if s.parent_id is not None:
            children.setdefault(s.parent_id, []).append(s)
    return by_id, roots, children


def _assert_acyclic_to_root(spans):
    by_id = {s.span_id: s for s in spans}
    for s in spans:
        seen = set()
        cur = s
        while cur.parent_id is not None:
            assert cur.span_id not in seen, f"cycle through {cur.name}"
            seen.add(cur.span_id)
            assert cur.parent_id in by_id, f"{cur.name} has dangling parent"
            cur = by_id[cur.parent_id]


class TestGatewayTraceAcceptance:
    """One submit under observability yields one complete span tree."""

    def test_batcher_path_produces_single_complete_trace(self, obs_enabled, small_qlog):
        gateway = RankGateway(graphs={"qlog": small_qlog.graph})
        try:
            result = gateway.ask(int(small_qlog.phrase_nodes[0]), tenant="t1", k=5)
        finally:
            gateway.close()
        assert len(result[0]) == 5

        spans = obs.spans()
        # Exactly one trace id across every span of the query.
        assert len({s.trace_id for s in spans}) == 1
        names = {s.name for s in spans}
        # Every layer is present: admission, lane, cache, solver, kernel.
        assert {
            "gateway.submit",
            "gateway.admission",
            "gateway.lane",
            "batcher.flush",
            "cache.get_many",
            "engine.solve",
            "ops.kernel",
        } <= names

        by_id, roots, children = _span_tree(spans)
        _assert_acyclic_to_root(spans)
        # Single root: the submit span.
        assert [r.name for r in roots] == ["gateway.submit"]
        root = roots[0]
        assert root.attributes["outcome"] == "admitted"
        assert root.attributes["path"] == "batcher"
        assert root.attributes["lane"] == "qlog/roundtriprank/0.25"

        # Parent relationships across the thread hop.
        def parent_name(s):
            return by_id[s.parent_id].name

        for s in spans:
            if s.name == "batcher.flush":
                assert parent_name(s) == "gateway.lane"
            elif s.name == "cache.get_many":
                assert parent_name(s) == "batcher.flush"
            elif s.name == "engine.solve":
                assert parent_name(s) == "cache.get_many"
            elif s.name == "ops.kernel":
                assert parent_name(s) == "engine.solve"

        # Solver spans carry the solver vocabulary.
        solves = [s for s in spans if s.name == "engine.solve"]
        assert solves
        for s in solves:
            assert s.attributes["sweeps"] >= 1
            assert s.attributes["residual"] >= 0.0
            assert s.attributes["kernel"]
            assert s.attributes["dtype"] in ("float32", "float64")
            assert s.attributes["method"] in ("auto", "power")

    def test_resident_hit_trace(self, obs_enabled, small_qlog):
        """A cache-resident query's one-request flush joins its submit's trace."""
        gateway = RankGateway(graphs={"qlog": small_qlog.graph})
        node = int(small_qlog.phrase_nodes[0])
        try:
            gateway.ask(node, tenant="t1", k=5)  # caches the node's F and T columns
            obs.clear_spans()
            assert gateway.submit(node, tenant="t1", k=5).done()
        finally:
            gateway.close()

        spans = obs.spans()
        assert len({s.trace_id for s in spans}) == 1
        by_id, roots, _children = _span_tree(spans)
        _assert_acyclic_to_root(spans)
        assert [r.name for r in roots] == ["gateway.submit"]
        assert roots[0].attributes["outcome"] == "admitted"
        (admission,) = [s for s in spans if s.name == "gateway.admission"]
        assert admission.attributes["depth"] == 0
        (flush,) = [s for s in spans if s.name == "batcher.flush"]
        assert flush.attributes["trigger"] == "resident"
        assert flush.attributes["batch"] == 1
        assert by_id[flush.parent_id].name == "gateway.lane"
        reads = [s for s in spans if s.name == "cache.get_many"]
        assert [s.attributes["kind"] for s in reads] == ["f", "t"]
        for s in reads:
            assert s.parent_id == flush.span_id
            assert (s.attributes["hits"], s.attributes["misses"]) == (1, 0)
        assert not [s for s in spans if s.name == "engine.solve"]

    def test_local_path_trace(self, obs_enabled, small_bibnet):
        cache = ColumnCache()
        gateway = RankGateway(
            graphs={"bib": small_bibnet.graph}, cache=cache, local_topk=True
        )
        try:
            gateway.ask(int(small_bibnet.paper_nodes[0]), tenant="t1", k=5)
        finally:
            gateway.close()
        spans = obs.spans()
        assert len({s.trace_id for s in spans}) == 1
        (root,) = [s for s in spans if s.name == "gateway.submit"]
        assert root.attributes["path"] == "local"
        (local,) = [s for s in spans if s.name == "topk.local"]
        assert local.parent_id == root.span_id
        assert local.attributes["k"] == 5
        assert isinstance(local.attributes["certified"], bool)
        assert isinstance(local.attributes["escalated"], bool)
        assert local.attributes["work"] >= 0

    def test_shed_query_records_outcome(self, obs_enabled, small_qlog):
        from repro.gateway import AdmissionConfig

        gateway = RankGateway(
            graphs={"qlog": small_qlog.graph},
            admission=AdmissionConfig(max_queue_depth=1),
        )
        try:
            gateway.submit(int(small_qlog.phrase_nodes[0]), tenant="t1")
            shed = gateway.submit(int(small_qlog.phrase_nodes[1]), tenant="t1")
            from repro.gateway import Shed

            assert isinstance(shed, Shed)
            gateway.flush_all()
        finally:
            gateway.close()
        submits = [s for s in obs.spans() if s.name == "gateway.submit"]
        outcomes = {s.attributes.get("outcome") for s in submits}
        assert "shed" in outcomes


class TestLocalTopkStandalone:
    def test_local_topk_span_and_counters(self, obs_enabled, small_bibnet):
        outcomes = obs.REGISTRY.counter(
            "repro_local_outcomes_total",
            labels=("outcome",),
        )
        before = outcomes.total()
        result = local_topk(small_bibnet.graph, int(small_bibnet.paper_nodes[0]), 5)
        assert len(result.indices) == 5
        assert outcomes.total() == before + 1
        (span_,) = [s for s in obs.spans() if s.name == "topk.local"]
        assert span_.attributes["certified"] == result.certified
        assert span_.attributes["rounds"] == result.rounds

    def test_local_topk_docstring_preserved(self):
        assert "certified early-stopped sweeps" in local_topk.__doc__


class TestSinkBounds:
    def test_ring_is_bounded(self, obs_enabled):
        from repro.obs.trace import TraceSink

        sink = TraceSink(maxlen=4)
        for i in range(10):
            with obs.span(f"s{i}") as span_:
                pass
            sink.record(span_)
        assert len(sink.spans()) == 4
        assert sink.stats()["recorded"] == 10
