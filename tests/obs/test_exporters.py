"""Exporter goldens: Prometheus text, JSONL trace sink, snapshot structure."""

import json

from repro import obs
from repro.gateway import RankGateway
from repro.obs.registry import MetricsRegistry


class TestPrometheusGolden:
    def test_exact_text(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_requests_total", "Requests served.", labels=("tenant",))
        c.inc(tenant="a")
        c.inc(2.0, tenant="b")
        reg.gauge("repro_depth", "Queue depth.").set(3.5)
        h = reg.histogram("repro_latency_seconds", "Latency.", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(2.0)
        text = obs.render_prometheus(reg, include_runtime=False)
        assert text == (
            "# HELP repro_depth Queue depth.\n"
            "# TYPE repro_depth gauge\n"
            "repro_depth 3.5\n"
            "# HELP repro_latency_seconds Latency.\n"
            "# TYPE repro_latency_seconds histogram\n"
            'repro_latency_seconds_bucket{le="0.1"} 1\n'
            'repro_latency_seconds_bucket{le="1"} 2\n'
            'repro_latency_seconds_bucket{le="+Inf"} 3\n'
            "repro_latency_seconds_sum 2.55\n"
            "repro_latency_seconds_count 3\n"
            "# HELP repro_requests_total Requests served.\n"
            "# TYPE repro_requests_total counter\n"
            'repro_requests_total{tenant="a"} 1\n'
            'repro_requests_total{tenant="b"} 2\n'
        )

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("c", labels=("p",)).inc(p='x"y\\z')
        text = obs.render_prometheus(reg, include_runtime=False)
        assert 'c{p="x\\"y\\\\z"} 1' in text

    def test_runtime_section_has_kernel_and_enabled_flag(self):
        text = obs.render_prometheus(MetricsRegistry(), include_runtime=True)
        assert "repro_obs_enabled 0" in text
        assert "repro_active_kernel{" in text
        assert 'kernel="' in text


class TestTraceFileSink:
    def test_jsonl_schema_and_cap(self, tmp_path, obs_enabled):
        path = tmp_path / "trace.jsonl"
        obs.set_trace_file(str(path), max_file_spans=3)
        try:
            for i in range(5):
                with obs.span("step", i=i):
                    pass
        finally:
            obs.set_trace_file(None)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        # Bounded: 3 written, 2 counted as dropped, never more lines.
        assert len(lines) == 3
        for record in lines:
            assert set(record) == {
                "name",
                "trace_id",
                "span_id",
                "parent_id",
                "start_unix",
                "duration_s",
                "attributes",
            }
            assert record["name"] == "step"
            assert record["parent_id"] is None
            assert record["duration_s"] >= 0.0
        assert [r["attributes"]["i"] for r in lines] == [0, 1, 2]

    def test_sink_stats_report_drops(self, tmp_path, obs_enabled):
        path = tmp_path / "trace.jsonl"
        obs.set_trace_file(str(path), max_file_spans=1)
        try:
            with obs.span("a"):
                pass
            with obs.span("b"):
                pass
            stats = obs.sink_stats()
            assert stats["file"] == str(path)
            assert stats["file_written"] == 1
            assert stats["file_dropped"] == 1
        finally:
            obs.set_trace_file(None)


class TestSnapshot:
    def test_structure_and_runtime_reports(self):
        snap = obs.snapshot()
        assert snap["schema"] == 1
        assert snap["enabled"] is False
        assert isinstance(snap["metrics"], dict)
        assert isinstance(snap["collectors"], dict)
        assert set(snap["trace"]) >= {"in_memory", "recorded"}
        assert snap["kernel"]["name"]
        json.dumps(snap)  # JSON-ready end to end

    def test_gateway_collector_appears_and_unregisters(self, small_qlog):
        gateway = RankGateway(graphs={"qlog": small_qlog.graph})
        try:
            gateway.ask(int(small_qlog.phrase_nodes[0]), tenant="t1")
            snap = obs.snapshot(include_runtime=False)
            sections = [
                v for k, v in snap["collectors"].items() if k.startswith("gateway-")
            ]
            assert sections, f"no gateway collector in {sorted(snap['collectors'])}"
            mine = [
                s
                for s in sections
                if s.get("stats", {}).get("n_admitted", 0) >= 1
            ]
            assert mine
            entry = mine[-1]
            assert "hit_rate" in entry["cache"]
            assert "byte_utilization" in entry["cache"]
        finally:
            gateway.close()
        snap = obs.snapshot(include_runtime=False)
        assert gateway._obs_name not in snap["collectors"]

    def test_dead_collector_is_pruned(self):
        obs.register_collector("zombie-test", lambda: None)
        snap = obs.snapshot(include_runtime=False)
        assert "zombie-test" not in snap["collectors"]
        from repro.obs.export import _collectors

        assert "zombie-test" not in _collectors

    def test_failing_collector_reports_error(self):
        def bad():
            raise RuntimeError("boom")

        obs.register_collector("bad-test", bad)
        try:
            snap = obs.snapshot(include_runtime=False)
            assert "boom" in snap["collectors"]["bad-test"]["error"]
        finally:
            obs.unregister_collector("bad-test")

    def test_write_snapshot_round_trips(self, tmp_path):
        path = tmp_path / "snap.json"
        payload = obs.write_snapshot(path)
        loaded = json.loads(path.read_text())
        assert loaded["schema"] == payload["schema"]
        assert loaded["metrics"].keys() == payload["metrics"].keys()


class TestCacheInfoSatellite:
    def test_hit_rate_and_byte_utilization(self, small_qlog):
        from repro.serving import ColumnCache

        cache = ColumnCache()
        info = cache.cache_info()
        assert info.hit_rate == 0.0
        assert info.byte_utilization == 0.0
        cache.get_many(small_qlog.graph, "f", [0, 1], 0.25)
        cache.get_many(small_qlog.graph, "f", [0, 1], 0.25)
        info = cache.cache_info()
        assert info.hits == 2 and info.misses == 2
        assert info.hit_rate == 0.5
        assert 0.0 < info.byte_utilization < 1.0
        payload = info.to_jsonable()
        assert payload["hit_rate"] == 0.5
        assert payload["byte_utilization"] == info.byte_utilization
        assert payload["hits"] == 2


class TestSummarizeTrace:
    def test_tree_rendering(self, obs_enabled):
        with obs.span("root", tenant="t"):
            with obs.span("child"):
                pass
        text = obs.summarize_trace([s.to_dict() for s in obs.spans()])
        lines = text.splitlines()
        assert lines[0].startswith("trace ")
        assert lines[1].strip().startswith("root")
        assert lines[2].startswith("    child")
        assert "[tenant=t]" in lines[1]

    def test_orphans_promoted_and_cycles_guarded(self):
        records = [
            {
                "name": "orphan",
                "trace_id": "t1",
                "span_id": "s1",
                "parent_id": "missing",
                "start_unix": 1.0,
                "duration_s": 0.0,
                "attributes": {},
            }
        ]
        text = obs.summarize_trace(records)
        assert "orphan" in text

    def test_max_traces_truncates(self, obs_enabled):
        for _ in range(3):
            with obs.span("r"):
                pass
        text = obs.summarize_trace([s.to_dict() for s in obs.spans()], max_traces=1)
        assert "more trace(s)" in text
