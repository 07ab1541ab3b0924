"""Tracing subsystem: determinism, reconciliation, exporters."""

import json

import pytest

from repro.config import small_test_config
from repro.errors import ConfigError, SimulationError
from repro.obs import (
    chrome_trace,
    load_trace_spans,
    longest_spans,
    summarize_spans,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.ssd.simulator import SSDSimulator
from repro.workloads import generate

USAGE_TAGS = ("COR", "UNCOR", "WRITE", "GC", "ECCWAIT")


def _run(tracing=False, **kw):
    ssd = SSDSimulator(small_test_config(), policy="RiFSSD", pe_cycles=2000,
                       seed=31, tracing=tracing, **kw)
    trace = generate("Sys0", n_requests=150, user_pages=3000, seed=31)
    result = ssd.run_trace(trace)
    return ssd, result


@pytest.fixture(scope="module")
def traced():
    return _run(tracing=True)


def test_tracing_is_bit_identical():
    """Enabling every observability feature must not change the result."""
    _ssd, plain = _run()
    _ssd, observed = _run(tracing=True, snapshot_interval_us=500.0)
    assert observed.to_dict() == plain.to_dict()


def test_resource_spans_reconcile_with_channel_usage(traced):
    """Acceptance criterion: per-channel span totals must reproduce the
    Fig.-18 ChannelUsage breakdown (COR+UNCOR+WRITE+GC+ECCWAIT; idle is
    the wall-clock remainder) within float tolerance."""
    ssd, result = traced
    busy = ssd.tracer.resource_busy_by_tag()
    total = {tag: 0.0 for tag in USAGE_TAGS}
    for i in range(len(ssd.channels)):
        for tag, us in busy.get(f"ch{i}", {}).items():
            assert tag in total, f"unexpected channel tag {tag}"
            total[tag] += us
    usage = result.channel_usage
    assert total["COR"] == pytest.approx(usage.cor, rel=1e-9, abs=1e-6)
    assert total["UNCOR"] == pytest.approx(usage.uncor, rel=1e-9, abs=1e-6)
    assert total["WRITE"] == pytest.approx(usage.write, rel=1e-9, abs=1e-6)
    assert total["GC"] == pytest.approx(usage.gc, rel=1e-9, abs=1e-6)
    assert total["ECCWAIT"] == pytest.approx(usage.eccwait, rel=1e-9,
                                             abs=1e-6)
    accounted = sum(total.values()) + usage.idle
    wall = result.metrics.elapsed_us * len(ssd.channels)
    assert accounted == pytest.approx(wall, rel=1e-9)


def test_request_spans_cover_read_lifecycles(traced):
    ssd, result = traced
    reads = [ev for ev in ssd.tracer.request_spans if ev.tag == "READ"]
    assert len(reads) == len(result.metrics.read_latencies_us)
    latencies = sorted(result.metrics.read_latencies_us)
    span_latencies = sorted(ev.duration_us for ev in reads)
    assert span_latencies == pytest.approx(latencies)
    names = {inst.name for inst in ssd.tracer.instants}
    assert {"request.queued", "read.plan", "request.done"} <= names


def test_plan_instants_carry_retry_args(traced):
    ssd, result = traced
    plans = [inst for inst in ssd.tracer.instants if inst.name == "read.plan"]
    assert len(plans) == result.metrics.page_reads
    retried = [p for p in plans if p.args_dict()["retried"]]
    assert len(retried) == result.metrics.retried_reads
    assert sum(p.args_dict()["senses"] for p in plans) == \
        result.metrics.total_senses


def test_chrome_trace_schema(traced, tmp_path):
    ssd, _result = traced
    data = chrome_trace(ssd.tracer)
    summary = validate_chrome_trace(data)
    assert summary["spans"] > 0
    assert "ch0" in summary["tracks"]
    assert "requests" in summary["tracks"]
    # on-disk export round-trips through json and still validates
    path = write_chrome_trace(tmp_path / "trace.json", ssd.tracer)
    assert validate_chrome_trace(json.loads(path.read_text())) == summary


def test_validate_rejects_malformed():
    with pytest.raises(ValueError):
        validate_chrome_trace({"foo": []})
    with pytest.raises(ValueError):
        validate_chrome_trace({"traceEvents": [{"ph": "X", "name": "x",
                                                "ts": 0, "pid": 1, "tid": 0}]})
    with pytest.raises(ValueError):
        validate_chrome_trace({"traceEvents": [{"ph": "??", "name": "x"}]})


_SPAN = {"ph": "X", "name": "s", "ts": 0, "dur": 1, "pid": 1, "tid": 0}


@pytest.mark.parametrize("events", [
    [{"ph": "M", "name": "thread_name", "tid": 0}],
    [{"ph": "M", "name": "thread_name", "tid": 0, "args": 5}],
    [{"ph": "M", "name": "thread_name", "tid": 0, "args": {"name": "a"}},
     {"ph": "M", "name": "thread_name", "tid": "1", "args": {"name": "b"}}],
    [{**_SPAN, "args": 5}],
], ids=["thread-no-args", "thread-args-not-object", "thread-str-tid",
        "span-args-not-object"])
def test_malformed_event_is_a_value_error_naming_it(events, tmp_path):
    """The validator raises only its documented ValueError, naming the
    offending (last) event, so the loader reports a config error."""
    data = {"traceEvents": [_SPAN, *events]}
    last = len(data["traceEvents"]) - 1
    with pytest.raises(ValueError, match=f"^event {last}: "):
        validate_chrome_trace(data)
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError, match="not a Chrome trace_event"):
        load_trace_spans(path)


def test_span_loading_agrees_across_formats(traced, tmp_path):
    """The Chrome export, loaded back, agrees with the tracer's in-memory
    streams."""
    ssd, _result = traced
    path = write_chrome_trace(tmp_path / "t.json", ssd.tracer)
    spans = load_trace_spans(path)
    # one event per span and instant (1,895 resource, 150 request, 637
    # instant): a read job's resource span names its request, and no
    # phase event copies it
    events = json.loads(path.read_text())["traceEvents"]
    requests = [s for s in spans if s["track"] == "requests"]
    assert len(spans) - len(requests) == len(ssd.tracer.resource_spans) \
        == 1_895
    assert len(requests) == len(ssd.tracer.request_spans) == 150
    assert sum(ev["ph"] == "i" for ev in events) == 637
    requests_tid = next(ev["tid"] for ev in events
                        if ev["args"].get("name") == "requests")
    reads = [ev for ev in events if ev["ph"] == "X"
             and ev["tid"] != requests_tid and "request" in ev["args"]]
    assert len(reads) == len(ssd.tracer.events) == 1_020

    for track in ("ch0", "host", "requests"):
        loaded = sum(s["dur_us"] for s in spans if s["track"] == track)
        recorded = sum(ev.duration_us for ev in
                       ssd.tracer.resource_spans + ssd.tracer.request_spans
                       if ev.resource == track)
        assert loaded == pytest.approx(recorded)
    rows = summarize_spans(spans)
    assert any(r["track"] == "ch0" and r["busy_us"] > 0 for r in rows)
    top = longest_spans(spans, top=5)
    assert len(top) == 5
    assert top[0]["dur_us"] >= top[-1]["dur_us"]


def test_span_loading_rejects_a_file_that_is_not_a_chrome_export(tmp_path):
    for text in ('{"type": "resource"}\n', "[1, 2]", "not json"):
        path = tmp_path / "t.jsonl"
        path.write_text(text)
        with pytest.raises(ConfigError, match="not a Chrome trace_event"):
            load_trace_spans(path)


def test_export_requires_tracer(tmp_path):
    ssd, _result = _run()
    with pytest.raises(SimulationError):
        ssd.export_chrome_trace(tmp_path / "x.json")


def test_export_chrome_trace_method(tmp_path):
    ssd, _result = _run(tracing=True)
    path = ssd.export_chrome_trace(tmp_path / "run.json")
    validate_chrome_trace(json.loads(path.read_text()))
