"""Telemetry plumbing and the campaign streaming reporters."""

import io
import json
from types import SimpleNamespace

import pytest

from repro.campaign.executor import CellFailure
from repro.campaign.progress import (
    JsonlProgress,
    LiveProgress,
    MultiProgress,
    cell_report,
)
from repro.obs.telemetry import (
    JsonlSink,
    LiveLineWriter,
    format_duration,
    live_line,
)
from repro.ssd.metrics import ChannelUsage, SimMetrics


class _FakeSpec:
    def label(self):
        return "Sys0/pe1000/RiFSSD"

    def content_hash(self):
        return "deadbeef"


def _ok_outcome():
    metrics = SimMetrics(host_read_bytes=1 << 20, page_reads=100,
                         retried_reads=7, elapsed_us=1000.0)
    usage = ChannelUsage(cor=600.0, uncor=0.0, write=0.0, gc=0.0,
                         eccwait=0.0, idle=400.0)
    return SimpleNamespace(metrics=metrics, channel_usage=usage,
                           policy="RiFSSD", completed=True)


def _failed_outcome():
    return CellFailure(spec_hash="deadbeef", label="Sys0/pe1000/RiFSSD",
                       kind="timeout", message="cell exceeded 5s", attempts=2)


# --- sinks and formatting --------------------------------------------------


def test_jsonl_sink_stream_and_path(tmp_path):
    buf = io.StringIO()
    sink = JsonlSink(buf)
    sink.emit({"b": 2, "a": 1})
    assert buf.getvalue() == '{"a": 1, "b": 2}\n'

    path = tmp_path / "deep" / "log.jsonl"
    with JsonlSink(path) as file_sink:
        file_sink.emit({"x": 1})
        file_sink.emit({"x": 2})
    lines = path.read_text().splitlines()
    assert [json.loads(line)["x"] for line in lines] == [1, 2]
    assert file_sink.emitted == 2


def test_jsonl_sink_drops_emits_after_close(tmp_path):
    path = tmp_path / "log.jsonl"
    sink = JsonlSink(path)
    sink.emit({"x": 1})
    sink.close()
    assert sink.closed
    sink.emit({"x": 2})  # shutdown race: dropped, not raised
    assert sink.emitted == 1
    assert len(path.read_text().splitlines()) == 1


def test_format_duration():
    assert format_duration(0.42) == "0.42s"
    assert format_duration(12.3) == "12.3s"
    assert format_duration(248) == "4m08s"
    assert format_duration(3720) == "1h02m"


def test_live_line_contents():
    line = live_line(done=10, total=40, cached=4, failed=1, elapsed_s=12.0,
                     last_label="Sys0/pe0/SENC", last_s=2.0)
    assert "[campaign 10/40]" in line
    assert "4 cached" in line
    assert "1 FAILED" in line
    assert "eta" in line
    assert "Sys0/pe0/SENC" in line
    # no executed cells yet -> no ETA extrapolation
    assert "eta" not in live_line(2, 10, cached=2, failed=0, elapsed_s=1.0)


def test_live_line_first_tick_and_degenerate_inputs():
    """The very first repaint (nothing done, clock barely started) must
    render without dividing by zero and without a bogus ETA."""
    line = live_line(done=0, total=10, cached=0, failed=0, elapsed_s=0.0)
    assert "[campaign 0/10]" in line
    assert "eta" not in line
    # all completions from cache: no executed-cell rate to extrapolate
    assert "eta" not in live_line(3, 10, cached=3, failed=0, elapsed_s=5.0)
    # zero and (clock-skew) negative elapsed never crash or emit an ETA
    assert "eta" not in live_line(5, 10, cached=0, failed=0, elapsed_s=0.0)
    line = live_line(5, 10, cached=0, failed=0, elapsed_s=-0.5)
    assert "eta" not in line
    assert "0.00s" in line  # clamped duration, no "-0.50s"
    # everything done: nothing remaining, ETA omitted
    assert "eta" not in live_line(10, 10, cached=2, failed=0, elapsed_s=9.0)


def test_live_line_writer():
    buf = io.StringIO()
    writer = LiveLineWriter(buf)
    writer.update("one")
    writer.update("two")
    writer.finish()
    assert buf.getvalue() == "\rone\rtwo\n"


# --- cell reports ----------------------------------------------------------


def test_cell_report_success_and_failure():
    ok = cell_report(_FakeSpec(), _ok_outcome(), 1.5, cached=False)
    assert ok["ok"] is True
    assert ok["label"] == "Sys0/pe1000/RiFSSD"
    assert ok["spec_hash"] == "deadbeef"
    assert ok["page_reads"] == 100
    assert ok["retry_rate"] == pytest.approx(0.07)
    assert ok["io_bandwidth_mb_s"] > 0

    bad = cell_report(_FakeSpec(), _failed_outcome(), 0.0, cached=False)
    assert bad["ok"] is False
    assert bad["kind"] == "timeout"
    assert bad["attempts"] == 2
    # both shapes serialise cleanly
    json.dumps(ok)
    json.dumps(bad)


# --- progress reporters ----------------------------------------------------


def _drive(hook):
    hook.on_start(3)
    hook.on_result(_FakeSpec(), _ok_outcome(), 1.0, cached=False)
    hook.on_result(_FakeSpec(), _ok_outcome(), 0.0, cached=True)
    hook.on_result(_FakeSpec(), _failed_outcome(), 0.5, cached=False)
    hook.on_finish(2.0)


def test_jsonl_progress(tmp_path):
    path = tmp_path / "campaign.jsonl"
    hook = JsonlProgress(path)
    _drive(hook)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["event"] for r in records] == \
        ["start", "cell", "cell", "cell", "finish"]
    assert records[0]["total"] == 3
    assert records[2]["cached"] is True
    assert records[3]["ok"] is False
    assert records[-1] == {"event": "finish", "executed": 2, "cached": 1,
                           "wall_clock_s": 2.0}


def test_jsonl_progress_interrupt_flushes_and_closes(tmp_path):
    path = tmp_path / "campaign.jsonl"
    hook = JsonlProgress(path)
    hook.on_start(3)
    hook.on_result(_FakeSpec(), _ok_outcome(), 1.0, cached=False)
    hook.on_interrupt("terminated by signal 15")
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["event"] for r in records] == ["start", "cell", "interrupt"]
    assert records[-1]["reason"] == "terminated by signal 15"
    assert records[-1]["executed"] == 1
    assert hook.sink.closed  # flushed and closed: nothing buffered is lost


def test_live_progress():
    buf = io.StringIO()
    hook = LiveProgress(buf)
    _drive(hook)
    out = buf.getvalue()
    assert out.endswith("\n")
    assert "[campaign 3/3]" in out
    assert "1 cached" in out
    assert "1 FAILED" in out
    assert hook.failed == 1
    assert hook.completed == 3


def test_multi_progress_fans_out(tmp_path):
    live_buf = io.StringIO()
    path = tmp_path / "multi.jsonl"
    live, jsonl = LiveProgress(live_buf), JsonlProgress(path)
    _drive(MultiProgress([live, jsonl]))
    assert live.completed == 3
    assert len(path.read_text().splitlines()) == 5
