"""Forward-compatible serialisation: schema versioning and unknown keys.

The contract: a reader at schema N must load payloads written by schema
N+1 (extra keys are ignored) and payloads written before the observability
fields existed (missing keys take defaults).  The version stamp itself is
informational — tooling can warn on it, loading never requires it.
"""

import json
from hashlib import sha256

import pytest

from repro.campaign import SPEC_SCHEMA_VERSION, ResultCache, RunSpec, execute
from repro.ssd import RESULT_SCHEMA_VERSION, SimulationResult
from repro.ssd.metrics import ChannelUsage, SimMetrics

FAST = dict(n_requests=40, user_pages=2000, queue_depth=16)


def _result() -> SimulationResult:
    metrics = SimMetrics(host_read_bytes=4096, elapsed_us=10.0)
    metrics.record_read_latency(12.5)
    usage = ChannelUsage(cor=1.0, uncor=0.5, write=0.25, gc=0.0,
                         eccwait=0.125, idle=8.125)
    return SimulationResult(policy="RiFSSD", pe_cycles=1000.0,
                            workload="Sys0", metrics=metrics,
                            channel_usage=usage)


def test_result_payload_is_versioned():
    data = _result().to_dict()
    assert data["schema_version"] == RESULT_SCHEMA_VERSION
    # the stamp survives a JSON round-trip and does not break loading
    assert SimulationResult.from_dict(json.loads(json.dumps(data))) == _result()


def test_unknown_keys_ignored_at_every_level():
    data = _result().to_dict()
    data["future_field"] = {"nested": True}
    data["metrics"]["future_counter"] = 42
    data["channel_usage"]["future_tag"] = 1.5
    data["metrics"]["read_latency_hist"]["future_knob"] = "x"
    assert SimulationResult.from_dict(data) == _result()


def test_channel_usage_requires_known_fields():
    with pytest.raises(TypeError):
        ChannelUsage.from_dict({"cor": 1.0})  # truncated entry = corrupt


def test_pre_histogram_payload_loads_with_defaults():
    """A payload written before the obs fields existed (schema 1) loads;
    the histograms default to empty."""
    data = _result().to_dict()
    del data["schema_version"]
    del data["metrics"]["read_latency_hist"]
    del data["metrics"]["write_latency_hist"]
    del data["metrics"]["keep_raw_latencies"]
    loaded = SimulationResult.from_dict(data)
    assert loaded.metrics.read_latencies_us == [12.5]
    assert loaded.metrics.read_latency_hist.count == 0
    assert loaded.metrics.keep_raw_latencies is True


def test_cache_roundtrip_and_forward_compat(tmp_path):
    """Acceptance: cached payloads carry schema_version, and a record
    annotated by a future writer still loads equal."""
    spec = RunSpec(workload="Sys0", policy="RiFSSD", pe_cycles=1000.0,
                   seed=3, **FAST)
    cache = ResultCache(tmp_path)
    result = execute(spec)
    cache.put(spec, result)

    _, _, identity, body = cache.path.read_bytes().rstrip(b"\n").split(b"\t")
    stored = json.loads(body)
    assert stored["schema_version"] == RESULT_SCHEMA_VERSION
    assert ResultCache(tmp_path).get(spec) == result

    # a future writer adds result-level keys the current reader ignores
    # (and, like any writer, stamps the record's content checksum)
    stored["schema_version"] = RESULT_SCHEMA_VERSION + 1
    stored["future_summary"] = {"p99_us": 1.0}
    stored["metrics"]["future_counter"] = 7
    body = json.dumps(stored, sort_keys=True, separators=(",", ":")).encode()
    future = b"\t".join((sha256(identity).hexdigest().encode(),
                         sha256(body).hexdigest().encode(),
                         identity, body)) + b"\n"
    cache.path.write_bytes(future)
    assert ResultCache(tmp_path).get(spec) == result

    # but a record whose spec no longer matches its hash reads as a miss
    # (quarantined)
    schema = f'"schema":{SPEC_SCHEMA_VERSION}'.encode()
    cache.path.write_bytes(future.replace(schema, b'"schema":-1'))
    with pytest.warns(RuntimeWarning, match="quarantined"):
        assert ResultCache(tmp_path).get(spec) is None
