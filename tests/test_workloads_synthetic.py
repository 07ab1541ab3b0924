"""Synthetic workload generators vs the Table-II targets."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigError, TraceError
from repro.workloads import WORKLOADS, characterize, generate, workload_names
from repro.workloads.synthetic import WorkloadSpec, _zipf_page
from repro.workloads.trace import READ, WRITE, IORequest

REPO_ROOT = Path(__file__).resolve().parents[1]


def _reference_requests(spec, n_requests, user_pages, seed,
                        page_size=16 * 1024):
    """The generator with numpy's per-request ``rng.choice(sizes,
    p=weights)`` size draw: the reference for the one-time size CDF."""
    rng = np.random.default_rng(seed)
    hot_pages = max(4, int(user_pages * spec.hot_fraction))
    cold_pages = user_pages - hot_pages
    hot_base = cold_pages
    sizes = np.array(spec.sizes)
    weights = np.array(spec.size_weights, dtype=float)
    weights = weights / weights.sum()
    requests = []
    t = 0.0
    for _ in range(n_requests):
        t += float(rng.exponential(spec.mean_interarrival_us))
        size = int(rng.choice(sizes, p=weights))
        n_pages = max(1, math.ceil(size / page_size))
        if rng.random() < spec.read_ratio:
            op = READ
            if rng.random() < spec.cold_read_ratio:
                page = int(rng.integers(0, max(cold_pages - n_pages, 1)))
            else:
                page = hot_base + _zipf_page(rng, max(hot_pages - n_pages, 1),
                                             spec.hot_skew)
        else:
            op = WRITE
            page = hot_base + _zipf_page(rng, max(hot_pages - n_pages, 1),
                                         spec.hot_skew)
        requests.append(IORequest(timestamp_us=t, op=op,
                                  offset_bytes=page * page_size,
                                  size_bytes=size))
    return requests


def test_all_eight_paper_workloads_present():
    assert workload_names() == [
        "Ali2", "Ali46", "Ali81", "Ali121", "Ali124", "Ali295", "Sys0", "Sys1",
    ]


def test_table2_targets_recorded():
    assert WORKLOADS["Ali124"].read_ratio == 0.96
    assert WORKLOADS["Ali124"].cold_read_ratio == 0.79
    assert WORKLOADS["Ali2"].read_ratio == 0.27
    assert WORKLOADS["Sys1"].cold_read_ratio == 0.83


@pytest.mark.parametrize("name", ["Ali2", "Ali124", "Sys0"])
def test_generated_trace_hits_targets(name):
    spec = WORKLOADS[name]
    trace = generate(name, n_requests=4000, user_pages=20000, seed=3)
    stats = characterize(trace)
    assert stats.read_ratio == pytest.approx(spec.read_ratio, abs=0.03)
    assert stats.cold_read_ratio == pytest.approx(spec.cold_read_ratio, abs=0.04)


def test_generation_deterministic():
    a = generate("Ali81", n_requests=100, user_pages=5000, seed=9)
    b = generate("Ali81", n_requests=100, user_pages=5000, seed=9)
    for ra, rb in zip(a, b):
        assert ra == rb


def test_different_seeds_differ():
    a = generate("Ali81", n_requests=100, user_pages=5000, seed=1)
    b = generate("Ali81", n_requests=100, user_pages=5000, seed=2)
    assert any(ra != rb for ra, rb in zip(a, b))


def test_requests_stay_inside_user_space():
    trace = generate("Sys1", n_requests=2000, user_pages=3000, seed=4)
    assert max(r.lpns()[-1] for r in trace) < 3000


def test_timestamps_nondecreasing_poisson():
    trace = generate("Ali46", n_requests=500, user_pages=5000, seed=5)
    times = [r.timestamp_us for r in trace]
    assert times == sorted(times)
    # mean inter-arrival near the spec
    spec = WORKLOADS["Ali46"]
    mean_gap = times[-1] / len(times)
    assert mean_gap == pytest.approx(spec.mean_interarrival_us, rel=0.2)


def test_writes_never_touch_cold_region():
    trace = generate("Ali2", n_requests=3000, user_pages=10000, seed=6)
    spec = WORKLOADS["Ali2"]
    hot_base = 10000 - max(4, int(10000 * spec.hot_fraction))
    for req in trace:
        if not req.is_read:
            assert req.lpns()[0] >= hot_base


def test_custom_spec():
    spec = WorkloadSpec("custom", read_ratio=1.0, cold_read_ratio=1.0)
    trace = generate(spec, n_requests=200, user_pages=5000, seed=7)
    stats = characterize(trace)
    assert stats.read_ratio == 1.0
    assert stats.cold_read_ratio == 1.0


def test_validation():
    with pytest.raises(TraceError):
        generate("Ali2", n_requests=0)
    with pytest.raises(TraceError):
        generate("Ali2", n_requests=10, user_pages=4)


def test_spec_validation():
    from repro.errors import ConfigError
    with pytest.raises(ConfigError):
        WorkloadSpec("bad", read_ratio=1.4, cold_read_ratio=0.5)
    with pytest.raises(ConfigError):
        WorkloadSpec("bad", read_ratio=0.5, cold_read_ratio=0.5, hot_fraction=0.0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [0, 7, 11, 2024])
def test_size_cdf_matches_per_request_choice(name, seed):
    """Bisecting one uniform draw into the once-built size CDF picks the
    same size from the same stream position as ``rng.choice``."""
    spec = WORKLOADS[name]
    trace = generate(name, n_requests=1500, user_pages=20000, seed=seed)
    assert list(trace) == _reference_requests(spec, 1500, 20000, seed)


def test_skewed_size_weights_match_per_request_choice():
    spec = WorkloadSpec("skewed", read_ratio=0.5, cold_read_ratio=0.5,
                        sizes=(4096, 16384, 65536, 1 << 20),
                        size_weights=(3.0, 0.0, 1e-3, 7.0))
    trace = generate(spec, n_requests=2000, user_pages=50000, seed=5)
    assert list(trace) == _reference_requests(spec, 2000, 50000, 5)


@pytest.mark.parametrize("weights", [(1.0, -0.5), (0.0, 0.0),
                                     (1.0, float("nan")),
                                     (1.0, float("inf"))])
def test_bad_size_weights_rejected(weights):
    spec = WorkloadSpec("bad", read_ratio=0.5, cold_read_ratio=0.5,
                        sizes=(4096, 8192), size_weights=weights)
    with pytest.raises(ConfigError):
        generate(spec, n_requests=10, user_pages=1000, seed=1)


def test_unseeded_generation_is_stable_across_processes():
    """Without a seed the stream is seeded from the workload name, which
    must not go through the per-process salted ``str`` hash."""
    script = ("from repro.workloads import generate\n"
              "for r in generate('Ali2', n_requests=5, user_pages=2000):\n"
              "    print(r)\n")
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60,
                              check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("\n") == 5
