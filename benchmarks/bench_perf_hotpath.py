"""Hot-path micro-benchmark suite: optimized kernels vs seed references.

Unlike the figure benchmarks, the artefact here is the *speedup table* of
the pinned :mod:`repro.perf.bench_gate` micro suite — vectorized LDPC
syndrome kernels, batched sensing, memoized reliability samplers — and
the qualitative claim is that every optimization actually pays for
itself (ratio above the gate's tolerance-relaxed floor).

The end-to-end metrics-overhead cell is exercised by the CI
``bench-smoke`` job via ``python -m repro.perf check``; re-timing it here
would add wall time for no extra signal.
"""

from repro.perf.bench_gate import (
    DEFAULT_TOLERANCE,
    run_suite,
)


def test_micro_kernels_beat_references(benchmark):
    results = benchmark.pedantic(
        lambda: run_suite(reps=3, include_e2e=False),
        rounds=1,
        iterations=1,
    )
    print()
    for r in results:
        print(f"  {r.name:<24s} {r.speedup:6.2f}x "
              f"(opt {r.optimized_s * 1e3:7.2f} ms, "
              f"ref {r.reference_s * 1e3:7.2f} ms)")
    for r in results:
        floor = r.floor * (1.0 - DEFAULT_TOLERANCE)
        assert r.speedup >= floor, (
            f"{r.name}: {r.speedup:.2f}x below its {floor:.2f}x floor"
        )
