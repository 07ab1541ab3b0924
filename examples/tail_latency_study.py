#!/usr/bin/env python3
"""Fig.-19-style tail-latency study: how retries shape the read-latency CDF.

Runs the read-heaviest workload (Ali124) at three wear levels under four
schemes and prints latency percentiles plus a coarse ASCII CDF — showing
the retry tail that RiF removes.

Run:  python examples/tail_latency_study.py
"""

from repro import SSDSimulator, generate, small_test_config

POLICIES = ("SENC", "SWR", "SWR+", "RiFSSD")
PERCENTILES = (50, 90, 99, 99.9)


def ascii_cdf(hist, max_us, width=60) -> str:
    """One character per latency step: the CDF at ``target`` reaches q %
    exactly when the q-th percentile is at or below ``target``."""
    tail = hist.summary()
    line = []
    for i in range(width):
        target = (i + 1) / width * max_us
        line.append("#" if tail["p999_us"] <= target else
                    "+" if tail["p99_us"] <= target else
                    "-" if tail["p50_us"] <= target else ".")
    return "".join(line)


def main() -> None:
    config = small_test_config()
    trace = generate("Ali124", n_requests=1200, user_pages=10_000, seed=11)

    for pe in (0, 2000):
        print(f"\n=== Ali124 at {pe} P/E cycles ===")
        print(f"{'policy':8s}" + "".join(f"{f'p{q}':>10s}" for q in PERCENTILES)
              + f"{'mean':>10s}")
        results = {}
        for policy in POLICIES:
            ssd = SSDSimulator(config, policy=policy, pe_cycles=pe, seed=13)
            results[policy] = ssd.run_trace(trace).metrics
            m = results[policy]
            row = f"{policy:8s}"
            for q in PERCENTILES:
                row += f"{m.read_latency_percentile(q):9.0f}u"
            row += f"{m.read_latency_hist.mean():9.0f}u"
            print(row)
        max_us = max(m.read_latency_percentile(99.9)
                     for m in results.values())
        print("\nCDF (x axis 0.." + f"{max_us:.0f} us; . <50%  - <99%  + <99.9%  # beyond)")
        for policy in POLICIES:
            cdf = ascii_cdf(results[policy].read_latency_hist, max_us)
            print(f"{policy:8s}|{cdf}|")

    print("\nAt high wear the reactive schemes grow a long retry tail; "
          "RiF's curve stays steep\nbecause a retried page costs one extra "
          "in-die sense instead of an extra round trip.")


if __name__ == "__main__":
    main()
