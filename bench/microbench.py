"""Per-layer microbenches, run in a fresh interpreter of their own.

Usage: python3 microbench.py SRC_DIR OUT_JSON

Times ``import scipy.stats`` first (nothing else is imported yet), then
service draws per second for every service kind (lomax and pareto with
beta 1.4) and microseconds per call of ``tail_from_cycles``, ``fit_tail``,
``q_root`` and ``vdk_tail``. Each figure is the median of several timed
blocks.
"""

import json
import os
import statistics
import sys
import time


def per_call(fn, calls: int, blocks: int = 5) -> float:
    """Median seconds per call of ``fn()`` over ``blocks`` blocks of ``calls`` calls."""
    times = []
    for _ in range(blocks):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t0) / calls)
    return statistics.median(times)


def draw_seconds(sampler, rng, n: int = 100_000, blocks: int = 5) -> float:
    """Median seconds per draw, timing a loop of ``n`` draws per block."""
    times = []
    for _ in range(blocks):
        t0 = time.perf_counter()
        for _ in range(n):
            sampler(rng)
        times.append((time.perf_counter() - t0) / n)
    return statistics.median(times)


def main() -> int:
    src, out = sys.argv[1:3]
    t0 = time.perf_counter()
    import scipy.stats  # noqa: F401  (timed alone, before jsqlab pulls it in)

    import_scipy_s = time.perf_counter() - t0

    sys.path.insert(0, os.path.abspath(src))
    import random

    from jsqlab import (
        KINDS,
        TailVector,
        fit_tail,
        make_sampler,
        make_spec,
        q_root,
        simulate_cycles,
        tail_from_cycles,
        vdk_tail,
    )

    rng = random.Random(12345)
    metrics = {"cli.import_scipy_s": import_scipy_s}
    for k in KINDS:
        spec = make_spec(k, 1.4 if k in ("lomax", "pareto") else None)
        metrics[f"service_dist.{k}_draws_per_s"] = 1.0 / draw_seconds(make_sampler(spec), rng)

    stats = simulate_cycles(TailVector.geometric(0.5, 64), make_spec("exponential"), 0.5, 2, 2000, rng)
    metrics["cavity.tail_from_cycles_us"] = 1e6 * per_call(lambda: tail_from_cycles(stats), 200)
    rows = [(k, 0.5**k, 0.95 * 0.5**k, 1.05 * 0.5**k) for k in range(31)]
    metrics["fitting.fit_us"] = 1e6 * per_call(lambda: fit_tail(rows, "exponential"), 500)
    metrics["analytic.q_root_us"] = 1e6 * per_call(lambda: q_root(2, 2, 0.5), 500)
    metrics["analytic.vdk_tail_us"] = 1e6 * per_call(lambda: vdk_tail(0.5, 2, 3), 20_000)

    with open(out, "w", encoding="utf-8") as f:
        json.dump(metrics, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
