"""Fleet engine scaling: worker counts and the result cache.

The fleet engine's claims are operational rather than figure-shaped: the
same population must (a) score identically no matter how it is executed,
(b) cost nearly nothing to re-sweep thanks to the content-addressed
cache, and (c) be able to spread across worker processes.
``test_fleet_scaling`` measures all three on one 16-home fleet.

Speedup is reported but not asserted: a CI box may expose a single CPU,
where a process pool legitimately loses to serial.
"""

import os
import tempfile
import time

from bench_util import once, print_table
from repro.fleet import FleetReport, FleetSpec, run_fleet

SPEC = FleetSpec(n_homes=16, days=2, seed=11, defenses=("dp-laplace", "nill"))


def test_fleet_scaling(benchmark):
    timings: dict[str, float] = {}
    reports: dict[str, FleetReport] = {}

    def experiment():
        with tempfile.TemporaryDirectory() as cache_dir:
            t0 = time.perf_counter()
            serial = run_fleet(SPEC, workers=1)
            timings["serial"] = time.perf_counter() - t0

            t0 = time.perf_counter()
            parallel = run_fleet(SPEC, workers=4)
            timings["parallel(4)"] = time.perf_counter() - t0

            t0 = time.perf_counter()
            cold = run_fleet(SPEC, workers=1, cache_dir=cache_dir)
            timings["cache cold"] = time.perf_counter() - t0

            t0 = time.perf_counter()
            warm = run_fleet(SPEC, workers=1, cache_dir=cache_dir)
            timings["cache warm"] = time.perf_counter() - t0

            reports["serial"] = FleetReport.from_result(serial)
            reports["parallel"] = FleetReport.from_result(parallel)
            reports["warm"] = FleetReport.from_result(warm)
            return warm

    warm = once(benchmark, experiment)

    rows = [
        [mode, elapsed, SPEC.n_homes / elapsed if elapsed > 0 else float("inf")]
        for mode, elapsed in timings.items()
    ]
    print_table(
        f"fleet scaling — {SPEC.n_homes} homes x {SPEC.days} days "
        f"({os.cpu_count()} cpus)",
        ["mode", "seconds", "homes/s"],
        rows,
    )
    print(f"parallel speedup: {timings['serial'] / timings['parallel(4)']:.2f}x")
    print(f"warm-cache speedup: {timings['cache cold'] / timings['cache warm']:.1f}x")
    print(f"warm-cache hit rate: {warm.cache_stats.hit_rate:.0%}")

    # correctness claims: identical reports however executed, and a warm
    # re-sweep that is all hits and much cheaper than the cold pass
    assert reports["serial"].comparable(reports["parallel"])
    assert reports["serial"].comparable(reports["warm"])
    assert warm.cache_stats.hit_rate >= 0.9
    assert timings["cache warm"] < timings["cache cold"] / 2
