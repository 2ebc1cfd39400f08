"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics: throughput, set-up time and
peak memory, plus the error rate and, on ``stream``, push latency.
``--trace 1`` runs the same untraced phase, then one traced pass over the
workload's inputs, and prints the per-layer metrics.  Human-readable lines
come first; the last two lines are a JSON record of the machine, the run
and the digests of its outputs, then the JSON result.  See
``perfbench/README.md``.
"""

# Set-up time starts before anything is imported, the program included.
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("sweep", "extend", "netpriv", "stream")

#: Each of these silently changes what is measured: injected faults,
#: program telemetry, per-job profiles.
REFUSED_ENV = (
    "REPRO_FLEET_FAULTS",
    "REPRO_STREAM_FAULTS",
    "REPRO_TELEMETRY",
    "REPRO_PROFILE_DIR",
)

#: Set-ups measured per untraced run: this process plus the probes.
SETUP_PROBES = 4


def refused_env(environ) -> list[str]:
    """The refused variables that are set in ``environ``."""
    return [name for name in REFUSED_ENV if name in environ]


def percentile(samples, pct: int) -> float | None:
    """The ``pct``-th percentile, or None without ten samples beyond it."""
    if len(samples) * (100 - pct) < 10 * 100:
        return None
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def git_rev(root: Path) -> str:
    """The checked-out commit, read from ``.git``; "unknown" without one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return "unknown"


def _cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _probe_setups(args) -> list[float]:
    """Set-up time of fresh processes doing this run's set-up."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--setup-probe",
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def _traced_pass(workload, work_dir: Path, untraced: list):
    """One traced pass over the inputs; returns (rounds, per-layer metrics)."""
    from layers import Phase, install_wrappers, layer_metrics
    from spans import Tracer
    from workloads import throughput

    trace_dir = Path(tempfile.mkdtemp(dir=work_dir))
    tracer = Tracer(trace_dir)
    tracer.describe_job = workload.describe_job
    tracer.install()
    try:
        install_wrappers(tracer)
        cpu_self = _cpu_s(resource.RUSAGE_SELF)
        cpu_children = _cpu_s(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        rounds = workload.traced_pass(tracer)
        wall = time.perf_counter() - start
        driver_cpu = _cpu_s(resource.RUSAGE_SELF) - cpu_self
        worker_cpu = _cpu_s(resource.RUSAGE_CHILDREN) - cpu_children
    finally:
        tracer.restore()
    phase = Phase(
        wall_s=wall,
        job_round_trip_s=sum(tracer.arrived) - sum(tracer.submitted),
        workers=workload.workers,
        worker_cpu_s=worker_cpu,
        driver_cpu_s=driver_cpu,
        push_latencies_s=tuple(t for r in untraced for t in r.latencies),
        traced_throughput=throughput(rounds, reference=False),
        untraced_throughput=throughput(untraced, reference=False),
    )
    return rounds, layer_metrics(tracer.collect(), phase, percentile)


def _line(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name:<34} {value:>16.6g} {unit:<6} {note}".rstrip())


def run(args, work_dir: Path) -> int:
    import numpy
    from hostspeed import at_reference
    from workloads import WORKLOADS, throughput

    workload = WORKLOADS[args.workload](args.seed, work_dir)
    workload.setup()
    setup_s = time.perf_counter() - _T0
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    untraced = workload.measure(args.seconds)
    peak_rss_mb = _peak_rss_mb()
    rounds = list(untraced)
    if args.trace:
        traced, layer = _traced_pass(workload, work_dir, untraced)
        rounds += traced
    else:
        setups = [setup_s] + _probe_setups(args)

    attempted = sum(r.units for r in rounds)
    failed = sum(r.failed for r in rounds)
    wrong = [w for r in rounds for w in r.wrong]
    unit = workload.unit
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds}")
    for line in sorted(set(wrong)):
        print(f"# WRONG OUTPUT: {line}")

    if args.trace:
        from layers import PER_LAYER_UNITS

        metrics = {
            name: {"value": layer[name], "unit": PER_LAYER_UNITS[name]}
            for name in PER_LAYER_UNITS
        }
        for name, metric in metrics.items():
            _line(name, metric["value"], metric["unit"])
        samples = {"traced_rounds": len(rounds) - len(untraced)}
    else:
        latencies = [t for r in untraced for t in r.latencies]
        setup_raw = statistics.median(setups)
        # set-ups happen seconds from the rounds, inside the same spell of
        # host speed: the rounds' calibrations scale them too
        calibration = statistics.median(r.calibration_s for r in untraced)
        metrics = {
            "throughput": {"value": throughput(untraced), "unit": "1/s"},
            "setup_s": {"value": at_reference(setup_raw, calibration), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
        _line("throughput", metrics["throughput"]["value"], "1/s",
              f"n={len(untraced)} rounds, median per client, {unit}s per "
              "second at reference host speed")
        _line("throughput_raw", throughput(untraced, reference=False), "1/s",
              "the same, unscaled")
        _line("setup_s", metrics["setup_s"]["value"], "s",
              f"median of n={len(setups)} set-ups at reference host speed")
        _line("setup_raw_s", setup_raw, "s", "the same, unscaled")
        _line("peak_rss_mb", peak_rss_mb, "MiB", "n=1 (main process + largest worker)")
        _line("error_rate", failed / attempted, "ratio",
              f"n={attempted} {unit}s, {failed} failed")
        for pct in (50, 95, 99):
            value = percentile(latencies, pct)
            if value is not None:
                _line(f"latency_p{pct}_ms", value * 1e3, "ms",
                      f"n={len(latencies)} pushes")
        samples = {
            "rounds": len(untraced),
            "setups": len(setups),
            "pushes": len(latencies),
        }

    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "unit": unit,
        "samples": samples,
        "digests": workload.digests(),
        "machine": {
            "cpus": os.cpu_count(),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "git_rev": git_rev(ROOT),
        },
    }, sort_keys=True))
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    refused = refused_env(os.environ)
    if refused:
        print(f"perfbench: refusing to run while {', '.join(refused)} "
              "is set: it changes what is measured", file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    tmp_root = ROOT / ".perfbench-tmp"
    tmp_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        return run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
