"""Command-line interface: ``python -m repro <command>``.

Exposes the library's main workflows without writing Python:

* ``simulate`` — generate a home's metered trace (CSV out);
* ``attack`` — score the NIOM ensemble on a simulated home;
* ``defend`` — apply a registered defense to a trace and re-attack it;
* ``localize`` — run SunSpot/Weatherman on a solar generation trace;
* ``knob`` — sweep the Sec. III-E privacy knob over a simulated home;
* ``fleet`` — evaluate a population of homes in parallel, with caching;
* ``sweep`` — fan a (defense × knob setting × seed) grid over the fleet
  and export the privacy-utility frontier (Fig. 6 at population scale);
* ``stream`` — replay a trace (or fleet) as a live chunked feed through
  the online attack registry, reporting results and throughput;
* ``claims`` — evaluate a TOML/JSON privacy-claims file against
  sweep/netpriv/stream JSON artifacts into a certification report;
* ``info`` — list registered attacks, defenses, and home presets
  (``--json`` for machine-readable registries).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .datasets import dump_json
from .home.presets import preset_names
from .timeseries import SECONDS_PER_DAY, SECONDS_PER_HOUR


def _split(text: str, kind: type = str) -> tuple:
    """A comma-separated flag value as a tuple of ``kind``; blanks skipped."""
    return tuple(kind(item.strip()) for item in text.split(",") if item.strip())


def _add_home_args(p: argparse.ArgumentParser) -> None:
    """The shared single-home selection flags, sourced from the preset
    registry so subcommands can't drift as presets are added."""
    p.add_argument("--home", default="home-b", choices=preset_names())
    p.add_argument("--days", type=int, default=7)
    p.add_argument("--seed", type=int, default=0)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Private Memoirs of IoT Devices — attacks and defenses "
        "for IoT sensor-data privacy (ICDCS 2018 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a home and export its metered trace")
    _add_home_args(p)
    p.add_argument("--out", default="metered.csv", help="CSV output path")

    p = sub.add_parser("attack", help="score the NIOM ensemble on a simulated home")
    _add_home_args(p)

    p = sub.add_parser("defend", help="apply a defense and re-run the attack")
    p.add_argument("defense", help="registered defense name (see 'info')")
    _add_home_args(p)

    p = sub.add_parser("localize", help="localize a solar generation trace")
    p.add_argument("--trace", help="CSV generation trace (default: simulate a site)")
    p.add_argument("--lat", type=float, default=40.01, help="true latitude (for error report)")
    p.add_argument("--lon", type=float, default=-105.27, help="true longitude")
    p.add_argument("--days", type=int, default=365)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--method", default="weatherman", choices=["sunspot", "weatherman", "both"])

    p = sub.add_parser("knob", help="sweep the privacy knob over a simulated home")
    p.add_argument("--days", type=int, default=7)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=6)

    p = sub.add_parser(
        "fleet",
        help="evaluate a population of homes (parallel, cached)",
        description="Simulate N homes, sweep defenses and the NIOM ensemble "
        "over each, and report population distributions of the "
        "privacy/utility/cost tradeoff.",
    )
    p.add_argument("--homes", type=int, default=20, help="population size")
    p.add_argument("--days", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (<=1 runs serially in-process)")
    p.add_argument("--backend", default="process",
                   choices=["serial", "process"],
                   help="executor backend: serial (in-process) or process "
                   "(one pool job per home); both are bit-identical")
    p.add_argument("--mix", default="random",
                   help="comma-separated preset names cycled over the fleet "
                   f"(from: {', '.join(preset_names())})")
    p.add_argument("--defenses", default="all",
                   help="comma-separated defense names, or 'all'")
    p.add_argument("--cache-dir", default=None,
                   help="result-cache directory (re-sweeps only pay for new "
                   "cells; results stream in as they complete, so a killed "
                   "run resumes from what finished)")
    p.add_argument("--max-retries", type=int, default=2,
                   help="retries per home after its first failed attempt")
    p.add_argument("--job-timeout", type=float, default=None,
                   help="per-home wall-clock timeout in seconds (needs "
                   "--workers > 1; hung jobs are killed and retried)")
    p.add_argument("--fail-fast", action="store_true",
                   help="abort the sweep at the first permanent home failure "
                   "(default: keep going, report partial results)")
    p.add_argument("--csv", default=None,
                   help="export the report as CSV (failures, if any, go to "
                   "a sibling .failures.csv)")
    p.add_argument("--json", default=None,
                   help="export the report as JSON (includes the failure summary)")
    p.add_argument("--telemetry", default=None, metavar="PATH",
                   help="collect per-stage counters/timers (simulate, "
                   "defend, attack, cache traffic, retries) and write the "
                   "merged fleet telemetry as JSON to PATH")
    p.add_argument("--profile", default=None, metavar="DIR",
                   help="wrap each worker job in cProfile and dump one "
                   "home-<index>-<key>-a<attempt>.pstats file per job "
                   "into DIR")

    p = sub.add_parser(
        "sweep",
        help="knob-grid sweep over the fleet; exports the frontier",
        description="Fan a (defense x knob setting x seed) grid over the "
        "fleet engine and reduce each cell to privacy-utility "
        "frontier points (attack MCC, load-profile distortion, "
        "billing error, extra energy).  The grid comes from "
        "--grid FILE (TOML/JSON) or from the inline flags.",
    )
    p.add_argument("--grid", default=None, metavar="FILE",
                   help="grid file (.toml or .json) holding defenses/"
                   "settings/n_homes/days/seeds/mix/detectors; mutually "
                   "exclusive with the inline grid flags")
    p.add_argument("--defenses", default=None,
                   help="comma-separated defense names with knob mappings "
                   "(see 'info')")
    p.add_argument("--settings", default="0,0.33,0.67,1",
                   help="comma-separated knob settings in [0, 1]")
    p.add_argument("--homes", type=int, default=20, help="population size per cell")
    p.add_argument("--days", type=int, default=1)
    p.add_argument("--seeds", default="0", help="comma-separated fleet seeds")
    p.add_argument("--mix", default="random",
                   help="comma-separated preset names cycled over each fleet "
                   f"(from: {', '.join(preset_names())})")
    p.add_argument("--shard", default="1/1", metavar="I/N",
                   help="run only cells I-1::N of the canonical cell order "
                   "(round-robin partition; shards share work via --cache-dir)")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes shared by the shard's home jobs "
                   "(<=1 runs serially)")
    p.add_argument("--backend", default="process",
                   choices=["serial", "process"],
                   help="executor backend for the shard's home jobs "
                   "(see 'fleet --help')")
    p.add_argument("--cache-dir", default=None,
                   help="fleet result cache shared across cells, shards, and "
                   "re-runs; a killed sweep resumes from what finished")
    p.add_argument("--max-retries", type=int, default=2)
    p.add_argument("--job-timeout", type=float, default=None,
                   help="wall-clock timeout per home job, which simulates a "
                   "home once and scores every cell it owes (needs "
                   "--workers > 1)")
    p.add_argument("--fail-fast", action="store_true",
                   help="abort the shard at its first permanent home failure")
    p.add_argument("--csv", default=None,
                   help="export the frontier points as CSV")
    p.add_argument("--json", default=None,
                   help="export the frontier points as JSON")
    p.add_argument("--telemetry", default=None, metavar="PATH",
                   help="collect per-stage counters/timers, merge them "
                   "across all cells, and write the sweep telemetry JSON")
    p.add_argument("--profile", default=None, metavar="DIR",
                   help="per-job cProfile dumps (one "
                   "home-<index>-<key>-a<attempt>.pstats per home job)")
    p.add_argument("--check-monotone", action="store_true",
                   help="fail (exit 1) if any (defense, seed) series has "
                   "attack MCC rising with the knob setting")
    p.add_argument("--tolerance", type=float, default=0.05,
                   help="MCC noise tolerance for --check-monotone")

    p = sub.add_parser(
        "netpriv",
        help="traffic-defense arms race over simulated LANs; exports the frontier",
        description="Fan a (defense x knob setting x seed) grid of LAN "
        "simulations through the netpriv traffic shapers, attack each "
        "cell with both a naive attacker (trained on raw traffic) and "
        "an adaptive one (retrained on shaped traffic), and reduce the "
        "grid to a privacy-utility frontier: occupancy MCC and device-"
        "fingerprint accuracy per attacker generation vs. cover MB/day "
        "and added delay.",
    )
    p.add_argument("--defenses", default="cover,constant-rate,merge,jitter",
                   help="comma-separated netpriv defense names with knob "
                   "mappings (see 'info')")
    p.add_argument("--settings", default="0,0.5,1",
                   help="comma-separated knob settings in [0, 1]")
    p.add_argument("--seeds", default="0", help="comma-separated grid seeds")
    p.add_argument("--lans", type=int, default=1,
                   help="independent LAN simulations per cell")
    p.add_argument("--days", type=int, default=2,
                   help="simulated days per LAN")
    p.add_argument("--lan", default="small",
                   help="LAN composition name (small: 9 devices for smokes; "
                   "default: the 24-device home)")
    p.add_argument("--shard", default="1/1", metavar="I/N",
                   help="run only cells I-1::N of the canonical cell order")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (<=1 runs serially)")
    p.add_argument("--backend", default="process",
                   choices=["serial", "process"],
                   help="executor backend (see 'fleet --help')")
    p.add_argument("--max-retries", type=int, default=2)
    p.add_argument("--job-timeout", type=float, default=None,
                   help="per-LAN-job wall-clock timeout (needs --workers > 1)")
    p.add_argument("--fail-fast", action="store_true",
                   help="abort at the first permanent job failure")
    p.add_argument("--csv", default=None,
                   help="export the frontier points as CSV")
    p.add_argument("--json", default=None,
                   help="export the frontier points as JSON")
    p.add_argument("--telemetry", default=None, metavar="PATH",
                   help="collect netpriv.flows / stage.shape / "
                   "stage.fingerprint telemetry and write the snapshot JSON")
    p.add_argument("--check-monotone", action="store_true",
                   help="fail (exit 1) if any (defense, seed) series has the "
                   "ADAPTIVE attacker's occupancy MCC rising with the dial")
    p.add_argument("--tolerance", type=float, default=0.05,
                   help="MCC noise tolerance for --check-monotone")

    p = sub.add_parser(
        "stream",
        help="online attack evaluation over a chunked meter feed",
        description="Replay a trace (or a simulated home's metered feed) "
        "as fixed-size sample chunks through the streamed attack "
        "registry (edge detection, online NIOM, filtering HMM/FHMM "
        "decode) and report per-attack results and throughput.  With "
        "--homes N a whole fleet is scored online.",
    )
    p.add_argument("--trace", help="CSV trace to replay (default: simulate --home)")
    _add_home_args(p)
    p.add_argument("--attacks", default="edges,niom",
                   help="comma-separated streamed attack names "
                   "(see 'info --json' for the registry)")
    p.add_argument("--chunk", type=int, default=60,
                   help="chunk size in samples (results are provably "
                   "chunk-size invariant; this only shifts throughput)")
    p.add_argument("--lag", type=int, default=0,
                   help="bounded-lag smoothing window in samples for the "
                   "hmm/fhmm decoders (0 = pure filtering)")
    p.add_argument("--value-policy", default="hold-last",
                   choices=["drop", "hold-last", "zero-fill"],
                   help="feed-guard policy for NaN/inf/negative samples")
    p.add_argument("--gap-policy", default="resync",
                   choices=["hold", "fill", "resync"],
                   help="feed-guard policy for clock gaps (resync resets "
                   "attack seam state at the discontinuity)")
    p.add_argument("--max-gap", type=int, default=0,
                   help="declare the feed dead after a gap of more than N "
                   "samples (0 disables the watchdog)")
    p.add_argument("--checkpoint", default=None, metavar="DIR",
                   help="write periodic session checkpoints to DIR so a "
                   "killed run can --resume")
    p.add_argument("--checkpoint-every", type=int, default=3600,
                   help="samples between checkpoint writes")
    p.add_argument("--resume", action="store_true",
                   help="resume from the checkpoint in --checkpoint DIR "
                   "(bitwise-identical to an uninterrupted run)")
    p.add_argument("--homes", type=int, default=0,
                   help="fleet mode: stream N simulated homes instead of "
                   "one trace")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes for fleet mode")
    p.add_argument("--max-retries", type=int, default=2,
                   help="fleet mode: retries per home after the first "
                   "failed attempt")
    p.add_argument("--job-timeout", type=float, default=None,
                   help="fleet mode: per-home wall-clock timeout in "
                   "seconds (requires --workers > 1)")
    p.add_argument("--mix", default="random",
                   help="fleet-mode preset mix "
                   f"(from: {', '.join(preset_names())})")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="export the full metrics document (results, "
                   "throughput, samples/sec) as JSON")
    p.add_argument("--telemetry", default=None, metavar="PATH",
                   help="collect stage.stream.* timers and stream.samples "
                   "counters and write the snapshot JSON")

    p = sub.add_parser(
        "claims",
        help="evaluate a privacy-claims file against sweep artifacts",
        description="Load declarative privacy claims (TOML/JSON) and check "
        "them against repro sweep / netpriv / stream JSON "
        "artifacts, producing per-claim verdicts, coverage, and "
        "a certification report. Exit codes: 0 all pass, 1 any "
        "fail, 2 bad input, 3 inconclusive (untested claims).",
    )
    p.add_argument("--claims", required=True,
                   help="claim file (.toml or .json); see docs/CLAIMS.md")
    p.add_argument("--artifact", action="append", default=[], metavar="PATH",
                   help="artifact JSON to evaluate against (repeatable); "
                   "kind is sniffed from the file shape")
    p.add_argument("--md", help="write the certification report as Markdown")
    p.add_argument("--json", help="write the certification report as JSON")
    p.add_argument("--strict-coverage", action="store_true",
                   help="also fail (exit 3) when some artifact cell is "
                   "constrained by no claim")

    p = sub.add_parser("info", help="list registered attacks, defenses, presets")
    p.add_argument("--json", action="store_true",
                   help="emit the registries as JSON (machine-readable)")
    return parser


def _read_trace(command: str, path: str):
    """The trace CSV at ``path``, or ``None`` after one stderr line saying
    why it cannot be read (a missing file or a malformed CSV)."""
    from .datasets import load_trace_csv

    try:
        return load_trace_csv(path)
    except (OSError, ValueError) as exc:
        print(f"{command}: cannot read --trace: {exc}", file=sys.stderr)
        return None


def _home_config(name: str, seed: int):
    from .home import make_preset

    return make_preset(name, seed)


def cmd_simulate(args) -> int:
    from .datasets import save_trace_csv
    from .home import simulate_home

    sim = simulate_home(_home_config(args.home, args.seed), args.days, rng=args.seed)
    save_trace_csv(sim.metered, args.out)
    print(f"simulated {args.home} for {args.days} days "
          f"({sim.metered.energy_kwh():.1f} kWh, peak {sim.metered.max():.0f} W)")
    print(f"metered trace written to {args.out}")
    return 0


def cmd_attack(args) -> int:
    from .core import occupancy_privacy
    from .home import simulate_home

    sim = simulate_home(_home_config(args.home, args.seed), args.days, rng=args.seed)
    score = occupancy_privacy(sim.metered, sim.occupancy)
    print("NIOM ensemble on the metered trace:")
    for name, mcc in score.per_detector_mcc.items():
        acc = score.per_detector_accuracy[name]
        print(f"  {name:14s} mcc {mcc:+.3f}  accuracy {acc:.2%}")
    print(f"worst case: mcc {score.worst_case_mcc:+.3f}")
    return 0


def cmd_defend(args) -> int:
    from .core import evaluate_defense_outcome, make_defense, occupancy_privacy
    from .home import simulate_home

    sim = simulate_home(_home_config(args.home, args.seed), args.days, rng=args.seed)
    before = occupancy_privacy(sim.metered, sim.occupancy)
    defense = make_defense(args.defense)
    outcome = defense.apply(sim.metered, np.random.default_rng(args.seed))
    point = evaluate_defense_outcome(args.defense, outcome, sim.metered, sim.occupancy)
    print(f"defense: {args.defense}")
    print(f"  attack mcc: {before.worst_case_mcc:.3f} -> "
          f"{point.privacy.worst_case_mcc:.3f}")
    print(f"  utility: {point.utility.composite():.2f}")
    print(f"  extra energy: {point.extra_energy_kwh:+.1f} kWh")
    return 0


def _localize_min_days(method: str) -> int:
    """Fewest whole days of generation ``localize --method`` can localize."""
    from .solar import SunSpot, Weatherman

    needs = []
    if method in ("sunspot", "both"):
        needs.append(SunSpot.min_days)
    if method in ("weatherman", "both"):
        needs.append(Weatherman.min_days)
    return max(needs)


def _unlocalizable(trace, method: str) -> str | None:
    """Why ``--method`` cannot run on ``trace``, or ``None``: a trace
    shorter than the attacks need, or one Weatherman cannot resample to
    hourly data."""
    days = trace.duration_s / SECONDS_PER_DAY
    need = _localize_min_days(method)
    if days < need:
        return (f"--trace spans {days:.2f} days; --method {method} needs "
                f"at least {need}")
    if method != "sunspot":
        per_hour = SECONDS_PER_HOUR / trace.period_s
        if per_hour < 1 or abs(per_hour - round(per_hour)) > 1e-9:
            return (f"--trace period {trace.period_s:g} s does not divide the "
                    f"hour --method {method} resamples to")
    return None


def cmd_localize(args) -> int:
    from .solar import (
        LatLon,
        SolarSite,
        SunSpot,
        WeatherField,
        Weatherman,
        WeatherStationDB,
        simulate_generation,
    )

    truth = LatLon(args.lat, args.lon)
    weather = WeatherField()
    if args.trace:
        trace = _read_trace("localize", args.trace)
        if trace is None:
            return 2
        problem = _unlocalizable(trace, args.method)
        if problem is not None:
            print(f"localize: {problem}", file=sys.stderr)
            return 2
    else:
        print(f"simulating {args.days} days of generation at "
              f"({truth.lat:.2f}, {truth.lon:.2f})...")
        trace = simulate_generation(SolarSite("cli", truth), args.days, 60.0, weather, rng=args.seed)
    if args.method in ("sunspot", "both"):
        result = SunSpot().localize(trace)
        print(f"SunSpot:    ({result.estimate.lat:.3f}, {result.estimate.lon:.3f}) "
              f"— {result.error_km(truth):.1f} km from the stated truth")
    if args.method in ("weatherman", "both"):
        stations = WeatherStationDB(weather)
        hourly = trace.resample(3600.0) if trace.period_s < 3600.0 else trace
        result = Weatherman(stations).localize(hourly)
        print(f"Weatherman: ({result.estimate.lat:.3f}, {result.estimate.lon:.3f}) "
              f"— {result.error_km(truth):.1f} km from the stated truth")
    return 0


def cmd_knob(args) -> int:
    from .core import PrivacyKnob, sweep_knob
    from .home import home_b, simulate_home

    sim = simulate_home(home_b(), args.days, rng=args.seed)
    settings = np.linspace(0.0, 1.0, args.steps)
    points = sweep_knob(PrivacyKnob(), sim.metered, sim.occupancy, settings, rng=args.seed)
    print(f"{'knob':>6s} {'attack_mcc':>11s} {'utility':>8s} {'extra_kwh':>10s}")
    for setting, point in zip(settings, points):
        print(f"{setting:6.2f} {point.privacy.worst_case_mcc:11.3f} "
              f"{point.utility.composite():8.2f} {point.extra_energy_kwh:10.1f}")
    return 0


def cmd_fleet(args) -> int:
    from .fleet import FleetReport, FleetSpec, run_fleet

    try:
        spec = FleetSpec(
            n_homes=args.homes,
            days=args.days,
            seed=args.seed,
            mix=_split(args.mix),
            defenses=None if args.defenses == "all" else _split(args.defenses),
        )
    except ValueError as exc:
        print(f"fleet: {exc}", file=sys.stderr)
        return 2
    result = run_fleet(spec, **_supervisor(args))

    def print_failures():
        for failure in result.failures:
            print(f"  FAILED home {failure.index} ({failure.preset}): "
                  f"{failure.kind} after {failure.attempts} attempt(s) "
                  f"in {failure.elapsed_s:.1f}s — {failure.error}")

    if not result.homes:
        print(f"fleet: all {result.n_failed} home(s) failed; no report")
        print_failures()
        return 1

    report = FleetReport.from_result(result)
    total = report.n_homes + report.n_failed
    print(f"fleet: {report.n_homes} homes x {report.days} days "
          f"(mix: {', '.join(report.mix)}; seed {report.seed})")
    print(report.format_table())
    print(f"population energy: mean {report.energy_kwh.mean:.1f} kWh "
          f"(p10 {report.energy_kwh.p10:.1f}, p90 {report.energy_kwh.p90:.1f})")
    cached = total - report.executed
    line = (f"ran {report.executed}/{total} homes "
            f"({cached} cached) on {report.workers_used} worker(s) "
            f"in {report.elapsed_s:.2f}s")
    if report.cache is not None:
        line += f"; cache hit rate {report.cache['hit_rate']:.0%}"
    if report.pool_rebuilds:
        line += f"; {report.pool_rebuilds} pool rebuild(s)"
    print(line)
    if report.failures:
        print(f"WARNING: {report.n_failed}/{total} home(s) failed "
              "(distributions cover survivors only)")
        print_failures()
    if args.csv:
        for path in report.to_csv(args.csv):
            print(f"report CSV written to {path}")
    if args.json:
        report.to_json(args.json)
        print(f"report JSON written to {args.json}")
    if args.telemetry and report.telemetry is not None:
        dump_json(report.telemetry, args.telemetry)
        timers = report.telemetry["totals"]["timers"]
        stages = {
            name.split(".", 1)[1]: stat["total_s"]
            for name, stat in timers.items()
            if name.startswith("stage.") and name != "stage.job"
        }
        if stages:
            breakdown = ", ".join(
                f"{name} {seconds:.2f}s" for name, seconds in stages.items()
            )
            print(f"telemetry: {breakdown}")
        print(f"telemetry JSON written to {args.telemetry}")
    if args.profile:
        print(f"per-home cProfile dumps written to {args.profile}/")
    return 1 if report.failures else 0


def cmd_sweep(args) -> int:
    from .fleet import SweepError, SweepGrid, load_grid, parse_shard

    inline_grid_flags = args.defenses is not None
    try:
        if args.grid is not None and inline_grid_flags:
            raise SweepError("--grid and --defenses are mutually exclusive")
        if args.grid is not None:
            grid = load_grid(args.grid)
        elif inline_grid_flags:
            grid = SweepGrid(
                defenses=_split(args.defenses),
                settings=_split(args.settings, float),
                n_homes=args.homes,
                days=args.days,
                seeds=_split(args.seeds, int),
                mix=_split(args.mix),
            )
        else:
            raise SweepError("need --grid FILE or --defenses (see 'info' for names)")
        shard = parse_shard(args.shard)
    except (SweepError, ValueError) as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 2

    result = _run_grid(
        args, grid, shard, f"{grid.n_homes} homes x {grid.days} day(s)"
    )
    for cell_result in result.cells:
        fleet = cell_result.fleet
        cached = fleet.n_homes + fleet.n_failed - fleet.executed
        line = (f"  cell {cell_result.cell.label():<24s} "
                f"{fleet.n_homes} homes ({cached} cached)")
        if fleet.failures:
            line += f"  [{fleet.n_failed} FAILED]"
        print(line)
    frontier = result.frontier()
    print(frontier.format_table())
    home_cells = sum(c.fleet.n_homes + c.fleet.n_failed for c in result.cells)
    print(f"ran {result.executed}/{home_cells} home-cells "
          f"({home_cells - result.executed} cached) in {result.elapsed_s:.2f}s")
    if not result.ok:
        print(f"WARNING: {result.n_failed_homes} home-cell(s) failed "
              "(frontier covers survivors only)")
    return _finish_grid(args, result, frontier, "stage.job")


def cmd_netpriv(args) -> int:
    from .fleet import NetprivGrid, SweepError, parse_shard

    try:
        grid = NetprivGrid(
            defenses=_split(args.defenses),
            settings=_split(args.settings, float),
            seeds=_split(args.seeds, int),
            n_lans=args.lans,
            days=args.days,
            lan=args.lan,
        )
        shard = parse_shard(args.shard)
    except (SweepError, ValueError) as exc:
        print(f"netpriv: {exc}", file=sys.stderr)
        return 2

    result = _run_grid(
        args, grid, shard, f"{grid.n_lans} LAN(s) x {grid.days} day(s) [{grid.lan}]"
    )
    for job_result in result.results:
        outcome = job_result.outcome
        print(f"  {job_result.preset:<30s} "
              f"naive mcc {outcome.naive.occupancy_mcc:+.3f}  "
              f"adaptive mcc {outcome.adaptive.occupancy_mcc:+.3f}  "
              f"cover {outcome.cover_mb_per_day:.1f} MB/day")
    frontier = result.frontier()
    print(frontier.format_table())
    cell_lans = len(result.results) + result.n_failed
    print(f"ran {cell_lans} cell-LAN(s) in {result.lan_jobs} LAN job(s) "
          f"in {result.elapsed_s:.2f}s on {result.workers_used} worker(s)")
    if not result.ok:
        print(f"WARNING: {result.n_failed} cell-LAN(s) failed "
              "(frontier covers survivors only)")
    return _finish_grid(
        args, result, frontier, "stage.netpriv_job", {"netpriv.flows": "flows"}
    )


def _run_grid(args, grid, shard: tuple[int, int], population: str):
    """Print the opening line of ``sweep`` and ``netpriv``, run the shard."""
    from .fleet import SweepRunner, shard_cells

    n_shard_cells = len(shard_cells(grid.cells(), shard))
    print(f"{args.command}: {len(grid.defenses)} defense(s) x "
          f"{len(grid.settings)} setting(s) x {len(grid.seeds)} seed(s) "
          f"over {population}; "
          f"shard {shard[0]}/{shard[1]} runs {n_shard_cells}/{grid.n_cells} cells")
    return SweepRunner(**_supervisor(args)).run(grid, shard)


def _finish_grid(args, result, frontier, job_stage: str, counts=None) -> int:
    """The shared end of ``sweep`` and ``netpriv``.

    Writes the frontier CSV/JSON and the telemetry JSON, prints the
    telemetry line (each ``counts`` counter, then every ``stage.*`` timer
    but the per-job span ``job_stage``), and runs the monotone gate.
    Exit code: 1 on a gated violation or any failed job, else 0.
    """
    if args.csv:
        path = frontier.to_csv(args.csv)
        print(f"frontier CSV written to {path}")
    if args.json:
        frontier.to_json(args.json)
        print(f"frontier JSON written to {args.json}")
    if args.telemetry and result.telemetry is not None:
        telemetry = result.telemetry
        dump_json(telemetry.as_dict(), args.telemetry)
        parts = [
            f"{telemetry.counters.get(name, 0.0):.0f} {label}"
            for name, label in (counts or {}).items()
        ] + [
            f"{name.split('.', 1)[1]} {stat.total_s:.2f}s"
            for name, stat in telemetry.timers.items()
            if name.startswith("stage.") and name != job_stage
        ]
        if parts:
            print("telemetry: " + ", ".join(parts))
        print(f"{args.command} telemetry JSON written to {args.telemetry}")
    if getattr(args, "profile", None):
        print(f"per-job cProfile dumps written to {args.profile}/")

    violations = frontier.monotone_violations(args.tolerance)
    if violations:
        print(f"frontier monotonicity: {len(violations)} violation(s)")
        for violation in violations:
            print(f"  {violation}")
        if args.check_monotone:
            return 1
    elif args.check_monotone:
        print("frontier monotonicity: ok")
    return 1 if not result.ok else 0


def cmd_stream(args) -> int:
    from .stream import stream_attack_names

    attacks = _split(args.attacks)
    unknown = set(attacks) - set(stream_attack_names())
    if unknown:
        print(f"stream: unknown attacks {sorted(unknown)}; "
              f"available: {', '.join(stream_attack_names())}",
              file=sys.stderr)
        return 2
    if args.chunk < 1:
        print("stream: --chunk must be >= 1", file=sys.stderr)
        return 2
    if args.checkpoint_every < 1:
        print("stream: --checkpoint-every must be >= 1", file=sys.stderr)
        return 2
    if args.lag < 0:
        print("stream: --lag must be >= 0", file=sys.stderr)
        return 2
    attack_kwargs = {}
    if args.lag:
        for name in ("hmm", "fhmm"):
            if name in attacks:
                attack_kwargs[name] = {"lag": args.lag}

    try:
        guard_policy = _guard_policy(args)
    except ValueError as exc:
        print(f"stream: {exc}", file=sys.stderr)
        return 2
    if args.resume and not args.checkpoint:
        print("stream: --resume requires --checkpoint DIR", file=sys.stderr)
        return 2

    if args.homes:
        given = {"--trace": args.trace, "--checkpoint": args.checkpoint,
                 "--resume": args.resume}
        single = [flag for flag, value in given.items() if value]
        if single:
            print(f"stream: --homes cannot take {', '.join(single)} "
                  "(single-feed flags)", file=sys.stderr)
            return 2
        return _stream_fleet(args, attacks, attack_kwargs, guard_policy)

    import os

    from .obs import captured
    from .stream import (
        Checkpointer,
        StreamFaultPlan,
        TraceReplaySource,
        has_checkpoint,
        load_checkpoint,
        resume_mismatch,
        run_stream,
        simulated_meter_source,
    )

    resume = None
    if args.resume and has_checkpoint(args.checkpoint):
        try:
            resume = load_checkpoint(args.checkpoint)
            why = resume_mismatch(resume, attacks, attack_kwargs, guard_policy)
        except ValueError as exc:
            why = str(exc)
        if why is not None:
            print(f"stream: cannot resume from {args.checkpoint}: {why}",
                  file=sys.stderr)
            return 2
    if args.trace:
        trace = _read_trace("stream", args.trace)
        if trace is None:
            return 2
        source = TraceReplaySource(trace)
        feed = args.trace
    else:
        source = simulated_meter_source(args.home, args.days, args.seed)
        feed = f"{args.home} ({args.days} days, seed {args.seed})"

    kill_after = os.environ.get("REPRO_STREAM_KILL_AFTER")
    if resume is not None:
        print(f"stream: resuming from sample {resume[1]['cursor']} "
              f"({args.checkpoint})")
    with captured(enable=bool(args.telemetry)) as telemetry:
        report = run_stream(
            source,
            attacks,
            args.chunk,
            attack_kwargs,
            guard_policy,
            fault_plan=StreamFaultPlan.active(),
            checkpointer=(
                Checkpointer(args.checkpoint, args.checkpoint_every)
                if args.checkpoint
                else None
            ),
            kill_after=int(kill_after) if kill_after else None,
            resume=resume,
        )

    print(f"stream: {feed} — {report.total_samples} samples "
          f"in chunks of {args.chunk}")
    for name in attacks:
        stat = report.stats[name]
        if name not in report.results:
            continue
        summary = ", ".join(
            f"{k}={v:.3f}" if isinstance(v, float) else f"{k}={v}"
            for k, v in report.results[name].items()
            if not isinstance(v, list)
        )
        print(f"  {name:6s} {stat.samples_per_sec:12,.0f} samples/s  {summary}")
    for failure in report.failures:
        print(f"  FAILED attack {failure.name} in {failure.stage} at "
              f"sample {failure.at_sample}: {failure.error}")
    if report.guard:
        g = report.guard
        degraded = (
            g["quarantined_values"] or g["gap_samples"]
            or g["rejected_chunks"] or g["trimmed_samples"]
        )
        if degraded or report.feed_dead:
            print(f"  guard: {g['quarantined_values']} values quarantined, "
                  f"{g['gap_samples']} gap samples ({g['resyncs']} resyncs, "
                  f"{g['filled_samples']} filled), "
                  f"{g['rejected_chunks']} chunks rejected"
                  + (", FEED DEAD" if report.feed_dead else ""))
    score = report.niom_score
    if score is not None:
        print(f"  niom vs ground truth: accuracy {score['accuracy']:.2%}, "
              f"mcc {score['mcc']:+.3f}")
    doc = report.as_dict()
    if args.telemetry:
        doc["telemetry"] = telemetry.snapshot.as_dict()
        dump_json(doc["telemetry"], args.telemetry)
        print(f"telemetry JSON written to {args.telemetry}")
    if args.json:
        dump_json(doc, args.json)
        print(f"stream metrics JSON written to {args.json}")
    return 0 if report.ok else 1


def _guard_policy(args):
    from .stream import GuardPolicy

    return GuardPolicy(
        value_policy=args.value_policy,
        gap_policy=args.gap_policy,
        max_gap_samples=args.max_gap or None,
    )


def _stream_fleet(args, attacks, attack_kwargs, guard_policy) -> int:
    from .fleet import FleetRunner, FleetSpec

    try:
        spec = FleetSpec(
            n_homes=args.homes, days=args.days, seed=args.seed,
            mix=_split(args.mix),
        )
    except ValueError as exc:
        print(f"stream: {exc}", file=sys.stderr)
        return 2
    result = FleetRunner(**_supervisor(args)).run_streaming(
        spec,
        attacks=attacks,
        chunk_samples=args.chunk,
        attack_kwargs=attack_kwargs,
        guard_policy=guard_policy,
    )
    print(f"stream fleet: {len(result.results)} home(s) x {args.days} day(s) "
          f"on {result.workers_used} worker(s) in {result.elapsed_s:.2f}s")
    for home in result.results:
        parts = [f"{home.total_samples} samples"]
        if home.niom_score is not None:
            parts.append(f"niom mcc {home.niom_score['mcc']:+.3f}")
        best = max(
            (st.samples_per_sec for st in home.stats.values()), default=0.0
        )
        parts.append(f"peak {best:,.0f} samples/s")
        if home.feed_dead:
            parts.append("FEED DEAD")
        for failure in home.failures:
            parts.append(f"attack {failure.name} failed in {failure.stage}")
        print(f"  home {home.index} ({home.preset}): {', '.join(parts)}")
    for failure in result.failures:
        print(f"  FAILED home {failure.index} ({failure.preset}) after "
              f"{failure.attempts} attempt(s): {failure.error}")
    if args.json:
        dump_json({
            "n_homes": len(result.results),
            "elapsed_s": result.elapsed_s,
            "workers_used": result.workers_used,
            "ok": result.ok,
            "pool_rebuilds": result.pool_rebuilds,
            "homes": [home.as_dict() for home in result.results],
            "failures": [f.as_dict() for f in result.failures],
        }, args.json)
        print(f"stream fleet JSON written to {args.json}")
    if args.telemetry and result.telemetry is not None:
        dump_json(result.telemetry.as_dict(), args.telemetry)
        print(f"telemetry JSON written to {args.telemetry}")
    return 0 if result.ok else 1


def cmd_claims(args) -> int:
    from .claims import ClaimsError, evaluate_claims, load_claims
    from .fleet import ArtifactError, load_artifact

    if not args.artifact:
        print("claims: need at least one --artifact PATH", file=sys.stderr)
        return 2
    try:
        claim_set = load_claims(args.claims)
        artifacts = [load_artifact(path) for path in args.artifact]
    except (ClaimsError, ArtifactError) as exc:
        print(f"claims: {exc}", file=sys.stderr)
        return 2

    report = evaluate_claims(claim_set, artifacts)
    for art in report.artifacts:
        print(f"evidence: {art['source']} ({art['kind']}, "
              f"{art['cells']} cell(s))")
    print(report.format_table())
    if report.uncovered_claims:
        print("uncovered claims (no cell exercised them): "
              + ", ".join(report.uncovered_claims))
    if report.uncovered_cells:
        print(f"uncovered cells (no claim constrains them): "
              f"{len(report.uncovered_cells)}")

    if args.md:
        report.to_markdown(args.md)
        print(f"certification Markdown written to {args.md}")
    if args.json:
        report.to_json(args.json)
        print(f"certification JSON written to {args.json}")

    code = report.exit_code
    if code == 0 and args.strict_coverage and report.uncovered_cells:
        print("strict coverage: some cells are constrained by no claim")
        return 3
    return code


def cmd_info(args) -> int:
    from .core import defense_names, knob_mapping_names, niom_attack_names
    from .stream import stream_attack_names

    import repro.netpriv  # noqa: F401 — registers the netpriv knob domain

    netpriv_mappings = knob_mapping_names("netpriv")
    if getattr(args, "json", False):
        import json

        doc = {
            "home_presets": list(preset_names()),
            "niom_attacks": list(niom_attack_names()),
            "defenses": list(defense_names()),
            "knob_mappings": list(knob_mapping_names()),
            "netpriv_knob_mappings": list(netpriv_mappings),
            "stream_attacks": stream_attack_names(),
            "solar_attacks": ["sunspot", "weatherman"],
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    print(f"home presets:   {', '.join(preset_names())}")
    print(f"niom attacks:   {', '.join(niom_attack_names())}")
    print(f"defenses:       {', '.join(defense_names())}")
    print(f"knob mappings:  {', '.join(knob_mapping_names())} "
          "(sweepable as name@setting)")
    print(f"netpriv knobs:  {', '.join(netpriv_mappings)} "
          "(traffic shapers, sweepable via 'netpriv')")
    print(f"stream attacks: {', '.join(stream_attack_names())} "
          "(online, see 'stream')")
    print("solar attacks:  sunspot, weatherman (see 'localize')")
    return 0


def _supervisor(args) -> dict:
    """:class:`~repro.fleet.FleetRunner`'s arguments from the flags a
    supervised command defines."""
    kwargs = {
        "workers": args.workers,
        "max_retries": args.max_retries,
        "job_timeout": args.job_timeout,
        "telemetry": args.telemetry is not None,
    }
    for name, flag in (
        ("cache_dir", "cache_dir"),
        ("fail_fast", "fail_fast"),
        ("profile_dir", "profile"),
        ("backend", "backend"),
    ):
        if hasattr(args, flag):
            kwargs[name] = getattr(args, flag)
    return kwargs


def _preflight(args) -> str | None:
    """Why a command must not start, or ``None``: a day count below 1 (or,
    for a simulated ``localize``, below what ``--method`` needs), a knob
    step count below 1 or an unknown defense, and for a supervised
    command out-of-range supervisor and gate flags or a malformed fault
    plan in the env, are refused before anything is simulated or any job
    runs."""
    if getattr(args, "days", 1) < 1:
        return "--days must be >= 1"
    if args.command == "localize" and not args.trace:
        need = _localize_min_days(args.method)
        if args.days < need:
            return f"--method {args.method} needs --days >= {need}"
    if args.command == "knob" and args.steps < 1:
        return "--steps must be >= 1"
    if args.command == "defend":
        from .core.registry import RegistryError, defense_factory

        try:
            defense_factory(args.defense)
        except RegistryError as exc:
            return exc.args[0]
    if args.command not in SUPERVISED:
        return None

    from .fleet.faults import FaultPlan
    from .obs import FaultPlanError
    from .stream.faults import StreamFaultPlan

    if args.max_retries < 0:
        return "--max-retries must be >= 0"
    # written so that NaN fails too: a NaN tolerance passes every gate
    if args.job_timeout is not None and not args.job_timeout > 0:
        return "--job-timeout must be > 0"
    if not getattr(args, "tolerance", 0.0) >= 0:
        return "--tolerance must be >= 0"
    try:
        FaultPlan.active()
        StreamFaultPlan.active()
    except FaultPlanError as exc:
        return str(exc)
    return None


COMMANDS = {
    "simulate": cmd_simulate,
    "attack": cmd_attack,
    "defend": cmd_defend,
    "localize": cmd_localize,
    "knob": cmd_knob,
    "fleet": cmd_fleet,
    "sweep": cmd_sweep,
    "netpriv": cmd_netpriv,
    "stream": cmd_stream,
    "claims": cmd_claims,
    "info": cmd_info,
}


#: the commands that run jobs under the fleet supervisor
SUPERVISED = ("fleet", "sweep", "netpriv", "stream")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    problem = _preflight(args)
    if problem is not None:
        print(f"{args.command}: {problem}", file=sys.stderr)
        return 2
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
