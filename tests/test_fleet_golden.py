"""Golden-digest regression pins for the fleet pipeline.

``tests/test_kernel_equivalence.py`` proves each vectorized kernel
bitwise-equal to its loop reference; these tests pin the *end-to-end*
fleet output the same way.  :func:`repro.fleet.result_digest` hashes
every scored number a run produced (per-home trace digests, all detector
MCCs/accuracies, utility scores, energy costs) while excluding runtime
facts, so the digest is a stable fingerprint of the whole
simulate→defend→attack pipeline.

The sweep pins do the same for :class:`~repro.fleet.SweepRunner`: one
digest per grid cell, computed when every cell was still its own fleet
run, so a sweep that shares each home's simulation and baseline across
cells must reproduce a per-cell run bit for bit — digests and cache
entry bytes alike.

If a future kernel or refactor PR changes one of these values, it
changed observable results — either fix the regression or, if the change
is an intentional semantic fix, re-pin the digests *in that PR* with the
rationale in its message.  The digests were produced by the pure-Python/
NumPy pipeline (no platform-dependent fast math), so they are expected
to be stable across platforms and supported interpreter versions.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from repro.fleet import (
    BACKENDS,
    FleetRunner,
    FleetSpec,
    SweepGrid,
    SweepRunner,
    result_digest,
    run_fleet,
)

#: the pinned presets: two use the dialed-defense (``name@setting``)
#: path so the knob mapping layer is inside the pinned surface; between
#: them they cover the NILL, stepped and CHPr defenses at both dial ends
GOLDEN = {
    "home-a": (
        FleetSpec(
            n_homes=2, days=1, seed=7,
            mix=("home-a",), defenses=("dp-laplace", "smoothing"),
        ),
        "571484cd72af1bafeba36b5cc9f64a151e83e43cee208d9b6116cbba09c0ca3a",
    ),
    "fig2": (
        FleetSpec(
            n_homes=2, days=1, seed=11,
            mix=("fig2",), defenses=("nill", "chpr@0.5"),
        ),
        "df720c0cf4b132b7f39927f6111fe2012dad96a0d241764f8953998206b45265",
    ),
    "random": (
        FleetSpec(
            n_homes=2, days=1, seed=13,
            mix=("random",), defenses=("stepped", "chpr@1"),
        ),
        "4ff17b130b0e5cad66647675ed19dd4cb0f680ea0479dd4f942ff50cc9ce276d",
    ),
}


@pytest.fixture(scope="module")
def golden_run():
    """Memoized ``(preset, backend)`` fleet runs for the parity matrix."""
    cache = {}

    def get(preset, backend):
        if (preset, backend) not in cache:
            spec, _ = GOLDEN[preset]
            workers = 1 if backend == "serial" else 2
            cache[(preset, backend)] = run_fleet(
                spec, workers=workers, backend=backend
            )
        return cache[(preset, backend)]

    return get


class TestGoldenDigests:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("preset", sorted(GOLDEN))
    def test_preset_digest_on_every_backend(self, golden_run, preset, backend):
        """The backend-parity matrix: 2 backends x 3 pinned presets.

        One pinned constant per preset — not per (preset, backend) — is
        the whole point: every executor backend must reproduce the
        reference pipeline bit for bit.
        """
        _, expected = GOLDEN[preset]
        assert result_digest(golden_run(preset, backend)) == expected

    @pytest.mark.parametrize("preset", sorted(GOLDEN))
    def test_backends_agree_home_for_home(self, golden_run, preset):
        reference = golden_run(preset, "process")
        for backend in BACKENDS:
            result = golden_run(preset, backend)
            assert [h.trace_digest for h in result.homes] == [
                h.trace_digest for h in reference.homes
            ], backend

    def test_cache_entries_are_backend_invariant(self, tmp_path):
        """Byte-identical cache entries no matter which backend wrote them.

        A serial result shares string objects with its job while a pool
        result was rebuilt by the pipe round-trip; the cache
        canonicalizer must erase that difference before pickling.
        """
        spec, _ = GOLDEN["home-a"]
        entries = {}
        for backend in BACKENDS:
            cache_dir = tmp_path / backend
            run_fleet(spec, workers=2, backend=backend, cache_dir=cache_dir)
            entries[backend] = {
                p.relative_to(cache_dir): p.read_bytes()
                for p in sorted(cache_dir.glob("*/*.pkl"))
            }
        assert len(entries["process"]) == spec.n_homes
        for backend in BACKENDS:
            assert entries[backend] == entries["process"], backend

    def test_digest_ignores_runtime_facts(self, tmp_path):
        """Cache-replayed and fresh runs of one spec share a digest."""
        spec, expected = GOLDEN["home-a"]
        fresh = run_fleet(spec, cache_dir=tmp_path)
        replayed = run_fleet(spec, cache_dir=tmp_path)
        assert replayed.executed == 0
        assert result_digest(fresh) == result_digest(replayed) == expected

    def test_digest_ignores_telemetry(self):
        spec, expected = GOLDEN["fig2"]
        observed = run_fleet(spec, telemetry=True)
        assert result_digest(observed) == expected

    def test_digest_is_sensitive_to_results(self):
        """Sanity: the digest actually covers the scored numbers."""
        spec, expected = GOLDEN["home-a"]
        result = run_fleet(spec)
        tweaked = replace(
            result,
            results=[replace(result.homes[0], energy_kwh=0.0)]
            + result.homes[1:],
        )
        assert result_digest(tweaked) != expected

    def test_specs_disagree(self):
        """The pinned presets are genuinely different pipelines."""
        assert len({digest for _, digest in GOLDEN.values()}) == len(GOLDEN)


#: a sweep grid mixing a fixed preset with a ``random`` one, over two
#: seeds, two defenses and two dial positions: 8 cells x 2 homes
GOLDEN_GRID = SweepGrid(
    defenses=("dp-laplace", "nill"),
    settings=(0.5, 1.0),
    n_homes=2,
    days=1,
    seeds=(3, 4),
    mix=("home-a", "random"),
)
GOLDEN_CELLS = {
    "dp-laplace@0.5 seed=3":
        "b08feac79c4d3cc3c3e191cdf416976d7a61f6b5232f614d114f1bb7a6e953e9",
    "dp-laplace@0.5 seed=4":
        "19934d6c79ce144b63cb1ab411dcb05de9c15a2fc5ef00cb0f60509edb938f32",
    "dp-laplace@1 seed=3":
        "9884fbec0b5c8db5fbd949c1cb5188a526a96e9b88f7f17194bdc1bd0061a921",
    "dp-laplace@1 seed=4":
        "17f3a67c4c4218c011c8d9ba5ab1568bc0d737f2f3ce49552131c55dbbaca7f0",
    "nill@0.5 seed=3":
        "103b1f83ef7f68d4d418fed7722b2160f19e4659eaec643fe7f8cf6708db36fd",
    "nill@0.5 seed=4":
        "8206541e4be0354c0e68bf8cf14f5586b83c30163a82a819426d3412f481f9f1",
    "nill@1 seed=3":
        "1a95367536ee126db81702b74cd7c472b01eac7d7ac1ea0f8fe91ebdac9ba5a3",
    "nill@1 seed=4":
        "a52e7d143c9c2c154a91e799a4c33fdb723029aab8545a2a73f322ecb3051d6a",
}


#: sha256 of the bytes GOLDEN_GRID's ``frontier().to_json(path)`` and
#: ``.to_csv(path)`` write: the sweep's exported deliverable, pinned
GOLDEN_FRONTIER_JSON = (
    "6c65a59bb09510e80dd5cc855c1d2b7a201a3101b34344468f554e3fb10012a4"
)
GOLDEN_FRONTIER_CSV = (
    "128705dfb0333935e527f5a36d0302dd0ae4a345d69fc1818a348eab777e9d41"
)


def export_digests(frontier, out: Path) -> tuple[str, str]:
    """sha256 of the JSON and CSV files a frontier report writes."""
    json_path, csv_path = out / "frontier.json", out / "frontier.csv"
    frontier.to_json(json_path)
    frontier.to_csv(csv_path)
    return tuple(
        hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (json_path, csv_path)
    )


def cache_entries(cache_dir: Path) -> dict:
    return {
        p.relative_to(cache_dir): p.read_bytes()
        for p in sorted(cache_dir.glob("*/*.pkl"))
    }


@pytest.fixture(scope="module")
def per_cell_entries(tmp_path_factory):
    """Cache entries written by one plain fleet run per grid cell."""
    cache_dir = tmp_path_factory.mktemp("per-cell")
    runner = FleetRunner(cache_dir=cache_dir)
    for cell in GOLDEN_GRID.cells():
        runner.run(GOLDEN_GRID.cell_spec(cell))
    return cache_entries(cache_dir)


class TestGoldenSweep:
    HOME_CELLS = GOLDEN_GRID.n_cells * GOLDEN_GRID.n_homes

    def test_per_cell_runs_write_one_entry_per_home_cell(
        self, per_cell_entries
    ):
        assert len(per_cell_entries) == self.HOME_CELLS

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cell_digests_on_every_backend(
        self, per_cell_entries, backend, tmp_path
    ):
        workers = 1 if backend == "serial" else 2
        result = SweepRunner(workers, tmp_path, backend=backend).run(
            GOLDEN_GRID
        )
        digests = {c.cell.label(): result_digest(c.fleet) for c in result.cells}
        assert digests == GOLDEN_CELLS
        assert result.executed == self.HOME_CELLS
        # the sweep's cache entries are the ones per-cell runs write
        assert cache_entries(tmp_path) == per_cell_entries
        assert export_digests(result.frontier(), tmp_path) == (
            GOLDEN_FRONTIER_JSON,
            GOLDEN_FRONTIER_CSV,
        )

    def test_half_filled_cache_runs_only_the_misses(
        self, per_cell_entries, tmp_path
    ):
        """The grid-extension shape: half the home-cells are cached."""
        SweepRunner(cache_dir=tmp_path).run(
            replace(GOLDEN_GRID, settings=(0.5,))
        )
        result = SweepRunner(2, tmp_path).run(GOLDEN_GRID)
        for cell_result in result.cells:
            cached = cell_result.cell.setting == 0.5
            misses = 0 if cached else GOLDEN_GRID.n_homes
            assert cell_result.fleet.executed == misses
            label = cell_result.cell.label()
            assert result_digest(cell_result.fleet) == GOLDEN_CELLS[label]
        assert result.executed == self.HOME_CELLS // 2
        assert cache_entries(tmp_path) == per_cell_entries
