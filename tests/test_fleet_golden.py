"""Golden-digest regression pins for the fleet pipeline.

``tests/test_kernel_equivalence.py`` proves each vectorized kernel
bitwise-equal to its loop reference; these tests pin the *end-to-end*
fleet output the same way.  :func:`repro.fleet.result_digest` hashes
every scored number a run produced (per-home trace digests, all detector
MCCs/accuracies, utility scores, energy costs) while excluding runtime
facts, so the digest is a stable fingerprint of the whole
simulate→defend→attack pipeline.

If a future kernel or refactor PR changes one of these values, it
changed observable results — either fix the regression or, if the change
is an intentional semantic fix, re-pin the digests *in that PR* with the
rationale in its message.  The digests were produced by the pure-Python/
NumPy pipeline (no platform-dependent fast math), so they are expected
to be stable across platforms and supported interpreter versions.
"""

from dataclasses import replace

import pytest

from repro.fleet import BACKENDS, FleetSpec, result_digest, run_fleet

#: the pinned presets: one uses the dialed-defense (``name@setting``)
#: path so the knob mapping layer is inside the pinned surface
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
        """The backend-parity matrix: 2 backends x 2 pinned presets.

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
            homes=[replace(result.homes[0], energy_kwh=0.0)]
            + result.homes[1:],
        )
        assert result_digest(tweaked) != expected

    def test_specs_disagree(self):
        """The two pinned presets are genuinely different pipelines."""
        assert GOLDEN["home-a"][1] != GOLDEN["fig2"][1]
