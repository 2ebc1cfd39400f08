"""Tests for the privacy-claims DSL: model, artifacts, engine, CLI.

The CLI exit-code contract is the load-bearing part: 0 = every claim
passed, 1 = at least one failed, 2 = malformed claims/artifact input,
3 = inconclusive claims but no failures.  A malformed or foreign
artifact must refuse loudly (exit 2), never evaluate to "no violations".
"""

import json
import re

import pytest

from repro.claims import (
    ClaimsError,
    ClaimsReport,
    evaluate_claims,
    load_claims,
)
from repro.cli import main
from repro.core.claims import Claim, ClaimSet, Selector, Span, parse_span
from repro.fleet import FrontierReport, NetprivFrontierReport
from repro.fleet.artifacts import (
    Artifact,
    ArtifactError,
    ArtifactRow,
    artifact_from_dict,
    artifact_from_report,
    load_artifact,
)


def _stats(value: float) -> dict:
    return {k: value for k in ("mean", "median", "p10", "p90", "min", "max")}


def _sweep_doc(points) -> dict:
    """points: iterable of (defense, setting, seed, mcc, bill_error)."""
    return {
        "points": [
            {
                "defense": d, "setting": s, "seed": seed,
                "n_homes": 2, "n_failed": 0,
                "mcc": _stats(mcc),
                "distortion_w": _stats(1.0),
                "bill_error": _stats(bill),
                "extra_kwh": _stats(0.1),
            }
            for d, s, seed, mcc, bill in points
        ]
    }


def _netpriv_doc(points) -> dict:
    """points: iterable of (defense, setting, seed, naive, adaptive)."""
    return {
        "points": [
            {
                "defense": d, "setting": s, "seed": seed,
                "n_lans": 1, "n_failed": 0,
                "naive_mcc": _stats(naive),
                "adaptive_mcc": _stats(adaptive),
                "naive_fingerprint_acc": _stats(0.9),
                "adaptive_fingerprint_acc": _stats(0.9),
                "cover_mb_per_day": _stats(10.0),
                "mean_added_delay_s": _stats(1.0),
            }
            for d, s, seed, naive, adaptive in points
        ]
    }


SWEEP = _sweep_doc([
    ("nill", 0.0, 0, 0.9, 0.0),
    ("nill", 1.0, 0, 0.4, 0.1),
])
NETPRIV = _netpriv_doc([
    ("cover", 0.0, 0, 0.85, 0.75),
    ("cover", 1.0, 0, 0.00, 0.70),
])


class TestSpanAndSelector:
    def test_span_grammar(self):
        assert parse_span("*", "settings").is_any
        assert parse_span(None, "settings").is_any
        assert parse_span(0.5, "settings").contains(0.5)
        assert not parse_span(0.5, "settings").contains(0.6)
        assert parse_span([0, 1], "settings").contains(1.0)
        assert parse_span(">=0.5", "settings").contains(0.5)
        assert not parse_span(">0.5", "settings").contains(0.5)
        assert parse_span("<=0.5", "settings").contains(0.5)
        assert not parse_span("<0.5", "settings").contains(0.5)
        span = parse_span("0.25..0.75", "settings")
        assert span.contains(0.25) and span.contains(0.75)
        assert not span.contains(0.8)

    @pytest.mark.parametrize("bad", ["", ">=x", "1..0", [], ["a"], {}, True])
    def test_span_rejects_garbage(self, bad):
        with pytest.raises(ClaimsError):
            parse_span(bad, "settings")

    def test_constrained_span_rejects_none_coordinate(self):
        assert Span().contains(None)
        assert not parse_span(">=0.5", "settings").contains(None)

    def test_selector_globs_and_axes(self):
        sel = Selector.from_dict(
            {"defenses": ["constant-*"], "settings": ">=0.5", "seeds": [0]}
        )
        assert sel.matches("constant-rate", 1.0, 0)
        assert not sel.matches("cover", 1.0, 0)
        assert not sel.matches("constant-rate", 0.0, 0)
        assert not sel.matches("constant-rate", 1.0, 1)
        assert not sel.matches(None, 1.0, 0)

    def test_selector_unknown_key_refused(self):
        with pytest.raises(ClaimsError, match="unknown selector keys"):
            Selector.from_dict({"attacker": "naive"})


class TestClaimModel:
    def test_threshold_needs_op_and_bound(self):
        with pytest.raises(ClaimsError, match="op"):
            Claim.from_dict({"id": "x", "metric": "mcc.mean", "bound": 0.3})
        with pytest.raises(ClaimsError, match="bound"):
            Claim.from_dict({"id": "x", "metric": "mcc.mean", "op": "<="})

    def test_unknown_keys_refused(self):
        with pytest.raises(ClaimsError, match="unknown keys"):
            Claim.from_dict({"id": "x", "metric": "m", "op": "<=",
                             "bound": 1, "severity": "high"})

    def test_duplicate_ids_refused(self):
        doc = {"claims": [
            {"id": "a", "metric": "m", "op": "<=", "bound": 1},
            {"id": "a", "metric": "m", "op": "<=", "bound": 2},
        ]}
        with pytest.raises(ClaimsError, match="duplicate claim id"):
            ClaimSet.from_dict(doc)

    def test_load_toml_and_json_roundtrip(self, tmp_path):
        toml = tmp_path / "claims.toml"
        toml.write_text(
            'title = "t"\n\n[[claim]]\nid = "a"\nmetric = "mcc.mean"\n'
            'op = "<="\nbound = 0.3\n\n[claim.where]\nsettings = ">=0.5"\n'
        )
        cs = load_claims(toml)
        assert cs.claims[0].where.settings.contains(0.7)
        as_json = tmp_path / "claims.json"
        as_json.write_text(json.dumps(cs.as_dict()))
        # the JSON re-load parses the described selector back
        cs2 = load_claims(as_json)
        assert cs2.claims[0].id == "a"

    def test_load_rejects_bad_files(self, tmp_path):
        missing = tmp_path / "nope.toml"
        with pytest.raises(ClaimsError, match="cannot read"):
            load_claims(missing)
        bad = tmp_path / "bad.toml"
        bad.write_text("this is = not [ toml")
        with pytest.raises(ClaimsError, match="bad TOML"):
            load_claims(bad)
        wrong_ext = tmp_path / "claims.yaml"
        wrong_ext.write_text("x")
        with pytest.raises(ClaimsError, match="toml or .json"):
            load_claims(wrong_ext)


class TestArtifacts:
    def test_sniffs_sweep_and_netpriv_and_stream(self):
        assert artifact_from_dict(SWEEP, "s").kind == "sweep-frontier"
        assert artifact_from_dict(NETPRIV, "n").kind == "netpriv-frontier"
        stream = {"total_samples": 10, "chunk_samples": 5, "duration_s": 1.0,
                  "ok": True, "results": {"niom": {"mcc": 0.5}},
                  "throughput": {"niom": {"samples_per_sec": 100.0}},
                  "failures": [], "guard": None}
        art = artifact_from_dict(stream, "st")
        assert art.kind == "stream"
        row = art.rows[0]
        assert row.defense is None and row.setting is None
        assert row.metrics["results.niom.mcc"] == 0.5
        assert row.metrics["failures"] == 0.0

    def test_netpriv_gains_adaptive_advantage(self):
        art = artifact_from_dict(NETPRIV, "n")
        by_label = {r.label: r for r in art.rows}
        assert by_label["cover@1 seed=0"].metrics[
            "adaptive_advantage"] == pytest.approx(0.70)

    def test_foreign_artifact_refused(self):
        with pytest.raises(ArtifactError, match="unrecognised artifact"):
            artifact_from_dict({"accuracy": 0.9, "loss": 0.1}, "foreign")
        with pytest.raises(ArtifactError, match="neither the sweep axes"):
            artifact_from_dict(
                {"points": [{"defense": "x", "setting": 0, "seed": 0}]}, "f"
            )
        with pytest.raises(ArtifactError, match="no points"):
            artifact_from_dict({"points": []}, "empty")

    def test_load_artifact_refuses_bad_json(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text("{ not json")
        with pytest.raises(ArtifactError, match="bad JSON"):
            load_artifact(path)
        with pytest.raises(ArtifactError, match="cannot read"):
            load_artifact(tmp_path / "missing.json")

    def test_from_frontier_report_object(self, tmp_path):
        from repro.fleet.frontier import FrontierReport

        path = tmp_path / "frontier.json"
        path.write_text(json.dumps(SWEEP))
        report = FrontierReport.from_json(path)
        art = artifact_from_report(report)
        assert art.kind == "sweep-frontier"
        assert len(art.rows) == len(report.points)


class TestEngine:
    def _artifacts(self):
        return [artifact_from_dict(SWEEP, "sweep"),
                artifact_from_dict(NETPRIV, "netpriv")]

    def _report(self, claims) -> ClaimsReport:
        return evaluate_claims(
            ClaimSet.from_dict({"title": "t", "claims": claims}),
            self._artifacts(),
        )

    def test_threshold_pass_fail_inconclusive(self):
        report = self._report([
            {"id": "ok", "metric": "bill_error.p90", "op": "<=", "bound": 0.2},
            {"id": "bad", "metric": "mcc.mean", "op": "<=", "bound": 0.1},
            {"id": "gap", "metric": "mcc.mean", "op": "<=", "bound": 0.5,
             "where": {"defenses": ["jitter"]}},
        ])
        verdicts = {v.claim.id: v for v in report.verdicts}
        assert verdicts["ok"].verdict == "pass"
        assert verdicts["bad"].verdict == "fail"
        assert "mcc.mean = 0.9" in verdicts["bad"].violations[0]
        assert verdicts["gap"].verdict == "inconclusive"
        assert verdicts["gap"].reason == "selector matched no cells"
        assert report.exit_code == 1
        assert report.uncovered_claims == ("gap",)

    def test_metric_glob_spans_attacker_generations(self):
        report = self._report([
            {"id": "worst", "metrics": ["*mcc.max"], "op": "<=", "bound": 0.3,
             "where": {"settings": ">=1"}},
        ])
        (verdict,) = report.verdicts
        # sweep mcc.max 0.4 and netpriv adaptive_mcc.max 0.70 both violate;
        # naive_mcc.max 0.0 passes — one glob covers all three metrics.
        assert verdict.verdict == "fail"
        assert len(verdict.violations) == 2
        assert any("adaptive_mcc.max" in v for v in verdict.violations)

    def test_missing_metric_is_inconclusive_not_pass(self):
        report = self._report([
            {"id": "m", "metric": "p95_latency", "op": "<=", "bound": 1.0},
        ])
        (verdict,) = report.verdicts
        assert verdict.verdict == "inconclusive"
        assert "no matched cell carries metric" in verdict.reason
        assert report.exit_code == 3

    def test_monotone_pass_and_fail(self):
        ok = self._report([
            {"id": "mono", "kind": "monotone", "metric": "adaptive_mcc.mean",
             "tolerance": 0.1},
        ])
        assert ok.verdicts[0].verdict == "pass"
        doc = _sweep_doc([
            ("nill", 0.0, 0, 0.4, 0.0),
            ("nill", 1.0, 0, 0.9, 0.0),  # dial up, leakage UP
        ])
        bad = evaluate_claims(
            ClaimSet.from_dict({"title": "t", "claims": [
                {"id": "mono", "kind": "monotone", "metric": "mcc.mean",
                 "tolerance": 0.05},
            ]}),
            [artifact_from_dict(doc, "s")],
        )
        assert bad.verdicts[0].verdict == "fail"
        assert "exceeds running min" in bad.verdicts[0].violations[0]

    def test_monotone_single_setting_inconclusive(self):
        doc = _sweep_doc([("nill", 1.0, 0, 0.4, 0.0)])
        report = evaluate_claims(
            ClaimSet.from_dict({"title": "t", "claims": [
                {"id": "mono", "kind": "monotone", "metric": "mcc.mean"},
            ]}),
            [artifact_from_dict(doc, "s")],
        )
        assert report.verdicts[0].verdict == "inconclusive"
        assert "2 settings" in report.verdicts[0].reason

    def test_coverage_both_ways(self):
        report = self._report([
            {"id": "sweep-only", "metric": "mcc.mean", "op": "<=", "bound": 1.0},
        ])
        # netpriv cells carry no plain mcc.mean -> both are uncovered
        assert len(report.uncovered_cells) == 2
        assert all("netpriv ::" in c for c in report.uncovered_cells)
        covered = {c.cell for c in report.coverage if c.claim_ids}
        assert covered == {"sweep :: nill@0 seed=0", "sweep :: nill@1 seed=0"}

    def test_certified_report_exit_zero(self):
        report = self._report([
            {"id": "ok", "metric": "bill_error.p90", "op": "<=", "bound": 0.2},
        ])
        assert report.exit_code == 0
        # uncovered cells do not block certification (use --strict-coverage)
        assert report.certified
        assert "CERTIFIED" in report.to_markdown()

    def test_markdown_and_json_exports(self):
        report = self._report([
            {"id": "bad", "metric": "mcc.mean", "op": "<=", "bound": 0.1},
        ])
        md = report.to_markdown()
        assert "NOT CERTIFIED" in md and "## Violations" in md
        doc = json.loads(report.to_json())
        assert doc["summary"]["fail"] == 1
        assert doc["summary"]["exit_code"] == 1
        assert doc["claims"][0]["verdict"] == "fail"

    def test_empty_artifact_rows_refused(self):
        with pytest.raises(ArtifactError, match="empty evidence"):
            Artifact(kind="stream", source="s", rows=())

    def test_artifact_row_defaults(self):
        row = ArtifactRow(label="x", defense=None, setting=None, seed=None)
        assert row.metrics == {}


#: one violating dial series per report kind, next to a sane one: both
#: reports and the claims engine must flag exactly the same cells
AGREEMENT_CASES = {
    "sweep": (
        FrontierReport,
        "mcc.mean",
        _sweep_doc([
            ("nill", 0.0, 0, 0.9, 0.0),
            ("nill", 0.5, 0, 0.3, 0.0),
            ("nill", 1.0, 0, 0.6, 0.0),  # above the running min 0.3
            ("nill", 0.0, 1, 0.9, 0.0),
            ("nill", 1.0, 1, 0.5, 0.0),
            ("chpr", 0.0, 0, 0.4, 0.0),
            ("chpr", 0.5, 0, 0.8, 0.0),  # above the running min 0.4
            ("chpr", 1.0, 0, 0.42, 0.0),  # within tolerance of 0.4
        ]),
        {"nill@1 seed=0", "chpr@0.5 seed=0"},
    ),
    "netpriv": (
        NetprivFrontierReport,
        "adaptive_mcc.mean",
        _netpriv_doc([
            ("cover", 0.0, 0, 0.85, 0.75),
            ("cover", 0.5, 0, 0.00, 0.30),
            ("cover", 1.0, 0, 0.00, 0.70),  # adaptive attacker recovers
            ("jitter", 0.0, 0, 0.80, 0.80),
            ("jitter", 1.0, 0, 0.70, 0.60),
        ]),
        {"cover@1 seed=0"},
    ),
}


class TestMonotoneAgreement:
    @pytest.mark.parametrize("kind", sorted(AGREEMENT_CASES))
    def test_claim_fails_on_the_cells_the_frontier_names(self, kind, tmp_path):
        report_type, metric, doc, expected = AGREEMENT_CASES[kind]
        path = tmp_path / "frontier.json"
        path.write_text(json.dumps(doc))
        frontier = report_type.from_json(path)
        # "nill@1 (seed 0): mcc ..." -> the cell label "nill@1 seed=0"
        named = {
            re.sub(r"^(\S+) \(seed (\d+)\):.*", r"\1 seed=\2", violation)
            for violation in frontier.monotone_violations(0.05)
        }
        (verdict,) = evaluate_claims(
            ClaimSet.from_dict({"title": "t", "claims": [
                {"id": "mono", "kind": "monotone", "metric": metric,
                 "tolerance": 0.05},
            ]}),
            [artifact_from_report(frontier)],
        ).verdicts
        assert verdict.verdict == "fail"
        # "<Report> :: nill@1 seed=0: mcc.mean = ..." -> "nill@1 seed=0"
        failed = {
            violation.split(" :: ", 1)[1].split(":", 1)[0]
            for violation in verdict.violations
        }
        assert named == failed == expected


class TestClaimsCLI:
    @pytest.fixture()
    def workdir(self, tmp_path):
        (tmp_path / "frontier.json").write_text(json.dumps(SWEEP))
        (tmp_path / "netpriv.json").write_text(json.dumps(NETPRIV))
        return tmp_path

    def _claims_file(self, tmp_path, claims) -> str:
        path = tmp_path / "claims.json"
        path.write_text(json.dumps({"title": "t", "claims": claims}))
        return str(path)

    def test_exit_zero_when_all_pass(self, workdir, capsys):
        claims = self._claims_file(workdir, [
            {"id": "ok", "metric": "bill_error.p90", "op": "<=", "bound": 0.2},
        ])
        rc = main(["claims", "--claims", claims,
                   "--artifact", str(workdir / "frontier.json")])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_exit_one_on_any_fail(self, workdir, capsys):
        claims = self._claims_file(workdir, [
            {"id": "ok", "metric": "bill_error.p90", "op": "<=", "bound": 0.2},
            {"id": "bad", "metric": "mcc.mean", "op": "<=", "bound": 0.1},
        ])
        rc = main(["claims", "--claims", claims,
                   "--artifact", str(workdir / "frontier.json"),
                   "--artifact", str(workdir / "netpriv.json")])
        assert rc == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "PASS" in out

    def test_exit_three_distinguishes_inconclusive(self, workdir, capsys):
        claims = self._claims_file(workdir, [
            {"id": "ok", "metric": "bill_error.p90", "op": "<=", "bound": 0.2},
            {"id": "gap", "metric": "mcc.mean", "op": "<=", "bound": 0.5,
             "where": {"defenses": ["jitter"]}},
        ])
        rc = main(["claims", "--claims", claims,
                   "--artifact", str(workdir / "frontier.json")])
        assert rc == 3
        assert "uncovered claims" in capsys.readouterr().out

    def test_exit_two_on_malformed_claims(self, workdir, capsys):
        bad = workdir / "bad.toml"
        bad.write_text("not [ valid toml")
        rc = main(["claims", "--claims", str(bad),
                   "--artifact", str(workdir / "frontier.json")])
        assert rc == 2
        assert "claims:" in capsys.readouterr().err

    def test_exit_two_on_nan_tolerance(self, workdir, capsys):
        bad = workdir / "nan.toml"
        bad.write_text(
            'title = "t"\n\n[[claim]]\nid = "mono"\nkind = "monotone"\n'
            'metric = "mcc.mean"\ntolerance = nan\n'
        )
        rc = main(["claims", "--claims", str(bad),
                   "--artifact", str(workdir / "frontier.json")])
        assert rc == 2
        assert "tolerance must be >= 0" in capsys.readouterr().err

    def test_exit_two_on_foreign_artifact(self, workdir, capsys):
        claims = self._claims_file(workdir, [
            {"id": "ok", "metric": "mcc.mean", "op": "<=", "bound": 1.0},
        ])
        foreign = workdir / "foreign.json"
        foreign.write_text(json.dumps({"accuracy": 0.99}))
        rc = main(["claims", "--claims", claims,
                   "--artifact", str(foreign)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unrecognised artifact" in err

    def test_exit_two_without_artifacts(self, workdir, capsys):
        claims = self._claims_file(workdir, [
            {"id": "ok", "metric": "mcc.mean", "op": "<=", "bound": 1.0},
        ])
        assert main(["claims", "--claims", claims]) == 2
        assert "--artifact" in capsys.readouterr().err

    def test_strict_coverage_flags_unconstrained_cells(self, workdir, capsys):
        claims = self._claims_file(workdir, [
            {"id": "ok", "metric": "mcc.mean", "op": "<=", "bound": 1.0},
        ])
        rc = main(["claims", "--claims", claims,
                   "--artifact", str(workdir / "frontier.json"),
                   "--artifact", str(workdir / "netpriv.json"),
                   "--strict-coverage"])
        assert rc == 3
        assert "strict coverage" in capsys.readouterr().out

    def test_report_files_written(self, workdir, capsys):
        claims = self._claims_file(workdir, [
            {"id": "bad", "metric": "mcc.mean", "op": "<=", "bound": 0.1},
        ])
        md = workdir / "cert.md"
        js = workdir / "cert.json"
        rc = main(["claims", "--claims", claims,
                   "--artifact", str(workdir / "frontier.json"),
                   "--md", str(md), "--json", str(js)])
        assert rc == 1
        assert "NOT CERTIFIED" in md.read_text()
        assert json.loads(js.read_text())["summary"]["fail"] == 1


class TestExampleClaimFiles:
    """The checked-in example claim files stay loadable and well-formed."""

    def test_certification_claims_parse(self):
        cs = load_claims("examples/certification_claims.toml")
        ids = [c.id for c in cs.claims]
        assert "sec4-adaptive-worst-case" in ids
        assert "sec4-jitter-strong-dial" in ids
        assert len(ids) == len(set(ids))

    def test_sweep_claims_parse(self):
        cs = load_claims("examples/sweep_claims.toml")
        assert any(c.kind == "monotone" for c in cs.claims)

    def test_certification_claims_acceptance_scenario(self):
        """The flagship example yields >=1 pass, >=1 fail, and >=1
        uncovered claim against synthetic sweep + netpriv artifacts that
        mirror the measured repo results (cover blinds the naive
        attacker; the adaptive one still sees occupancy)."""
        sweep = _sweep_doc([
            ("nill", 0.0, 0, 0.91, 0.00),
            ("nill", 0.5, 0, 0.47, 0.19),
            ("nill", 1.0, 0, 0.49, 0.17),
        ])
        netpriv = _netpriv_doc([
            ("cover", 0.0, 0, 0.83, 0.75),
            ("cover", 1.0, 0, 0.00, 0.71),
        ])
        report = evaluate_claims(
            load_claims("examples/certification_claims.toml"),
            [artifact_from_dict(sweep, "sweep"),
             artifact_from_dict(netpriv, "netpriv")],
        )
        verdicts = {v.claim.id: v.verdict for v in report.verdicts}
        assert verdicts["sec4-adaptive-worst-case"] == "fail"
        assert verdicts["sec4-jitter-strong-dial"] == "inconclusive"
        assert report.n_pass >= 1
        assert report.uncovered_claims == ("sec4-jitter-strong-dial",)
        assert report.exit_code == 1
