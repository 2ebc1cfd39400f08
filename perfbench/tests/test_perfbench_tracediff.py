"""The trace diff ranks per-layer time changes."""

import json

import tracediff


def _saved(path, values):
    metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
    path.write_text("# human lines first\n" + json.dumps({"metrics": metrics}) + "\n")
    return str(path)


def test_times_rank_by_absolute_change_then_changed_counts(tmp_path, capsys):
    before = _saved(tmp_path / "a.txt", {
        "home.simulate_s": (1.0, "s"),
        "defenses.chpr_s": (4.0, "s"),
        "attacks.hmm_s": (3.0, "s"),
        "home.simulate_calls": (8, "count"),
        "fleet.cache.hit_ratio": (0.5, "ratio"),
    })
    after = _saved(tmp_path / "b.txt", {
        "home.simulate_s": (1.1, "s"),
        "defenses.chpr_s": (2.0, "s"),
        "attacks.hmm_s": (3.5, "s"),
        "home.simulate_calls": (1, "count"),
        "fleet.cache.hit_ratio": (0.5, "ratio"),
    })
    rows = tracediff.diff(tracediff.load(before), tracediff.load(after))
    assert [r[0] for r in rows] == [
        "defenses.chpr_s",
        "attacks.hmm_s",
        "home.simulate_s",
        "home.simulate_calls",
    ]
    assert tracediff.main([before, after]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1].startswith("defenses.chpr_s") and "-50.0%" in out[1]
