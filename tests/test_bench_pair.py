"""``scripts/bench_pair.py``'s summary of paired runs, on synthetic runs."""

import importlib.util
import pathlib

SCRIPT = (pathlib.Path(__file__).resolve().parent.parent / "scripts"
          / "bench_pair.py")


def _summarize():
    spec = importlib.util.spec_from_file_location("bench_pair", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.summarize


METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "success_rate", "unit": "ratio", "better": "higher",
     "bound": 0.01},
]


def _runs(pairs):
    """Runs from (parent, change) value dicts, one per pair."""
    return [{"parent": {"metrics": p}, "change": {"metrics": c}}
            for p, c in pairs]


def test_summarize_flags_medians_past_the_bound():
    runs = _runs([
        ({"wall_s": 1.0, "peak_rss_mb": 100, "success_rate": 1.0},
         {"wall_s": 1.3, "peak_rss_mb": 109, "success_rate": 0.98}),
        ({"wall_s": 1.0, "peak_rss_mb": 100, "success_rate": 1.0},
         {"wall_s": 1.3, "peak_rss_mb": 111, "success_rate": 0.98}),
        ({"wall_s": 1.0, "peak_rss_mb": 100, "success_rate": 1.0},
         {"wall_s": 0.9, "peak_rss_mb": 108, "success_rate": 1.0}),
    ])
    out = _summarize()(runs, METRICS)
    # medians: wall 1.3 > 1.25, rss 109 < 110, success 0.98 < 0.99
    assert out["wall_s"]["regressed"] is True
    assert out["peak_rss_mb"]["regressed"] is False
    assert out["success_rate"]["regressed"] is True
    assert out["wall_s"]["change_wins"] == 1
    assert out["wall_s"]["change_over_parent"] == 1.3
    assert out["success_rate"]["change_wins"] == 0


def test_summarize_does_not_flag_gains_or_ties():
    runs = _runs([({"wall_s": 2.0, "peak_rss_mb": 50, "success_rate": 0.9},
                   {"wall_s": 1.0, "peak_rss_mb": 50, "success_rate": 1.0})]
                 * 2)
    out = _summarize()(runs, METRICS)
    assert not any(m["regressed"] for m in out.values())
    assert out["wall_s"]["change_wins"] == 2
    assert out["peak_rss_mb"]["change_wins"] == 0
