"""``scripts/bench_pair.py``: its summary of paired runs, on synthetic runs,
and the checkouts it runs, with git and perfbench faked."""

import collections
import importlib.util
import pathlib

import pytest

SCRIPT = (pathlib.Path(__file__).resolve().parent.parent / "scripts"
          / "bench_pair.py")


def _module():
    spec = importlib.util.spec_from_file_location("bench_pair", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _summarize():
    return _module().summarize


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


def _fake_git(untracked=""):
    """Answers for the git calls of ``main``; the edits stash as "stash"."""
    answers = {
        ("rev-parse", "HEAD~1"): "parent",
        ("rev-parse", "HEAD"): "head",
        ("stash", "create"): "stash",
        ("status", "--porcelain", "--untracked-files=no"): " M x",
    }

    def git(*args):
        if args[:2] == ("ls-files", "--others"):
            return untracked
        return answers[args]
    return git


def test_both_sides_are_extracted_without_bytecode(tmp_path, monkeypatch):
    """The parent and the edited tree both come from ``extract``, into
    fresh directories, so neither holds a ``__pycache__``."""
    bench = _module()
    extracted, ran = {}, []

    def extract(rev, dest):
        extracted[dest] = rev
        (pathlib.Path(dest) / "src").mkdir()
        (pathlib.Path(dest) / "src" / "m.py").write_text("")

    def run_once(checkout, workload, seed, seconds):
        ran.append(checkout)
        assert not list(pathlib.Path(checkout).rglob("__pycache__"))
        return {"correct": True, "src_sha256": "",
                "metrics": collections.defaultdict(lambda: 1.0)}

    monkeypatch.setattr(bench, "git", _fake_git())
    monkeypatch.setattr(bench, "extract", extract)
    monkeypatch.setattr(bench, "run_once", run_once)
    for side in ("parent", "change"):  # left over from an earlier run
        (tmp_path / side / "src" / "__pycache__").mkdir(parents=True)
    assert bench.main(["--parent", "HEAD~1", "--runs", "construct=2",
                       "--workdir", str(tmp_path)]) == 0
    assert sorted(extracted.values()) == ["parent", "stash"]
    assert set(ran) == set(extracted) and len(ran) == 4
    assert str(pathlib.Path(bench.ROOT)) not in ran


def test_untracked_source_file_is_refused(monkeypatch):
    """An untracked file under src/ would be missing from the change."""
    bench = _module()
    monkeypatch.setattr(bench, "git", _fake_git("src/chiefblocks/new.py"))
    with pytest.raises(SystemExit, match="src/chiefblocks/new.py"):
        bench.change_rev()
