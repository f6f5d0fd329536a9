"""The pair runner tools/bench_pairs.py: its file format and its refusal to
compare trees whose benchmarks differ.  No benchmark runs here."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def _result(**values):
    return {"correct": True, "failed": 0,
            "metrics": {name: {"value": v, "unit": "s"} for name, v in values.items()}}


def test_summary_holds_medians_quartiles_and_pairs_won():
    names = [spec["name"] for spec in END_TO_END]
    runs = []
    for i in range(5):
        parent = dict.fromkeys(names, 10.0 + i)
        change = dict.fromkeys(names, 8.0 + i)
        change["setup_s"] = 10.0 + i  # a tie in every pair
        change["peak_rss_mb"] = 12.0 + i  # worse in every pair
        runs.append({"seed": i, "parent": _result(**parent), "change": _result(**change)})
    summary = bench_pairs.summarize(runs, END_TO_END)
    assert set(summary) == set(names)
    keys = {"unit", "better", "parent_median", "parent_q1", "parent_q3", "change_median",
            "change_q1", "change_q3", "ratio", "outside_bound", "pairs_won", "pairs"}
    for name, entry in summary.items():
        assert set(entry) == keys, name
        assert entry["pairs"] == 5
        assert entry["parent_q1"] <= entry["parent_median"] == 12.0 <= entry["parent_q3"]
    assert summary["job2_s"]["change_median"] == 10.0 and summary["job2_s"]["pairs_won"] == 5
    assert summary["job2_s"]["ratio"] == pytest.approx(10.0 / 12.0)
    assert summary["setup_s"]["pairs_won"] == 0 and summary["setup_s"]["ratio"] == 1.0
    assert summary["peak_rss_mb"]["pairs_won"] == 0
    assert (summary["job2_s"]["parent_q1"], summary["job2_s"]["parent_q3"]) == (10.5, 13.5)


def test_outside_bound_compares_the_medians_with_the_metric_bound():
    # parent median 100 on every metric; the bounds are 0.25 for times and
    # 0.1 for peak_rss_mb, read either way as a fraction of that median
    bounds = {spec["name"]: spec["bound"] for spec in END_TO_END}
    assert (bounds["job1_s"], bounds["peak_rss_mb"]) == (0.25, 0.1)
    change = {"run_s": 100.0, "setup_s": 74.99, "peak_rss_mb": 110.01,
              "job1_s": 124.99, "job2_s": 125.01, "job3_s": 75.01}
    runs = [{"seed": i, "parent": _result(**dict.fromkeys(bounds, 100.0)),
             "change": _result(**change)} for i in range(3)]
    summary = bench_pairs.summarize(runs, END_TO_END)
    outside = {name for name, entry in summary.items() if entry["outside_bound"]}
    assert outside == {"setup_s", "peak_rss_mb", "job2_s"}
    # two identical trees: no metric is outside, so the A/A check passes
    same = [{"seed": i, "parent": run["parent"], "change": run["parent"]} for i, run in enumerate(runs)]
    assert not any(entry["outside_bound"] for entry in bench_pairs.summarize(same, END_TO_END).values())


def _git(cwd, *args):
    subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@example.invalid", *args],
        cwd=cwd, check=True, capture_output=True,
    )


@pytest.fixture
def repo(tmp_path, monkeypatch):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("print('one')\n")
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "parent")
    monkeypatch.chdir(tmp_path)

    def no_benchmark(*args):
        raise AssertionError("a benchmark ran")

    monkeypatch.setattr(bench_pairs, "run_once", no_benchmark)
    monkeypatch.setattr(bench_pairs, "warm", no_benchmark)
    return tmp_path


@pytest.mark.parametrize("edit", ["change", "add"])
def test_refuses_trees_whose_benchmarks_differ(repo, capsys, edit):
    if edit == "change":
        (repo / "perfbench" / "run.py").write_text("print('two')\n")
    else:
        (repo / "perfbench" / "extra.py").write_text("")
    out = repo / "BENCH_x.json"
    code = bench_pairs.main(["--parent", "HEAD", "--workload", "vertex", "--pairs", "1",
                             "--seconds", "1", "--out", str(out)])
    assert code == 2 and not out.exists()
    err = capsys.readouterr().err
    assert "perfbench/ differs between the trees" in err
    assert ("run.py" if edit == "change" else "extra.py") in err


def test_trees_with_one_benchmark_compare(repo):
    (repo / "src.py").write_text("changed outside perfbench\n")
    commit, parent = bench_pairs.extract_parent(repo, "HEAD")
    change = bench_pairs.copy_change(repo)
    assert parent == repo / ".bench_build" / commit and len(commit) == 40
    assert (change / "src.py").is_file() and not (parent / "src.py").exists()
    assert not (change / ".bench_build").exists()
    assert bench_pairs.bench_differences(parent, change) == []
    bench_pairs.require_same_benchmark(parent, change)
    assert bench_pairs.tree_digest(change) != bench_pairs.tree_digest(parent)
