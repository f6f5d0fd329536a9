"""Alternating benchmark pairs of a parent commit and the working tree.

    python3 tools/bench_pairs.py --parent REV --workload W --pairs K --seconds S --out BENCH_<pr>.json

Run from anywhere inside the checkout.  The parent is extracted with
`git archive REV` into `.bench_build/<commit>/`; the change tree is copied
into `.bench_build/change/` from the working tree's files that `git
ls-files` lists (tracked, plus untracked files that are not ignored).
Nothing is written under `.git`.  The script refuses to run when
`perfbench/` differs between the two trees: both sides must run one
benchmark.

Pair i runs each tree's own `perfbench/run.py --workload W --seed
SEED+i --seconds S --trace 0`, the parent first in even pairs and the
change first in odd ones.  Both sides run in one start-up state, which
the output file records: `PYTHONDONTWRITEBYTECODE` and
`PYTHONPYCACHEPREFIX` are unset, so each tree keeps its own
`__pycache__`, and one untimed import in each tree warms it before the
first pair.  The file holds, per end-to-end metric of `BENCHMARK.json`,
each side's median and quartiles and the number of pairs the change won,
with both commit ids, the environment and the time of a bare `python -c
pass` measured during the same run.  Each metric also records
`outside_bound`: whether the medians differ, either way, by more than the
metric's `bound` in `BENCHMARK.json`, read as a fraction of the parent
median.  A run of one tree against itself (an A/A check) passes when no
metric is outside its bound.
"""

from __future__ import annotations

import argparse
import filecmp
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = "perfbench"
BUILD_DIR = ".bench_build"
# what the file records as the start-up state of every benchmark process
STARTUP_STATE = (
    "PYTHONDONTWRITEBYTECODE and PYTHONPYCACHEPREFIX unset; each tree keeps its own "
    "__pycache__, warmed by one untimed import per tree before the first pair"
)


class RefusedError(RuntimeError):
    """The two trees cannot be compared."""


def _git(root, *args):
    return subprocess.run(
        ["git", *args], cwd=root, check=True, capture_output=True, text=True
    ).stdout.strip()


def extract_parent(root, rev):
    """The commit id of rev, extracted into .bench_build/<commit>/."""
    commit = _git(root, "rev-parse", "--verify", f"{rev}^{{commit}}")
    tree = root / BUILD_DIR / commit
    if tree.exists():
        shutil.rmtree(tree)
    tree.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", commit], cwd=root, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(tree)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RefusedError(f"git archive {commit} failed")
    return commit, tree


def copy_change(root):
    """The working tree's listed files, copied into .bench_build/change/."""
    tree = root / BUILD_DIR / "change"
    if tree.exists():
        shutil.rmtree(tree)
    listed = _git(root, "ls-files", "--cached", "--others", "--exclude-standard", "-z")
    for name in filter(None, listed.split("\0")):
        source = root / name
        # a deleted tracked file is still listed; the build trees are never copied
        if source.is_file() and not name.startswith(f"{BUILD_DIR}/"):
            (tree / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, tree / name)
    return tree


def tree_digest(tree):
    """SHA-256 over the sorted relative paths and bytes of a tree's files:
    the change tree's id while it has no commit of its own."""
    digest = hashlib.sha256()
    for path in sorted(p for p in tree.rglob("*") if p.is_file()):
        digest.update(path.relative_to(tree).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _files(tree):
    base = tree / BENCH_DIR
    return {
        path.relative_to(base).as_posix()
        for path in base.rglob("*")
        if path.is_file() and "__pycache__" not in path.parts
    }


def bench_differences(parent, change):
    """The files under perfbench/ that differ between the two trees, or
    that only one of them has."""
    ours, theirs = _files(parent), _files(change)
    differ = sorted(ours ^ theirs)
    for name in sorted(ours & theirs):
        if not filecmp.cmp(parent / BENCH_DIR / name, change / BENCH_DIR / name, shallow=False):
            differ.append(name)
    return differ


def require_same_benchmark(parent, change):
    differ = bench_differences(parent, change)
    if differ:
        raise RefusedError(
            f"{BENCH_DIR}/ differs between the trees ({', '.join(differ)}); "
            "pairs must run one benchmark"
        )


def startup_env():
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    return env


def warm(tree, env):
    """One untimed import of the package and the benchmark's modules, so the
    tree's byte code is written before the first timed run."""
    subprocess.run(
        [sys.executable, "-c", "import monsterlie.cli, job, oracle, spans"],
        cwd=tree, env=dict(env, PYTHONPATH=f"{tree / 'src'}{os.pathsep}{tree / BENCH_DIR}"),
        check=True,
    )


def python_pass_s(env, repeats=5):
    """Median wall time of a bare `python -c pass` in the start-up state."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_once(tree, env, workload, seed, seconds):
    """The JSON result of one benchmark run in tree."""
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR}/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"benchmark in {tree} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(lines[-1])


def summarize(runs, end_to_end):
    """Per metric of `end_to_end` (the BENCHMARK.json entries): each side's
    median and quartiles over the pairs, the change/parent ratio of the
    medians, whether they differ by more than the metric's bound times the
    parent median, and the pairs the change won (ties count for neither
    side)."""
    summary = {}
    for spec in end_to_end:
        name = spec["name"]
        parent = [run["parent"]["metrics"][name]["value"] for run in runs]
        change = [run["change"]["metrics"][name]["value"] for run in runs]
        sign = 1 if spec["better"] == "lower" else -1
        entry = {"unit": spec["unit"], "better": spec["better"]}
        for side, values in (("parent", parent), ("change", change)):
            q1, median, q3 = (
                statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            )
            entry.update({f"{side}_median": median, f"{side}_q1": q1, f"{side}_q3": q3})
        base = entry["parent_median"]
        entry["ratio"] = entry["change_median"] / base if base else None
        entry["outside_bound"] = abs(entry["change_median"] - base) > spec["bound"] * abs(base)
        entry["pairs_won"] = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        entry["pairs"] = len(runs)
        summary[name] = entry
    return summary


def environment(env):
    return {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "startup_state": STARTUP_STATE,
        "python_env": {k: v for k, v in sorted(env.items()) if k.startswith("PYTHON")},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1000, help="seed of the first pair")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    root = Path(_git(Path.cwd(), "rev-parse", "--show-toplevel"))
    try:
        parent_commit, parent = extract_parent(root, args.parent)
        change = copy_change(root)
        require_same_benchmark(parent, change)
    except RefusedError as err:
        print(f"bench_pairs: {err}", file=sys.stderr)
        return 2
    end_to_end = json.loads((change / "BENCHMARK.json").read_text())["end_to_end"]
    change_digest = tree_digest(change)
    env = startup_env()
    for tree in (parent, change):
        warm(tree, env)
    env_before = environment(env)
    pass_times, runs = [], []
    sides = [("parent", parent), ("change", change)]
    for i in range(args.pairs):
        seed = args.seed + i
        run = {"seed": seed, "first": sides[0][0]}
        for side, tree in sides:
            run[side] = run_once(tree, env, args.workload, seed, args.seconds)
        sides.reverse()
        pass_times.append(python_pass_s(env))
        runs.append(run)
        print(f"pair {i + 1}/{args.pairs} seed {seed}: "
              + ", ".join(f"{side} {run[side]['metrics']['run_s']['value']:.4f} s"
                          for side in ("parent", "change")), file=sys.stderr)
    result = {
        "workload": args.workload,
        "seconds": args.seconds,
        "seeds": [run["seed"] for run in runs],
        "parent": {"rev": args.parent, "commit": parent_commit},
        "change": {
            "commit": _git(root, "rev-parse", "HEAD"),
            "dirty": bool(_git(root, "status", "--porcelain")),
            "tree_sha256": change_digest,
        },
        "environment": {**env_before, "loadavg_after": [round(x, 2) for x in os.getloadavg()]},
        "python_c_pass_s": statistics.median(pass_times),
        "quartiles": "statistics.quantiles(n=4), exclusive method",
        "all_correct": all(
            run[side]["correct"] and not run[side]["failed"]
            for run in runs for side in ("parent", "change")
        ),
        "metrics": summarize(runs, end_to_end),
        "runs": runs,
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0 if result["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
