"""The monsterlie benchmark.

    python3 perfbench/run.py --workload {series,table,vertex} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each workload is a closed loop with one
client: it runs passes over its jobs, one job at a time, each in a fresh
interpreter (perfbench/job.py), because every real CLI call is a fresh
process; a cache kept across calls in one process would show a gain no
CLI user gets.  The seed draws every job's sizes from a narrow fixed band
and draws the random inputs; the program sees only the generated argv,
dataset file and library arguments.

Every output is checked: CLI output against the plain-integer oracle
(oracle.py) and against the SHA-256 recorded in digests.json, library
results by the identities they must satisfy.  A job fails on any
mismatch, a non-zero exit code or a traceback.

Every time is stated at a fixed host speed.  The host this benchmark was
made on is shared: its speed changes by up to a factor of two from one
second to the next and stays low for minutes at a time, so raw wall times
of runs minutes apart differ by more than any bound worth setting.  Each
job process therefore also times a fixed pure-Python computation
(job.reference) just before and just after the job, and a time t is
reported as t * REFERENCE_S / ref_s: the time the job would take on a
host where the reference takes REFERENCE_S seconds.  The raw wall-time
medians are printed in the text lines above the result.

--trace 0 prints the end-to-end metrics; --trace 1 runs every pass untraced and then
traced and prints the per-layer metrics from the traced runs (see
spans.py), with the tracing overhead.  The last line of standard output is
the JSON result; the lines before it name every job's time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"
JOB_TIMEOUT_S = 60
# About the reference's time on the 2-core Xeon host the bounds were set on
# when no neighbour slowed it (0.026-0.032 s); it only scales the reported
# times to seconds.
REFERENCE_S = 0.03

from job import REPORT_TAG
from oracle import Oracle
from spans import Tracer

# Size bands: narrow, so a run's medians do not depend on the seed (the
# cost of cartan grows as depth^3, so its band is a single depth), and
# finite, so every CLI output has a recorded digest.
BANDS = {
    "jcoeffs": range(218, 223),
    "dims": range(168, 173),
    "cartan": range(30, 31),
    "replicate": range(890, 911, 5),
    "mult": range(890, 911, 5),
    "check-nontrivial": range(79, 82),
    "gl2_sweep": range(295, 306),
}
S3_CLASS_NAMES = ("1A", "2B", "3B")
VERTEX_STATES = 30
VERTEX_POWERS = 6  # consecutive powers from the lowest that can be nonzero


# -- seeded inputs ------------------------------------------------------------------


def _partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _shapes(max_degree):
    """Every partition of 0..max_degree: the creation-mode depths of one term."""
    return [p for d in range(max_degree + 1) for p in _partitions(d)]


def _monomial(rng, shape):
    """Creation factors over a fixed axis pattern; only a global swap of the
    two axes is random, so the work a term costs does not depend on the seed."""
    flip = rng.randint(0, 1)
    return sorted([(i + flip) % 2, depth] for i, depth in enumerate(shape))


def _unit_pair(rng):
    return [rng.choice((-2, -1, 1, 2)), rng.choice((-2, -1, 1, 2))]


def _coefficient(rng):
    return [rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3)]


def _choose(rng, kind):
    return str(rng.choice(BANDS[kind]))


def series_pass(rng, dataset):
    return [
        {"name": "jcoeffs", "argv": ["jcoeffs", "--max", _choose(rng, "jcoeffs")]},
        {"name": "dims", "argv": ["dims", "--max", _choose(rng, "dims")]},
        {"name": "cartan", "argv": ["cartan", "--depth", _choose(rng, "cartan")]},
    ]


def table_pass(rng, dataset):
    def job(name, *args):
        return {"name": name, "argv": [name, "--data", dataset, *args], "data": dataset}

    return [
        job("validate-data"),
        job("replicate", "--class", rng.choice(S3_CLASS_NAMES), "--max", _choose(rng, "replicate")),
        job("mult", "--max", _choose(rng, "mult")),
        job("check-nontrivial", "--max", _choose(rng, "check-nontrivial")),
    ]


def vertex_pass(rng, dataset):
    top = rng.choice(BANDS["gl2_sweep"])
    pairs = [[j, rng.randint(1, 9), rng.choice((1, -1))] for j in [-1, *range(1, top + 1)]]

    # one single-term state per shape: the pass's work is fixed, the values random
    states = [[[_monomial(rng, shape), _unit_pair(rng), *_coefficient(rng)]] for shape in _shapes(4)]

    shapes = _shapes(4)
    items = []
    for i in range(VERTEX_STATES):
        shape = shapes[i % len(shapes)]
        a, abar = _unit_pair(rng), _unit_pair(rng)
        # two terms of one weight, so the powers below suit both
        terms = [[_monomial(rng, shape), abar, *_coefficient(rng)] for _ in range(2)]
        lowest = -(a[0] * abar[1] + a[1] * abar[0]) - sum(shape)
        items.append({
            "a": a,
            "state": terms,
            "powers": list(range(lowest, lowest + VERTEX_POWERS)),
            "check": rng.randrange(3),  # low powers, where the check is cheap
        })
    return [
        {"name": "gl2_sweep", "kind": "gl2_sweep", "pairs": pairs},
        {"name": "virasoro_identity", "kind": "virasoro_identity", "states": states},
        {"name": "vertex_op", "kind": "vertex_op", "items": items},
    ]


# name -> (pass generator, jobs reported as job1_s..job3_s, oracle order)
WORKLOADS = {
    "series": (series_pass, ("jcoeffs", "dims", "cartan"),
               max(BANDS["jcoeffs"][-1], BANDS["dims"][-1], BANDS["cartan"][-1]) + 1),
    "table": (table_pass, ("replicate", "mult", "check-nontrivial"),
              max(BANDS["replicate"][-1], BANDS["mult"][-1], BANDS["check-nontrivial"][-1] + 1)),
    "vertex": (vertex_pass, ("gl2_sweep", "virasoro_identity", "vertex_op"), 0),
}


# -- expected CLI output ----------------------------------------------------------------


def expected_table(argv, oracle):
    """Header and rows the CLI must print for argv, from the oracle alone."""
    command, opts = argv[0], dict(zip(argv[1::2], argv[2::2]))
    if command == "validate-data":
        return None, [["dataset", "valid:", "3", "classes,", "group", "order", "6"]]
    if command == "cartan":
        depth = int(opts["--depth"])
        labels = [-1, *range(1, depth + 1)]
        header = ["i", "block_size", *(f"A(i,{j})" for j in labels)]
        rows = [[i, 1 if i == -1 else oracle.j[i], *(-(i + j) for j in labels)] for i in labels]
    else:
        top = int(opts["--max"])
        if command == "jcoeffs":
            header, rows = ["n", "c(n)"], [[n, oracle.j[n]] for n in range(-1, top + 1)]
        elif command == "dims":
            header = ["weight", "dim_primary"]
            rows = [[j, oracle.dims[j - 1]] for j in range(0, top + 1)]
        elif command == "replicate":
            name = opts["--class"]
            header = ["class", "j", "C(class,j)"]
            rows = [[name, j, oracle.traces[name][j]] for j in range(1, top + 1)]
        elif command == "mult":
            header = ["j", "mult_1(j+1)"]
            rows = [[j, oracle.trivial_multiplicity(j)] for j in range(1, top + 1)]
        elif command == "check-nontrivial":
            header = ["j", "dim_primary(j+1)", "mult_1(j+1)", "verdict"]
            rows = []
            for j in range(1, top + 1):
                dim, mult = oracle.dims[j], oracle.trivial_multiplicity(j)
                rows.append([j, dim, mult, "non-trivial" if dim > mult else "inconclusive"])
        else:
            raise ValueError(f"no oracle for {command!r}")
    return header, [[str(cell) for cell in row] for row in rows]


def digest_key(argv):
    """The argv without the dataset path, which differs between checkouts."""
    out, skip = [], False
    for arg in argv:
        if skip or arg == "--data":
            skip = not skip
            continue
        out.append(arg)
    return " ".join(out)


def check_cli_output(argv, stdout, oracle, digests):
    """Reasons the CLI's output for argv is wrong; empty when it is right."""
    failures = []
    key = digest_key(argv)
    digest = hashlib.sha256(stdout).hexdigest()
    if digests.get(key) != digest:
        failures.append(f"{key}: output SHA-256 {digest[:12]} is not the recorded one")
    lines = [line.split() for line in stdout.decode("utf-8", "replace").splitlines()]
    header, rows = expected_table(argv, oracle)
    if header is not None:
        if not lines or lines[0] != header:
            failures.append(f"{key}: header {lines[:1]} is not {header}")
        lines = lines[1:]
    if lines != rows:
        bad = next((i for i, (g, w) in enumerate(zip(lines, rows)) if g != w), min(len(lines), len(rows)))
        failures.append(f"{key}: row {bad} disagrees with the oracle")
    return failures


def write_dataset(oracle):
    """Write the S3 dataset file the table jobs read; returns its path."""
    path = WORK / "s3.json"
    path.write_text(json.dumps(oracle.s3_dataset(), indent=1) + "\n")
    return str(path)


# -- running jobs ----------------------------------------------------------------------


def run_job(spec, traced):
    """Run one job in a fresh interpreter; returns (report or None, stdout, failures)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    spawn = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "job.py"), repr(spawn), "1" if traced else "0"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        cwd=ROOT, env=env,
    )
    try:
        stdout, stderr = proc.communicate(json.dumps(spec).encode(), timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, b"", [f"timed out after {JOB_TIMEOUT_S} s"]
    failures = []
    err = stderr.decode("utf-8", "replace")
    if proc.returncode != 0:
        failures.append(f"exit code {proc.returncode}")
    if "Traceback" in err:
        failures.append("traceback on standard error")
    tagged = [line for line in err.splitlines() if line.startswith(REPORT_TAG)]
    if spec.get("kind") == "probe":
        return None, stdout, failures
    if not tagged:
        return None, stdout, failures + ["no report"]
    report = json.loads(tagged[-1][len(REPORT_TAG):])
    failures += report["failures"]
    return report, stdout, failures


class Run:
    """Jobs and passes of one benchmark invocation."""

    def __init__(self, workload, seed, trace):
        self.name = workload
        self.make_pass, self.slots, order = WORKLOADS[workload]
        self.rng = random.Random(seed)
        self.trace = trace
        self.oracle = Oracle(order) if order else None
        self.digests = json.loads(DIGESTS.read_text()) if order else {}
        self.dataset = write_dataset(self.oracle) if workload == "table" else None
        self.passes = []  # (traced, [(spec, report)])
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run_pass(self):
        """One pass over the workload's jobs; with tracing, the same jobs run
        untraced and then traced, so the overhead is measured on one input."""
        specs = self.make_pass(self.rng, self.dataset)
        for traced in (False, True) if self.trace else (False,):
            jobs = []
            for spec in specs:
                report, stdout, failures = run_job(spec, traced)
                if "argv" in spec and not failures:
                    failures = check_cli_output(spec["argv"], stdout, self.oracle, self.digests)
                self.attempted += 1
                if failures:
                    self.failed += 1
                    self.problems.append(f"{spec['name']}: {'; '.join(failures[:3])}")
                if report is not None:
                    jobs.append((spec, report))
            self.passes.append((traced, jobs))

    def times(self, name, scaled=True):
        return [scale(r, "work_s") if scaled else r["work_s"]
                for t, jobs in self.passes if not t for s, r in jobs if s["name"] == name]

    def pass_totals(self, traced):
        return [sum(scale(r, "work_s") for _, r in jobs) for t, jobs in self.passes if t == traced]

    def end_to_end(self):
        reports = [r for t, jobs in self.passes if not t for _, r in jobs]
        metrics = {
            "run_s": (statistics.median(self.pass_totals(False)), "s"),
            "setup_s": (statistics.median(scale(r, "setup_s") for r in reports), "s"),
            "peak_rss_mb": (max(r["rss_kb"] for r in reports) / 1024, "MB"),
        }
        for slot, name in enumerate(self.slots, 1):
            metrics[f"job{slot}_s"] = (statistics.median(self.times(name)), "s")
        return metrics

    def per_layer(self):
        totals = []
        for traced, jobs in self.passes:
            if traced:
                total = dict.fromkeys(Tracer().summary(), 0)
                for _, report in jobs:
                    speed = REFERENCE_S / report["ref_s"]
                    for key, value in report["layers"].items():
                        if key == "qseries.max_coeff_digits":
                            total[key] = max(total[key], value)
                        else:
                            total[key] += value * speed if key.endswith("_s") else value
                built = total["lattice.fock_states_built"]
                total["lattice.useful_ratio"] = total["lattice.terms_out"] / built if built else 0.0
                totals.append(total)
        metrics = {}
        for key in totals[0]:
            unit = "s" if key.endswith("_s") else "ratio" if key.endswith("ratio") else "count"
            metrics[key] = (statistics.median(t[key] for t in totals), unit)
        shares = [
            r["layers"]["replication.replicate_extend.self_s"] / r["work_s"]
            for t, jobs in self.passes if t for s, r in jobs if s["name"] == "mult"
        ]
        metrics["mult.replicate_extend_share"] = (statistics.median(shares) if shares else 0.0, "ratio")
        overhead = [t - u for u, t in zip(self.pass_totals(False), self.pass_totals(True))]
        metrics["trace.overhead_s"] = (statistics.median(overhead), "s")
        return metrics

    def write_trace(self, env):
        jobs = []
        for traced, pass_jobs in self.passes:
            for spec, report in pass_jobs:
                if traced:
                    jobs.append({"job": len(jobs), "name": spec["name"], "argv": spec.get("argv"),
                                 **{k: report[k] for k in ("setup_s", "work_s", "ready", "layers", "spans")}})
        path = WORK / f"trace-{self.name}.json"
        path.write_text(json.dumps({"workload": self.name, "env": env, "jobs": jobs}) + "\n")
        return path


def scale(report, key):
    """The report's time `key` at the host speed where the reference takes REFERENCE_S."""
    return report[key] * REFERENCE_S / report["ref_s"]


def environment():
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = environment()
    if not (SRC / "monsterlie" / "__init__.py").is_file():
        print(f"no monsterlie sources under {SRC}", file=sys.stderr)
        return 1
    WORK.mkdir(exist_ok=True)
    # untimed probe: compiles the byte code and confirms which sources run
    _, stdout, failures = run_job({"kind": "probe"}, False)
    if failures or not Path(stdout.decode().strip()).is_relative_to(SRC):
        print(f"cannot import monsterlie from {SRC}: {failures or stdout!r}", file=sys.stderr)
        return 1

    run = Run(args.workload, args.seed, bool(args.trace))
    start = time.perf_counter()
    deadline = start + args.seconds
    passes = 0
    while True:
        run.run_pass()
        passes += 1
        now = time.perf_counter()
        if now + (now - start) / passes > deadline:
            break

    print(f"env: python {env['python']}, nproc {env['nproc']}, loadavg {env['loadavg']}")
    untraced = sum(1 for t, _ in run.passes if not t)
    for name in run.slots:
        times, wall = run.times(name), run.times(name, scaled=False)
        print(f"{name}_s: median {statistics.median(times):.4f} s over {len(times)} jobs "
              f"(wall time {statistics.median(wall):.4f} s)")
    refs = [r["ref_s"] for t, jobs in run.passes if not t for _, r in jobs]
    print(f"reference: median {statistics.median(refs):.4f} s, fastest {min(refs):.4f} s, "
          f"scaled to {REFERENCE_S} s")
    print(f"passes: {untraced} untraced, {len(run.passes) - untraced} traced; "
          f"failed_frac: {run.failed}/{run.attempted} jobs")
    for problem in run.problems[:20]:
        print(f"FAILED {problem}")
    if run.trace:
        print(f"trace written to {run.write_trace(env)}")
        metrics = run.per_layer()
    else:
        metrics = run.end_to_end()
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
