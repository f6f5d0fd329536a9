"""One benchmark job, run in a fresh interpreter by run.py.

    python3 perfbench/job.py <spawn time> <trace 0|1>   (job spec as JSON on stdin)

The spawn time is the parent's `time.perf_counter()` just before it
started this process (CLOCK_MONOTONIC, shared by all processes), so
`setup_s` covers interpreter start, importing `monsterlie` and loading the
job's inputs through the public API.  `work_s` covers the job itself: a
CLI call writing its output to standard output, or a library job.
Library-job checks run after the clock stops.  `ref_s` is the mean time of
`reference()`, run once just before and once just after the work, so that
run.py can state every time at a fixed host speed.  The last line on
standard error is the report, prefixed with REPORT_TAG.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from fractions import Fraction

from oracle import j_coefficients

REPORT_TAG = "PERFBENCH-REPORT "


def _state(terms):
    """A FockState from [[mono, abar, numerator, denominator], ...]."""
    return monsterlie.FockState(
        {
            (tuple(tuple(f) for f in mono), tuple(abar)): Fraction(num, den)
            for mono, abar, num, den in terms
        }
    )


def reference():
    """A fixed pure-Python computation that does not use `monsterlie`.

    It mixes the operations the jobs spend their time on: big-integer
    series convolutions (qseries, replication) and Fraction sums in a
    tuple-keyed dict (lattice, gl2), so a slower host slows it by about the
    same factor as the job it surrounds.
    """
    j = j_coefficients(200)
    acc = {}
    for a in range(1, 200):
        for b in range(1, 40):
            key = (a % 7, b % 5, (a * b) % 3)
            acc[key] = acc.get(key, 0) + Fraction(j[b] % 97 + 1, a + b)
    return acc


def timed_reference():
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


# -- set-up: build the job's inputs through the public API ----------------------


def setup_cli(spec):
    if "data" in spec:
        monsterlie.load_dataset(spec["data"])
    return spec["argv"]


def setup_gl2_sweep(spec):
    return [
        (j, *monsterlie.primary_pair(j, norm), sign) for j, norm, sign in spec["pairs"]
    ]


def setup_virasoro_identity(spec):
    return [_state(terms) for terms in spec["states"]]


def setup_vertex_op(spec):
    return [
        (monsterlie.section(*item["a"]), _state(item["state"]), item["powers"], item["check"])
        for item in spec["items"]
    ]


# -- work: the timed part -------------------------------------------------------


def work_cli(argv):
    code = monsterlie.cli.run(argv)
    sys.stdout.flush()
    return code


def work_gl2_sweep(pairs):
    return [
        monsterlie.gl2.verify_relations(j, u, v, section_sign=sign)
        for j, u, v, sign in pairs
    ]


def work_virasoro_identity(states):
    """[L(m), L(n)] = (m-n) L(m+n) + c/12 (m^3-m) delta(m+n) with c = 2."""
    apply = monsterlie.lattice.virasoro_apply
    holds = []
    for s in states:
        for m in range(-2, 3):
            for n in range(-2, 3):
                left = apply(m, apply(n, s)) - apply(n, apply(m, s))
                right = (m - n) * apply(m + n, s)
                if m + n == 0:
                    right = right + Fraction(m**3 - m, 12) * 2 * s
                holds.append(left == right)
    return holds


def work_vertex_op(items):
    coeff = monsterlie.lattice.vertex_iota_coeff
    return [[coeff(a, b, p) for p in powers] for a, b, powers, _ in items]


# -- checks: untimed, library jobs only --------------------------------------------


def check_gl2_sweep(pairs, reports):
    failures = []
    for (j, *_), report in zip(pairs, reports):
        expected = 9 if j == -1 else 10
        if not report.all_passed or len(report.checks) != expected:
            failures.append(f"j={j}: {report.count('core')} core, {len(report.checks)} checks")
    return failures


def check_virasoro_identity(states, holds):
    return [f"identity {i} fails" for i, ok in enumerate(holds) if not ok]


def check_vertex_op(items, results):
    """Every coefficient has the weight wt(a) + wt(b) + p, and at one
    seeded power per state the translation identity
    L(-1) c_p(b) - c_p(L(-1) b) = (p+1) c_{p+1}(b) holds, where c_p(b) is
    the x^p coefficient of Y(iota(a), x) b."""
    from monsterlie.lattice import pairing, vertex_iota_coeff, virasoro_apply, weight_of

    failures = []
    for i, ((a, b, powers, k), coeffs) in enumerate(zip(items, results)):
        wt = pairing(a.vector, a.vector) / 2 + weight_of(b)
        for p, c in zip(powers, coeffs):
            if not c.is_zero() and weight_of(c) != wt + p:
                failures.append(f"state {i}: x^{p} coefficient has weight {weight_of(c)}")
        p = powers[k]
        lhs = virasoro_apply(-1, coeffs[k]) - vertex_iota_coeff(a, virasoro_apply(-1, b), p)
        if lhs != (p + 1) * coeffs[k + 1]:
            failures.append(f"state {i}: translation identity fails at x^{p}")
    return failures


def main():
    spawn = float(sys.argv[1])
    traced = sys.argv[2] == "1"
    spec = json.loads(sys.stdin.read())
    global monsterlie
    import monsterlie
    import monsterlie.cli

    if spec.get("kind") == "probe":
        print(monsterlie.__file__)
        return 0
    tracer = None
    if traced:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    kind = "cli" if "argv" in spec else spec["kind"]
    jobs = globals()
    inputs = jobs[f"setup_{kind}"](spec)
    ready = time.perf_counter()
    ref_before = timed_reference()
    start = time.perf_counter()
    result = jobs[f"work_{kind}"](inputs)
    done = time.perf_counter()
    ref_after = timed_reference()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report = {
        "setup_s": ready - spawn,
        "work_s": done - start,
        "ref_s": (ref_before + ref_after) / 2,
        "rss_kb": rss_kb,
    }
    if tracer is not None:
        tracer.enabled = False
        report["layers"] = tracer.summary()
        report["spans"] = tracer.spans
        report["ready"] = ready
    if kind == "cli":
        code = result
        report["failures"] = []
    else:
        code = 0
        report["failures"] = jobs[f"check_{kind}"](inputs, result)
    print(REPORT_TAG + json.dumps(report), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
