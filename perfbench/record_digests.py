"""Record the SHA-256 of the default CLI output for every argv the benchmark
can generate, into perfbench/digests.json.

    python3 perfbench/record_digests.py

Run it only at a commit whose output is known good: every output is first
checked against the plain-integer oracle, and nothing is written if any
check fails.  The benchmark then fails a job whose output differs from the
recorded bytes, which holds the program to byte-identical default output.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run


def all_argv(dataset):
    for kind in ("jcoeffs", "dims"):
        for n in run.BANDS[kind]:
            yield [kind, "--max", str(n)]
    for n in run.BANDS["cartan"]:
        yield ["cartan", "--depth", str(n)]
    yield ["validate-data", "--data", dataset]
    for name in run.S3_CLASS_NAMES:
        for n in run.BANDS["replicate"]:
            yield ["replicate", "--data", dataset, "--class", name, "--max", str(n)]
    for kind in ("mult", "check-nontrivial"):
        for n in run.BANDS[kind]:
            yield [kind, "--data", dataset, "--max", str(n)]


def main():
    run.WORK.mkdir(exist_ok=True)
    order = max(spec[2] for spec in run.WORKLOADS.values())
    oracle = run.Oracle(order)
    digests = {}
    for argv in all_argv(run.write_dataset(oracle)):
        _, stdout, failures = run.run_job({"argv": argv}, False)
        digest = hashlib.sha256(stdout).hexdigest()
        key = run.digest_key(argv)
        failures += run.check_cli_output(argv, stdout, oracle, {key: digest})
        if failures:
            print(f"{key}: {'; '.join(failures)}", file=sys.stderr)
            return 1
        digests[key] = digest
        print(f"{key}: {digest}")
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
