"""Self-tests of the benchmark's checker and oracle.

    python3 -m pytest -q perfbench/test_checker.py
"""

from __future__ import annotations

import hashlib
import io
import random
import sys
from contextlib import redirect_stdout

import pytest

import job
import run
from oracle import Oracle

sys.path.insert(0, str(run.SRC))


@pytest.fixture(scope="module")
def oracle():
    return Oracle(60)


def cli_output(argv):
    from monsterlie.cli import run as cli_run

    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli_run(argv) == 0
    return buf.getvalue().encode()


def test_oracle_j_coefficients(oracle):
    assert [oracle.j[n] for n in (-1, 0, 1, 2, 3)] == [1, 0, 196884, 21493760, 864299970]


def test_oracle_primary_dimensions(oracle):
    # weight-2 primaries: 196884 - 1; weight 1 has none
    assert oracle.dims[0] == 0
    assert oracle.dims[1] == 196883


def test_s3_trivial_multiplicity(oracle):
    assert oracle.traces["2B"][1] == 276
    assert oracle.traces["3B"][1] == 54
    assert oracle.trivial_multiplicity(1) == (196884 + 3 * 276 + 2 * 54) // 6 == 32970


def test_s3_dataset_passes_validator_and_replicates_eta_quotients(oracle):
    from monsterlie import replicate_extend
    from monsterlie.dataset import parse_dataset

    dataset = parse_dataset(oracle.s3_dataset())
    table = replicate_extend(dataset, 58)
    for name in run.S3_CLASS_NAMES:
        assert [table.value(name, n) for n in range(1, 59)] == [
            oracle.traces[name][n] for n in range(1, 59)
        ]


def test_correct_output_passes(oracle):
    argv = ["jcoeffs", "--max", "5"]
    out = cli_output(argv)
    digests = {run.digest_key(argv): hashlib.sha256(out).hexdigest()}
    assert run.check_cli_output(argv, out, oracle, digests) == []


def test_one_changed_digit_fails(oracle):
    argv = ["jcoeffs", "--max", "5"]
    out = cli_output(argv)
    changed = out.replace(b"21493760", b"21493761")
    assert changed != out
    recorded = {run.digest_key(argv): hashlib.sha256(out).hexdigest()}
    failures = run.check_cli_output(argv, changed, oracle, recorded)
    assert any("SHA-256" in f for f in failures)
    assert any("oracle" in f for f in failures)
    # the oracle alone catches it even when the wrong bytes were recorded
    wrong = {run.digest_key(argv): hashlib.sha256(changed).hexdigest()}
    assert run.check_cli_output(argv, changed, oracle, wrong)


def test_digest_key_drops_the_dataset_path():
    argv = ["mult", "--data", "/tmp/x/s3.json", "--max", "900"]
    assert run.digest_key(argv) == "mult --max 900"


def test_vertex_check_catches_a_wrong_coefficient():
    import monsterlie

    job.monsterlie = monsterlie
    spec = run.vertex_pass(random.Random(1), None)[2]
    spec["items"] = spec["items"][:6]
    items = job.setup_vertex_op(spec)
    results = job.work_vertex_op(items)
    assert job.check_vertex_op(items, results) == []
    i = next(i for i, (_, _, _, k) in enumerate(items) if not results[i][k].is_zero())
    k = items[i][3]
    results[i][k] = 2 * results[i][k]
    assert job.check_vertex_op(items, results)
