"""Default CLI output is byte-identical to the benchmark's record: each argv
in `perfbench/digests.json` is replayed in process on the S3 dataset that
`perfbench/oracle.py` builds, and the SHA-256 of its stdout must equal the
recorded one.  `perfbench/` is only read."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from monsterlie.cli import run

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text())
# the commands that read the dataset; the recorded key leaves out its path
DATA_COMMANDS = {"replicate", "mult", "check-nontrivial", "validate-data"}


@pytest.fixture(scope="module")
def s3_path(tmp_path_factory):
    spec = importlib.util.spec_from_file_location("perfbench_oracle", PERFBENCH / "oracle.py")
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    path = tmp_path_factory.mktemp("s3") / "s3.json"
    path.write_text(json.dumps(oracle.Oracle(5).s3_dataset(), indent=1) + "\n")
    return str(path)


def test_every_command_is_replayed():
    assert len(DIGESTS) == 35
    assert {key.split()[0] for key in DIGESTS} == DATA_COMMANDS | {"jcoeffs", "dims", "cartan"}


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_default_output_matches_the_recorded_digest(key, s3_path, capsys):
    command, *flags = key.split()
    argv = [command, *(["--data", s3_path] if command in DATA_COMMANDS else []), *flags]
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DIGESTS[key]
