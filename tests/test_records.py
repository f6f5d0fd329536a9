"""The result records are named tuples: a cold CLI import loads neither
`dataclasses` nor `inspect`, fields cannot be assigned, and `by_name` is
derived from `classes`."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import monsterlie
from monsterlie.dataset import ClassRecord, Dataset, trivial_dataset


def test_cli_import_is_lean():
    src = str(Path(monsterlie.__file__).resolve().parents[1])
    code = (
        "import monsterlie.cli, sys; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_record_fields_cannot_be_assigned():
    dataset = trivial_dataset()
    with pytest.raises(AttributeError):
        dataset.group_order = 2
    assert dataset.group_order == 1


def test_by_name_follows_classes():
    seeds = {-1: 1, 1: 0, 2: 0, 3: 0, 5: 0}
    records = [trivial_dataset().classes[0], ClassRecord("2Z", 1, "1A", seeds)]
    dataset = Dataset(records, 2)
    assert dataset.characters is None
    assert dataset.by_name == {"1A": records[0], "2Z": records[1]}
    assert list(dataset.by_name) == [r.name for r in dataset.classes]
