"""The package surface and its value types: the public names are pinned,
the result records are named tuples (a cold CLI import loads neither
`dataclasses` nor `inspect`, fields cannot be assigned, and `by_name` is
derived from `classes`), and the value classes are immutable and hash by
value or not at all."""

import importlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import monsterlie
import monsterlie.cli  # imports every submodule, so each is a package attribute
from monsterlie.dataset import ClassRecord, Dataset, trivial_dataset
from monsterlie.gl2 import FormalNaturalVector, MElement
from monsterlie.lattice import FockState, HatLatticeElement, LatticeVector
from monsterlie.output import OutputTable
from monsterlie.qseries import QSeries

PUBLIC = [
    "ClassRecord", "CoefficientTable", "Dataset", "DatasetError", "FockState",
    "FormalNaturalVector", "Gl2Generators", "HatLatticeElement",
    "IntegralityError", "LatticeVector", "MElement", "QSeries",
    "UnsupportedBracketError", "bracket", "cartan_entry", "cli",
    "conformal_vector", "dataset", "eta_quotient", "euler_product", "gl2",
    "hat_inverse", "hat_multiply", "heisenberg_apply", "is_primary",
    "j_series", "lattice", "load_dataset", "make_gl2", "mckay_thompson",
    "multiplicity", "nontriviality_report", "normalize_partner", "output",
    "pairing", "primality_of_representatives", "primary_dim_series",
    "primary_pair", "qseries", "replicate_extend", "replication",
    "save_dataset", "schur_apply", "section", "trivial_dataset",
    "vacuum_vector", "validate_dataset", "verify_relations",
    "vertex_iota_coeff", "virasoro_apply", "weight_of",
]

# names that nothing in the package, its CLI or its benchmark used; the E4
# and partition series live on as oracles in tests/test_qseries.py and
# `parse_csv` as a helper in tests/test_cli.py
REMOVED = {
    "qseries": ["sigma3", "eisenstein_e4", "partition_series", "_frac"],
    "lattice": ["weyl_reflect"],
}
REMOVED_METHODS = {
    QSeries: ["is_integral", "coefficients"],
    LatticeVector: ["__sub__", "__rmul__"],
    MElement: ["__neg__"],
    OutputTable: ["parse_csv"],
}


def test_public_names_are_pinned():
    assert sorted(n for n in dir(monsterlie) if not n.startswith("_")) == PUBLIC


def test_removed_names_are_gone():
    for module, names in REMOVED.items():
        module = importlib.import_module(f"monsterlie.{module}")
        for name in names:
            assert not hasattr(monsterlie, name), name
            assert not hasattr(module, name), name
    for cls, names in REMOVED_METHODS.items():
        for name in names:
            assert name not in cls.__dict__, f"{cls.__name__}.{name}"
    assert not hasattr(OutputTable, "parse_csv")
    # __eq__ without __hash__ leaves __hash__ None: unhashable by default
    assert QSeries.__dict__["__hash__"] is None
    assert FockState.__dict__["__hash__"] is None


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


VALUES = {  # build one value, and the fields to assign
    "LatticeVector": (lambda: LatticeVector(1, Fraction(-1, 2)), ("m",)),
    "HatLatticeElement": (lambda: HatLatticeElement(LatticeVector(1, -1), -1), ("sign",)),
    "FockState": (lambda: FockState.iota(HatLatticeElement((1, 0))), ("terms",)),
    "FormalNaturalVector": (lambda: FormalNaturalVector("u", 2, scale=3), ("scale",)),
    "MElement": (lambda: MElement.cartan_vector(1, 2), ("terms",)),
    "QSeries": (lambda: QSeries(-1, [1, 0, 5]), ("valuation", "coeffs", "order")),
}
HASHABLE = {"LatticeVector", "HatLatticeElement"}
READ_ONLY = {  # a container field, and a key it refuses to assign
    "QSeries": ("coeffs", 0),
    "FormalNaturalVector": ("pairings", ("u", "u")),
}


@pytest.mark.parametrize("name", list(VALUES))
def test_values_are_immutable_and_hash_by_value(name):
    make, fields = VALUES[name]
    value, twin = make(), make()
    assert value == twin and value is not twin
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    if name in READ_ONLY:
        field, key = READ_ONLY[name]
        with pytest.raises(TypeError, match="does not support item assignment"):
            getattr(value, field)[key] = 1
    if name == "QSeries":
        assert type(value.coeffs) is tuple
    assert value == twin
    if name in HASHABLE:
        assert hash(value) == hash(twin)
    else:
        with pytest.raises(TypeError):
            hash(value)
