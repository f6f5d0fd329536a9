"""The package surface and its value types: the public names are pinned,
the result records are named tuples (a cold CLI import loads neither
`dataclasses` nor `inspect`, and a plain cold call not `locale`; fields
cannot be assigned, and `by_name` is derived from `classes`), and the
value classes are immutable and hash by value or not at all."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import monsterlie
import monsterlie.cli  # imports every submodule, so each is a package attribute
from monsterlie.dataset import ClassRecord, Dataset, trivial_dataset
from monsterlie.gl2 import FormalNaturalVector, MElement
from monsterlie.lattice import FockState, HatLatticeElement, _Terms
from monsterlie.output import OutputTable
from monsterlie.qseries import QSeries

PUBLIC = [
    "ClassRecord", "CoefficientTable", "Dataset", "DatasetError", "FockState",
    "FormalNaturalVector", "Gl2Generators", "HatLatticeElement",
    "IntegralityError", "MElement", "QSeries",
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
# `parse_csv` as a helper in tests/test_cli.py; `LatticeVector` gave way to
# coordinate pairs (m, n), and `UnsupportedStateError` to the `TypeError`
# of every other type gate
REMOVED = {
    "qseries": ["sigma3", "eisenstein_e4", "partition_series", "_frac"],
    "lattice": ["weyl_reflect", "LatticeVector", "UnsupportedStateError"],
}
REMOVED_METHODS = {
    QSeries: ["is_integral", "coefficients"],
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
    assert FockState.__hash__ is None and MElement.__hash__ is None


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


@pytest.mark.parametrize(
    "argv, loads_locale", [(["cartan", "--depth", "3"], False), (["cartan", "-h"], True)]
)
def test_a_plain_call_leaves_argparse_idle(argv, loads_locale):
    """A plain call is read from the command table: argparse's first
    message lookup, which imports `locale`, never runs; help does run it."""
    src = str(Path(monsterlie.__file__).resolve().parents[1])
    code = (
        "import sys; from monsterlie.cli import run; code = run(sys.argv[1:]); "
        "print(code, 'locale' in sys.modules, file=sys.stderr)"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, *argv],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == f"0 {loads_locale}\n"


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
    "HatLatticeElement": (lambda: HatLatticeElement((1, -1), -1), ("sign",)),
    "FockState": (lambda: FockState.iota(HatLatticeElement((1, 0))), ("terms",)),
    "FormalNaturalVector": (lambda: FormalNaturalVector("u", 2, scale=3), ("scale",)),
    "MElement": (lambda: MElement.cartan_vector(1, 2), ("terms",)),
    "QSeries": (lambda: QSeries(-1, [1, 0, 5]), ("valuation", "coeffs", "order")),
}
HASHABLE = {"HatLatticeElement", "FormalNaturalVector"}
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


@pytest.mark.parametrize("cls", [FockState, MElement])
def test_term_dicts_refuse_floats(cls):
    """A float coefficient or scalar raises `TypeError`: the numerators
    stay exact integers."""
    x = VALUES[cls.__name__][0]()
    key = next(iter(x.terms))
    with pytest.raises(TypeError, match="exact rational"):
        cls({key: 0.5})
    for scalar in (0.5, 1.0):
        with pytest.raises(TypeError, match="exact rational"):
            scalar * x
        with pytest.raises(TypeError, match="exact rational"):
            x * scalar


@pytest.mark.parametrize("cls", [HatLatticeElement, FormalNaturalVector])
def test_value_classes_are_named_tuples(cls):
    """The checks live in `__new__`; the tuple gives the rest, except the
    hash of a symbol, whose read-only pairing table does not hash."""
    assert issubclass(cls, tuple) and cls.__slots__ == ()
    own = {"__hash__"} if cls is FormalNaturalVector else set()
    for name in ("__init__", "__setattr__", "__eq__", "__hash__"):
        assert (name in cls.__dict__) == (name in own), f"{cls.__name__}.{name}"
    assert tuple(HatLatticeElement((1, -1), -1)) == ((1, -1), -1)
    label, weight, primary, scale, pairings = FormalNaturalVector("u", 2, scale=3)
    assert (label, weight, primary, scale, dict(pairings)) == ("u", 2, True, 3, {})


@pytest.mark.parametrize("cls", [FockState, MElement])
def test_term_arithmetic_has_one_home(cls):
    """Both term dicts take their gate, arithmetic and equality from
    `lattice._Terms` and keep only their own keys, constructors and repr;
    the two types never mix."""
    assert cls.__bases__ == (_Terms,) and cls.__slots__ == ("numer", "den")
    shared = ("__init__", "__setattr__", "__eq__", "__add__", "__sub__",
              "__rmul__", "__mul__", "zero", "is_zero")
    for name in shared:
        assert name not in cls.__dict__, f"{cls.__name__}.{name}"
    x = VALUES[cls.__name__][0]()
    other = VALUES["MElement" if cls is FockState else "FockState"][0]()
    assert FockState.zero() != MElement.zero()
    with pytest.raises(TypeError):
        x + other
    with pytest.raises(TypeError):
        x - other
    assert 1 * x is x and x * 1 is x
    with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
        x.terms = {}
    with pytest.raises(TypeError):
        hash(x)
