"""Conjugacy-class dataset: schema, ingestion, and validation.

The replication engine consumes one record per conjugacy class of the
finite group acting on the moonshine module: a class name, the class
size, the class of the squared elements, and seed trace coefficients at
indices -1, 1, 2, 3, 5 (every later coefficient is determined by the
recursions).  An optional block of irreducible character values enables
multiplicities beyond the trivial one.

Files are JSON.  Every integer travels as a decimal string, since class
sizes and traces far exceed native widths in most toolchains; plain JSON
integers are accepted on input and normalized to strings on output.  The
group order is the sum of the class sizes, never hardcoded; a file may
declare `group_order` and the declaration is checked against the sum.

Expected shape:

    {
      "classes": [
        {"name": "1A", "class_size": "1", "power2": "1A",
         "seeds": {"-1": "1", "1": "196884", "2": "21493760",
                   "3": "864299970", "5": "333202640600"}},
        ...
      ],
      "group_order": "...",            # optional, checked
      "characters": {"2": {"1A": "196883", ...}, ...}   # optional
    }
"""

from __future__ import annotations

import json
import sys
from typing import NamedTuple

SEED_INDICES = (-1, 1, 2, 3, 5)
# the identity class's seeds: the coefficients of J = q**-1 + 196884 q + ...
# at SEED_INDICES (pinned to `qseries.j_series` by the tests)
IDENTITY_SEEDS = {-1: 1, 1: 196884, 2: 21493760, 3: 864299970, 5: 333202640600}


class DatasetError(ValueError):
    """Dataset failed to parse or validate; `violations` lists the reasons."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ClassRecord(NamedTuple):
    name: str
    class_size: int
    power2: str
    seeds: dict  # index in SEED_INDICES -> exact integer


class Dataset(NamedTuple("Dataset", [("classes", list), ("group_order", int), ("characters", dict)])):
    """Class records, the group order and the optional characters {irreducible
    index: {class name: int}}; the constructor raises DatasetError with the
    `validate_dataset` list (`_make` and `_replace` skip the check)."""

    __slots__ = ()

    def __new__(cls, classes, group_order, characters=None):
        dataset = super().__new__(cls, classes, group_order, characters)
        if violations := validate_dataset(dataset):
            raise DatasetError(violations)
        return dataset

    @property
    def by_name(self):
        """{class name: record}, built from `classes` on each access."""
        return {record.name: record for record in self.classes}

    def identity_class(self):
        """The unique class of size 1 that squares to itself (an abelian
        group has many classes of size 1; only the identity has g**2 = g)."""
        hits = [r for r in self.classes if r.class_size == 1 and r.power2 == r.name]
        if len(hits) != 1:
            raise DatasetError(
                "expected exactly one class of size 1 that squares to itself, "
                f"found {len(hits)}"
            )
        return hits[0]


_SHAPES = {str: "a string", dict: "an object", list: "an array"}


def _expect(value, shape, where):
    """`value` if it is a `shape` (str, dict or list), else a DatasetError
    naming the field."""
    if not isinstance(value, shape):
        raise DatasetError(f"{where}: expected {_SHAPES[shape]}, got {value!r}")
    return value


def decimal_int(text):
    """The integer `text` spells as an optional sign and ASCII digits (blanks
    around allowed), else None: the one integer rule of dataset files and CLI
    flags, since `int()` also reads digit-group underscores and every Unicode
    decimal digit.  Past the interpreter's digit limit it raises ValueError,
    whose message echoes only the start of `text` and its length."""
    digits = text.strip()
    digits = digits[1:] if digits[:1] in "+-" else digits
    if not (digits.isascii() and digits.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:
        raise ValueError(
            f"expected a decimal integer of at most {sys.get_int_max_str_digits()} "
            f"digits, got {text[:20]!r}... ({len(text)} characters)"
        ) from None


def _parse_int(value, where):
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            number = decimal_int(value.replace("−", "-"))
        except ValueError as exc:  # past the digit limit
            raise DatasetError(f"{where}: {exc}") from None
        if number is not None:
            return number
    raise DatasetError(f"{where}: expected a decimal integer, got {value!r}")


def parse_dataset(obj):
    """Build a Dataset from decoded JSON; raises DatasetError listing every
    violation found, in the fields or by the `Dataset` constructor."""
    if not isinstance(obj, dict) or "classes" not in obj:
        raise DatasetError("top-level object must contain a 'classes' array")
    records = []
    problems = []
    for idx, raw in enumerate(_expect(obj["classes"], list, "classes")):
        where = f"classes[{idx}]"
        try:
            _expect(raw, dict, where)
            name = _expect(raw["name"], str, f"{where}.name")
            size = _parse_int(raw["class_size"], f"{where}.class_size")
            power2 = _expect(raw["power2"], str, f"{where}.power2")
            seeds_raw = _expect(raw["seeds"], dict, f"{where}.seeds")
        except KeyError as exc:
            problems.append(f"{where}: missing field {exc}")
            continue
        except DatasetError as exc:
            problems.extend(exc.violations)
            continue
        seeds, spelled = {}, {}
        for k_raw, value in seeds_raw.items():
            k = _parse_int(k_raw, f"class {name} seed index")
            if k not in SEED_INDICES:
                problems.append(
                    f"class {name}: seed key {k_raw!r} is not a seed index {SEED_INDICES}"
                )
            elif k in spelled:
                problems.append(
                    f"class {name}: seed index {k} given twice: {spelled[k]!r} and {k_raw!r}"
                )
            else:
                spelled[k] = k_raw
                seeds[k] = _parse_int(value, f"class {name} seed {k}")
        records.append(ClassRecord(name, size, power2, seeds))
    if problems:
        raise DatasetError(problems)

    group_order = sum(r.class_size for r in records)
    if obj.get("group_order") is not None:
        group_order = _parse_int(obj["group_order"], "group_order")
    characters = None
    if obj.get("characters") is not None:
        characters, spelled = {}, {}
        for k_raw, per_class in _expect(obj["characters"], dict, "characters").items():
            k = _parse_int(k_raw, "character index")
            if k in spelled:
                problems.append(f"character index {k} given twice: {spelled[k]!r} and {k_raw!r}")
            spelled[k] = k_raw
            characters[k] = {
                cls: _parse_int(val, f"character {k} on class {cls}")
                for cls, val in _expect(per_class, dict, f"characters[{k_raw!r}]").items()
            }
    if problems:
        raise DatasetError(problems)
    return Dataset(records, group_order, characters)


def validate_dataset(dataset):
    """Check every schema invariant; returns the list of violations (empty
    when the dataset is consistent).  Violations within the records (a
    duplicate name, a negative or zero size, a missing seed) come alone,
    since the checks after them read the records; a group order that is not
    the sum of the class sizes comes next, also alone."""
    out = []
    names = set()
    for idx, record in enumerate(dataset.classes):
        if record.name in names:
            out.append(f"classes[{idx}]: duplicate class name {record.name!r}")
        names.add(record.name)
        if record.class_size < 0:
            out.append(f"class {record.name}: negative class size")
        elif record.class_size == 0:
            out.append(f"class {record.name}: empty class (size 0)")
        for k in SEED_INDICES:
            if k not in record.seeds:
                out.append(f"class {record.name}: missing seed index {k}")
    total = sum(r.class_size for r in dataset.classes)
    if not out and dataset.group_order != total:
        out.append(
            f"declared group_order {dataset.group_order} does not equal the sum "
            f"of class sizes {total}"
        )
    if out:
        return out
    try:
        identity = dataset.identity_class()
    except DatasetError as exc:
        out.extend(exc.violations)
    else:
        for k in SEED_INDICES:
            if identity.seeds[k] != IDENTITY_SEEDS[k]:
                out.append(
                    f"identity class {identity.name}: seed {k} is "
                    f"{identity.seeds[k]}, expected {IDENTITY_SEEDS[k]}"
                )

    for record in dataset.classes:
        if record.seeds[-1] != 1:
            out.append(
                f"class {record.name}: seed -1 must be 1 (normalized series), "
                f"got {record.seeds[-1]}"
            )
        if record.power2 not in names:
            out.append(
                f"class {record.name}: unknown square class {record.power2!r}"
            )

    if dataset.characters is not None:
        for k, per_class in dataset.characters.items():
            missing = names - set(per_class)
            if missing:
                out.append(
                    f"character {k}: missing values for classes "
                    f"{sorted(missing)}"
                )
            unknown = set(per_class) - names
            if unknown:
                out.append(
                    f"character {k}: values for unknown classes {sorted(unknown)}"
                )
            if k == 1 and any(v != 1 for v in per_class.values()):
                out.append("character 1 must be identically 1")
    return out


def load_dataset(path):
    """Read and validate a dataset file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
    except OSError as exc:
        raise DatasetError(f"cannot read dataset: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DatasetError(f"dataset is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DatasetError(f"dataset is not valid UTF-8 JSON: {exc}") from exc
    except RecursionError as exc:
        raise DatasetError("dataset is nested too deeply") from exc
    except ValueError as exc:  # a JSON number past the interpreter's digit limit
        limit = sys.get_int_max_str_digits()
        raise DatasetError(f"dataset holds a number of more than {limit} digits") from exc
    return parse_dataset(obj)


def to_jsonable(dataset):
    """Dataset as a JSON-ready object; all integers as decimal strings."""
    obj = {
        "classes": [
            {
                "name": r.name,
                "class_size": str(r.class_size),
                "power2": r.power2,
                "seeds": {str(k): str(v) for k, v in sorted(r.seeds.items())},
            }
            for r in dataset.classes
        ],
        "group_order": str(dataset.group_order),
    }
    if dataset.characters is not None:
        obj["characters"] = {
            str(k): {cls: str(v) for cls, v in sorted(per.items())}
            for k, per in sorted(dataset.characters.items())
        }
    return obj


def save_dataset(dataset, path):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(to_jsonable(dataset), handle, indent=1)
        handle.write("\n")


def trivial_dataset():
    """Single-class dataset for the trivial group.

    The one class is the identity, its seeds are read off the modular
    invariant, and the group order is 1; multiplicities against it reduce
    to the trace coefficients themselves.
    """
    record = ClassRecord("1A", 1, "1A", dict(IDENTITY_SEEDS))
    return Dataset([record], 1, None)
