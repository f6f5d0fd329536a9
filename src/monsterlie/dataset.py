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
from dataclasses import dataclass, field

from .qseries import j_series

SEED_INDICES = (-1, 1, 2, 3, 5)


class DatasetError(ValueError):
    """Dataset failed to parse or validate; `violations` lists the reasons."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass
class ClassRecord:
    name: str
    class_size: int
    power2: str
    seeds: dict  # index in SEED_INDICES -> exact integer


@dataclass
class Dataset:
    classes: list
    group_order: int
    characters: dict | None = None  # irreducible index -> {class name -> int}
    by_name: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self.by_name:
            self.by_name = {record.name: record for record in self.classes}

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


def _parse_int(value, where):
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        text = value.strip().replace("−", "-")
        try:
            return int(text, 10)
        except ValueError:
            pass
    raise DatasetError(f"{where}: expected a decimal integer, got {value!r}")


def _identity_seed_expectations():
    j = j_series(5)
    return {k: j.coeff(k) for k in SEED_INDICES}


def parse_dataset(obj):
    """Build a Dataset from decoded JSON, then validate it; raises
    DatasetError listing every violation found."""
    if not isinstance(obj, dict) or "classes" not in obj:
        raise DatasetError("top-level object must contain a 'classes' array")
    records = []
    problems = []
    seen = set()
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
        if name in seen:
            problems.append(f"{where}: duplicate class name {name!r}")
        seen.add(name)
        if size < 0:
            problems.append(f"class {name}: negative class size")
        seeds = {}
        for k in SEED_INDICES:
            key = str(k)
            if key not in seeds_raw:
                problems.append(f"class {name}: missing seed index {k}")
                continue
            seeds[k] = _parse_int(seeds_raw[key], f"class {name} seed {k}")
        records.append(ClassRecord(name, size, power2, seeds))
    if problems:
        raise DatasetError(problems)

    declared = obj.get("group_order")
    total = sum(r.class_size for r in records)
    if declared is not None:
        declared = _parse_int(declared, "group_order")
        if declared != total:
            raise DatasetError(
                f"declared group_order {declared} does not equal the sum of "
                f"class sizes {total}"
            )
    characters = None
    if obj.get("characters") is not None:
        characters = {}
        for k_raw, per_class in _expect(obj["characters"], dict, "characters").items():
            k = _parse_int(k_raw, "character index")
            characters[k] = {
                cls: _parse_int(val, f"character {k} on class {cls}")
                for cls, val in _expect(per_class, dict, f"characters[{k_raw!r}]").items()
            }
    dataset = Dataset(records, total, characters)
    violations = validate_dataset(dataset)
    if violations:
        raise DatasetError(violations)
    return dataset


def validate_dataset(dataset):
    """Re-run every schema invariant; returns the list of violations
    (empty when the dataset is consistent)."""
    out = []
    names = {r.name for r in dataset.classes}
    expected = _identity_seed_expectations()

    if dataset.group_order != sum(r.class_size for r in dataset.classes):
        out.append("group_order is not the sum of the class sizes")

    try:
        identity = dataset.identity_class()
    except DatasetError as exc:
        out.extend(exc.violations)
    else:
        for k in SEED_INDICES:
            if identity.seeds.get(k) != expected[k]:
                out.append(
                    f"identity class {identity.name}: seed {k} is "
                    f"{identity.seeds.get(k)}, expected {expected[k]}"
                )

    for record in dataset.classes:
        if record.seeds.get(-1) != 1:
            out.append(
                f"class {record.name}: seed -1 must be 1 (normalized series), "
                f"got {record.seeds.get(-1)}"
            )
        if record.power2 not in names:
            out.append(
                f"class {record.name}: unknown square class {record.power2!r}"
            )

    # the recursions reach the classes of g**2 and g**4; both must resolve
    for record in dataset.classes:
        if record.power2 in names:
            square = dataset.by_name[record.power2]
            if square.power2 not in names:
                out.append(
                    f"class {record.name}: fourth-power class unreachable via "
                    f"{record.power2!r}"
                )

    if dataset.characters is not None:
        for k, per_class in dataset.characters.items():
            missing = names - set(per_class)
            if missing:
                out.append(
                    f"character {k}: missing values for classes "
                    f"{sorted(missing)}"
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
    seeds = _identity_seed_expectations()
    record = ClassRecord("1A", 1, "1A", dict(seeds))
    return Dataset([record], 1, None)
