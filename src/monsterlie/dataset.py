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
from itertools import combinations_with_replacement
from typing import NamedTuple

from .qseries import _as_int

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
    index: {class name: int}}; the constructor, the one judge of a field, raises
    DatasetError with the `validate_dataset` list (`_make`, `_replace` skip it)."""

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


def _decoded(value, where, problems):
    """The `int` a decimal string (U+2212 read as a minus) or an `int`
    subclass spells; any other value unchanged, for `validate_dataset` to
    judge.  A string that spells no decimal integer goes to `problems`."""
    if (number := _as_int(value)) is not None:
        return number
    if isinstance(value, str):
        try:
            if (number := decimal_int(value.replace("−", "-"))) is not None:
                return number
            problems.append(f"{where}: expected a decimal integer, got {value!r}")
        except ValueError as exc:  # past the digit limit
            problems.append(f"{where}: {exc}")
    return value


def _indexed(block, where, label, problems):
    """{decoded key: value} of `block`; a key that spells no integer, or an
    index spelled twice, goes to `problems`."""
    out, spelled = {}, {}
    for raw, value in block.items():
        if isinstance(k := _decoded(raw, where, problems), str):
            continue  # spells no integer
        if k in spelled:
            problems.append(f"{label} {k} given twice: {spelled[k]!r} and {raw!r}")
        spelled[k], out[k] = raw, value
    return out


def parse_dataset(obj):
    """Build a Dataset from decoded JSON, reading only the file's spelling:
    decimal strings and `int` subclasses become `int`s, each seed and
    character index key is decoded once, and every other value goes as it
    is to the `Dataset` constructor, which judges every field.  Raises
    DatasetError listing every spelling problem, missing field, record that
    is not an object or `classes` that is not an array, else the
    constructor's violations."""
    if not isinstance(obj, dict) or "classes" not in obj:
        raise DatasetError("top-level object must contain a 'classes' array")
    if not isinstance(obj["classes"], list):
        raise DatasetError(f"classes: expected an array, got {obj['classes']!r}")
    records, problems = [], []
    for idx, raw in enumerate(obj["classes"]):
        if not isinstance(raw, dict):
            problems.append(f"classes[{idx}]: expected an object, got {raw!r}")
            continue
        try:
            name, size, power2, seeds = (raw[f] for f in ClassRecord._fields)
        except KeyError as exc:
            problems.append(f"classes[{idx}]: missing field {exc}")
            continue
        size = _decoded(size, f"classes[{idx}].class_size", problems)
        if isinstance(seeds, dict):
            label = f"class {name}: seed index"
            seeds = _indexed(seeds, f"class {name} seed index", label, problems)
            seeds = {k: _decoded(v, f"class {name} seed {k}", problems) for k, v in seeds.items()}
        records.append(ClassRecord(name, size, power2, seeds))
    # a size that is not an int is refused alone, so it may drop from the sum
    group_order = sum(r.class_size for r in records if isinstance(r.class_size, int))
    if obj.get("group_order") is not None:
        group_order = _decoded(obj["group_order"], "group_order", problems)
    if isinstance(characters := obj.get("characters"), dict):
        characters = _indexed(characters, "character index", "character index", problems)
        for k, per_class in characters.items():
            if isinstance(per_class, dict):
                characters[k] = {
                    cls: _decoded(v, f"character {k} on class {cls}", problems)
                    for cls, v in per_class.items()
                }
    if problems:
        raise DatasetError(problems)
    return Dataset(records, group_order, characters)


def validate_dataset(dataset):
    """The one judge of a dataset's fields; returns the list of violations,
    empty when the dataset is consistent.  The fields come first, and alone:
    each class a `ClassRecord` with a `str` name (unique) and `power2`, a
    positive class size, `seeds` a dict keyed by SEED_INDICES, `characters` a
    dict keyed by positive indices of dicts, every integer an `int` by
    `_as_int`.  Next, also alone, a group order off the sum of the class
    sizes.  Then the identity seeds, seed -1, the square classes, each
    character block's classes (a block names every class), and orthonormality:
    for every pair k <= l of blocks, the trivial character included as index
    1, sum_C |C| chi_k(C) chi_l(C) = |G| delta_kl, so a given block 1 passes
    only when it is all ones; only some irreducibles need a block.  Cost:
    k(k+1)/2 sums of `classes` integer products for k blocks."""
    out, names = [], set()
    for idx, record in enumerate(dataset.classes):
        if not isinstance(record, ClassRecord):
            out.append(f"classes[{idx}] is {record!r}, not a ClassRecord")
            continue
        name, seeds = record.name, record.seeds
        if not isinstance(name, str):
            out.append(f"classes[{idx}]: name is {name!r}, not a str")
        elif name in names:
            out.append(f"classes[{idx}]: duplicate class name {name!r}")
        else:
            names.add(name)
        if (size := _as_int(record.class_size)) is None:
            out.append(f"class {name}: class_size is {record.class_size!r}, not an int")
        elif size < 0:
            out.append(f"class {name}: negative class size")
        elif size == 0:
            out.append(f"class {name}: empty class (size 0)")
        if not isinstance(record.power2, str):
            out.append(f"class {name}: power2 is {record.power2!r}, not a str")
        if not isinstance(seeds, dict):
            out.append(f"class {name}: seeds is {seeds!r}, not a dict")
            continue
        bad = [k for k in seeds if _as_int(k) not in SEED_INDICES]
        out += [f"class {name}: seed key {k!r} is not a seed index {SEED_INDICES}" for k in bad]
        for k in SEED_INDICES:
            if k not in seeds:
                out.append(f"class {name}: missing seed index {k}")
            elif _as_int(value := seeds[k]) is None:
                out.append(f"class {name}: seed {k} is {value!r}, not an int")
    characters = {} if dataset.characters is None else dataset.characters
    if not isinstance(characters, dict):
        out.append(f"characters is {characters!r}, not a dict")
        characters = {}
    for k, per_class in characters.items():
        if (_as_int(k) or 0) < 1:
            out.append(f"character index {k!r} is not a positive int")
        if not isinstance(per_class, dict):
            out.append(f"character {k}: {per_class!r} is not a dict of class values")
            continue
        for name, value in per_class.items():
            if _as_int(value) is None:
                out.append(f"class {name}: character {k} is {value!r}, not an int")
    if _as_int(dataset.group_order) is None:
        out.append(f"group_order is {dataset.group_order!r}, not an int")
    if out:
        return out
    if dataset.group_order != (total := sum(r.class_size for r in dataset.classes)):
        order = dataset.group_order
        return [f"declared group_order {order} does not equal the sum of class sizes {total}"]
    try:
        identity = dataset.identity_class()
    except DatasetError as exc:
        out.extend(exc.violations)
    else:
        for k in SEED_INDICES:
            if (seed := identity.seeds[k]) != (want := IDENTITY_SEEDS[k]):
                out.append(f"identity class {identity.name}: seed {k} is {seed}, expected {want}")
    for record in dataset.classes:
        if (seed := record.seeds[-1]) != 1:
            out.append(f"class {record.name}: seed -1 must be 1 (normalized series), got {seed}")
        if record.power2 not in names:
            out.append(f"class {record.name}: unknown square class {record.power2!r}")
    blocks = [(1, dict.fromkeys(names, 1))]
    for k, per_class in characters.items():
        if missing := sorted(names - set(per_class)):
            out.append(f"character {k}: missing values for classes {missing}")
        if unknown := sorted(set(per_class) - names, key=str):
            out.append(f"character {k}: values for unknown classes {unknown}")
        if not (missing or unknown):
            blocks.append((k, per_class))
    for (k, chi), (l, psi) in combinations_with_replacement(blocks, 2):
        inner = sum(r.class_size * chi[r.name] * psi[r.name] for r in dataset.classes)
        if inner != (expected := dataset.group_order if k == l else 0):
            rule = f"sum of class_size * chi_{k} * chi_{l} is {inner}, expected {expected}"
            out.append(f"characters {k} and {l} are not orthonormal: {rule}")
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
