import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monsterlie.cli import run
from monsterlie.dataset import (
    IDENTITY_SEEDS,
    SEED_INDICES,
    ClassRecord,
    Dataset,
    DatasetError,
    load_dataset,
    parse_dataset,
    save_dataset,
    to_jsonable,
    trivial_dataset,
    validate_dataset,
)
from monsterlie.qseries import j_series


def toy_object():
    return json.loads(json.dumps(to_jsonable(trivial_dataset())))


def test_trivial_dataset_is_valid():
    d = trivial_dataset()
    assert validate_dataset(d) == []
    assert d.group_order == 1
    assert d.identity_class().name == "1A"
    assert d.identity_class().seeds[1] == 196884
    assert d.identity_class().seeds[5] == 333202640600


def test_identity_seeds_are_the_coefficients_of_j():
    # the constant the dataset checks against, pinned to the one J
    j = j_series(5)
    assert IDENTITY_SEEDS == {k: j.coeff(k) for k in SEED_INDICES}
    assert list(IDENTITY_SEEDS) == list(SEED_INDICES)


def built_violations(classes, group_order):
    """The violations the Dataset constructor raises for these fields."""
    with pytest.raises(DatasetError) as err:
        Dataset(classes, group_order)
    return err.value.violations


def test_datasets_built_in_code_get_the_record_checks():
    identity = trivial_dataset().classes[0]
    short = ClassRecord("2B", 1, "1A", {-1: 1, 1: 276})
    assert built_violations([identity, short], 2) == [
        f"class 2B: missing seed index {k}" for k in (2, 3, 5)
    ]
    negative = ClassRecord("2B", -1, "1A", identity.seeds)
    # record violations come alone: no identity or group-order line after them
    assert built_violations([identity, identity, negative], 5) == [
        "classes[1]: duplicate class name '1A'",
        "class 2B: negative class size",
    ]
    no_identity_seed = ClassRecord("1A", 1, "1A", {-1: 1, 1: 196884})
    assert built_violations([no_identity_seed], 1) == [
        f"class 1A: missing seed index {k}" for k in (2, 3, 5)
    ]
    # a group order off the sum comes next, alone: no identity line after it
    assert built_violations([identity._replace(class_size=2)], 1) == [
        "declared group_order 1 does not equal the sum of class sizes 2"
    ]
    # read unchecked, a group order off the sum would give a wrong
    # multiplicity, and a square class that names no class a bare KeyError
    assert built_violations([identity], 2) == [
        "declared group_order 2 does not equal the sum of class sizes 1"
    ]
    assert built_violations([identity, identity._replace(name="2B", power2="9Z")], 2) == [
        "class 2B: unknown square class '9Z'"
    ]
    # _replace skips the check, as for every named tuple
    unchecked = trivial_dataset()._replace(group_order=2)
    assert validate_dataset(unchecked) == built_violations([identity], 2)
    # in a file, the shape of every class and of the characters is checked
    # first, and alone: a missing seed or an off group order waits for it
    obj = to_jsonable(trivial_dataset())
    del obj["classes"][0]["seeds"]["2"]
    obj["classes"].append({**obj["classes"][0], "name": "2B", "class_size": "x"})
    with pytest.raises(DatasetError) as exc:
        parse_dataset(obj)
    assert exc.value.violations == [
        "classes[1].class_size: expected a decimal integer, got 'x'"
    ]
    obj = {**to_jsonable(trivial_dataset()), "group_order": "7", "characters": {"2": []}}
    with pytest.raises(DatasetError) as exc:
        parse_dataset(obj)
    assert exc.value.violations == ["characters['2']: expected an object, got []"]


def test_round_trip_through_json(tmp_path):
    d = trivial_dataset()
    path = tmp_path / "classes.json"
    save_dataset(d, path)
    loaded = load_dataset(path)
    assert to_jsonable(loaded) == to_jsonable(d)
    assert loaded.group_order == d.group_order


def test_all_integers_serialize_as_decimal_strings():
    obj = to_jsonable(trivial_dataset())
    assert obj["group_order"] == "1"
    cls = obj["classes"][0]
    assert cls["class_size"] == "1"
    assert all(isinstance(v, str) for v in cls["seeds"].values())


def test_declared_group_order_must_match_sum():
    obj = toy_object()
    obj["group_order"] = "2"
    with pytest.raises(DatasetError, match="group_order"):
        parse_dataset(obj)


def test_unknown_power2_target_is_named():
    obj = toy_object()
    obj["classes"][0]["power2"] = "9Z"
    with pytest.raises(DatasetError, match="1A.*9Z"):
        parse_dataset(obj)


def test_missing_seed_index_is_reported():
    obj = toy_object()
    del obj["classes"][0]["seeds"]["3"]
    with pytest.raises(DatasetError, match="seed index 3"):
        parse_dataset(obj)


def test_leading_seed_must_be_one():
    obj = toy_object()
    obj["classes"][0]["seeds"]["-1"] = "2"
    with pytest.raises(DatasetError, match="seed -1 must be 1"):
        parse_dataset(obj)


def test_identity_seed_mismatch_names_class():
    obj = toy_object()
    obj["classes"][0]["seeds"]["2"] = "21493761"
    with pytest.raises(DatasetError, match="identity class 1A: seed 2"):
        parse_dataset(obj)


def test_two_class_toy_with_zero_seeds_is_valid():
    obj = toy_object()
    obj["classes"].append(
        {
            "name": "2Z",
            "class_size": "5",
            "power2": "2Z",
            "seeds": {"-1": "1", "1": "0", "2": "0", "3": "0", "5": "0"},
        }
    )
    obj["group_order"] = "6"
    d = parse_dataset(obj)
    assert d.group_order == 6
    assert d.by_name["2Z"].power2 == "2Z"


def test_multiple_identity_sized_classes_rejected():
    obj = toy_object()
    obj["classes"].append(
        {
            "name": "1B",
            "class_size": "1",
            "power2": "1B",
            "seeds": {"-1": "1", "1": "0", "2": "0", "3": "0", "5": "0"},
        }
    )
    obj.pop("group_order")
    with pytest.raises(DatasetError, match="exactly one class of size 1"):
        parse_dataset(obj)


def test_identity_must_square_to_itself():
    obj = toy_object()
    obj["classes"][0]["power2"] = "2Z"
    obj["classes"].append(
        {
            "name": "2Z",
            "class_size": "5",
            "power2": "2Z",
            "seeds": {"-1": "1", "1": "0", "2": "0", "3": "0", "5": "0"},
        }
    )
    obj.pop("group_order")
    with pytest.raises(DatasetError, match="exactly one class of size 1"):
        parse_dataset(obj)


def test_unknown_square_class_is_the_one_violation(tmp_path, capsys):
    # 4Z squares to 2Z, which squares to an unknown 9Z: the one fault is 2Z's
    zero = {"-1": "1", "1": "0", "2": "0", "3": "0", "5": "0"}
    obj = toy_object()
    obj.pop("group_order")
    obj["classes"] += [
        {"name": "4Z", "class_size": "2", "power2": "2Z", "seeds": zero},
        {"name": "2Z", "class_size": "1", "power2": "9Z", "seeds": zero},
    ]
    with pytest.raises(DatasetError) as info:
        parse_dataset(obj)
    assert info.value.violations == ["class 2Z: unknown square class '9Z'"]
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(obj))
    assert run(["validate-data", "--data", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "dataset error: class 2Z: unknown square class '9Z'\n"


def test_trivial_character_must_be_one():
    obj = toy_object()
    obj["characters"] = {"1": {"1A": "3"}}
    with pytest.raises(DatasetError, match="character 1"):
        parse_dataset(obj)


def test_character_block_must_cover_all_classes():
    obj = toy_object()
    obj["classes"].append(
        {
            "name": "2Z",
            "class_size": "5",
            "power2": "2Z",
            "seeds": {"-1": "1", "1": "0", "2": "0", "3": "0", "5": "0"},
        }
    )
    obj["group_order"] = "6"
    obj["characters"] = {"2": {"1A": "196883"}}
    with pytest.raises(DatasetError, match="character 2: missing values"):
        parse_dataset(obj)


def test_character_values_for_unknown_classes_are_named():
    obj = toy_object()
    obj["characters"] = {"2": {"1A": "196883", "9Z": "7"}}
    with pytest.raises(DatasetError) as err:
        parse_dataset(obj)
    assert err.value.violations == ["character 2: values for unknown classes ['9Z']"]


@pytest.mark.parametrize("spelling", ["02", "+2", " 2"])
def test_a_character_index_given_twice_is_named(tmp_path, capsys, spelling):
    # both spellings parse to k = 2; the later block used to replace the first
    obj = toy_object()
    obj["characters"] = {"2": {"1A": "196883"}, spelling: {"1A": "5"}}
    message = f"character index 2 given twice: '2' and {spelling!r}"
    with pytest.raises(DatasetError) as err:
        parse_dataset(obj)
    assert err.value.violations == [message]
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(obj))
    assert run(["validate-data", "--data", str(path)]) == 3
    assert capsys.readouterr().err == f"dataset error: {message}\n"


@pytest.mark.parametrize(
    "extra, message",
    [
        ({"4": "999"}, "class 1A: seed key '4' is not a seed index (-1, 1, 2, 3, 5)"),
        ({"0": "0"}, "class 1A: seed key '0' is not a seed index (-1, 1, 2, 3, 5)"),
        ({"seven": "abc"}, "class 1A seed index: expected a decimal integer, got 'seven'"),
        ({"01": "196884"}, "class 1A: seed index 1 given twice: '1' and '01'"),
        ({"−1": "1"}, "class 1A: seed index -1 given twice: '-1' and '−1'"),
    ],
    ids=["non-seed-index", "index-zero", "not-an-integer", "one-index-twice", "unicode-minus-twice"],
)
def test_a_seed_key_is_a_seed_index_given_once(tmp_path, capsys, extra, message):
    # seed keys follow the integer rule of character keys; an unknown key
    # used to be ignored without a word
    obj = toy_object()
    obj["classes"][0]["seeds"].update(extra)
    with pytest.raises(DatasetError) as err:
        parse_dataset(obj)
    assert err.value.violations == [message]
    path = tmp_path / "seeds.json"
    path.write_text(json.dumps(obj))
    assert run(["validate-data", "--data", str(path)]) == 3
    assert capsys.readouterr().err == f"dataset error: {message}\n"


@pytest.mark.parametrize("spelling", ["01", "+1", " 1"])
def test_a_seed_index_reads_as_the_integer_it_spells(spelling):
    obj = toy_object()
    seeds = obj["classes"][0]["seeds"]
    seeds[spelling] = seeds.pop("1")
    assert parse_dataset(obj).classes[0].seeds == trivial_dataset().classes[0].seeds


def test_every_class_names_its_own_seed_problems():
    obj = toy_object()
    zero = {str(k): "1" if k == -1 else "0" for k in SEED_INDICES}
    obj["classes"].append({"name": "2Z", "class_size": "1", "power2": "2Z", "seeds": zero})
    obj["classes"][0]["seeds"]["4"] = "1"
    obj["classes"][1]["seeds"]["2 "] = "0"
    obj.pop("group_order")
    with pytest.raises(DatasetError) as err:
        parse_dataset(obj)
    assert err.value.violations == [
        "class 1A: seed key '4' is not a seed index (-1, 1, 2, 3, 5)",
        "class 2Z: seed index 2 given twice: '2' and '2 '",
    ]


def test_an_empty_class_is_a_violation():
    # a class of size 0 would drop out of every multiplicity unseen
    identity = trivial_dataset().classes[0]
    empty = ClassRecord("2B", 0, "1A", identity.seeds)
    assert built_violations([identity, empty], 1) == ["class 2B: empty class (size 0)"]
    negative = empty._replace(class_size=-3)
    assert built_violations([identity, negative], -2) == ["class 2B: negative class size"]
    obj = toy_object()
    obj["classes"].append({**obj["classes"][0], "name": "2B", "class_size": "0"})
    with pytest.raises(DatasetError) as err:
        parse_dataset(obj)
    assert err.value.violations == ["class 2B: empty class (size 0)"]


def test_parse_accepts_plain_json_integers():
    obj = toy_object()
    obj["classes"][0]["class_size"] = 1
    obj["classes"][0]["seeds"]["1"] = 196884
    d = parse_dataset(obj)
    assert d.identity_class().seeds[1] == 196884


def test_unreadable_file_raises_dataset_error(tmp_path):
    with pytest.raises(DatasetError, match="cannot read"):
        load_dataset(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DatasetError, match="not valid JSON"):
        load_dataset(bad)


@pytest.mark.parametrize(
    "content, message",
    [
        (b"\xff\xfe{}", "dataset is not valid UTF-8 JSON: "),
        (b"[" * 100_000 + b"]" * 100_000, "dataset is nested too deeply"),
    ],
)
def test_undecodable_file_raises_dataset_error(tmp_path, content, message):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    with pytest.raises(DatasetError) as info:
        load_dataset(path)
    assert str(info.value).startswith(message)


def test_integers_past_the_digit_limit_are_dataset_errors(tmp_path):
    limit = sys.get_int_max_str_digits()
    digits = "9" * 5000
    obj = toy_object()
    obj["classes"][0]["class_size"] = digits
    with pytest.raises(DatasetError) as err:
        parse_dataset(obj)
    (message,) = err.value.violations
    assert message == (
        f"classes[0].class_size: expected a decimal integer of at most {limit} "
        f"digits, got '99999999999999999999'... (5000 characters)"
    )
    # the same value as a JSON number fails inside the JSON decoder
    path = tmp_path / "big.json"
    path.write_text(json.dumps(toy_object()).replace('"class_size": "1"', f'"class_size": {digits}'))
    with pytest.raises(DatasetError) as err:
        load_dataset(path)
    assert str(err.value) == f"dataset holds a number of more than {limit} digits"


def _set_class_field(field, value):
    def mutate(obj):
        obj["classes"][0][field] = value

    return mutate


@pytest.mark.parametrize(
    "mutate, message",
    [
        (
            lambda obj: obj.update(characters={"2": "oops"}),
            "characters['2']: expected an object, got 'oops'",
        ),
        (
            lambda obj: obj.update(characters=["2"]),
            "characters: expected an object, got ['2']",
        ),
        (
            _set_class_field("seeds", "12345"),
            "classes[0].seeds: expected an object, got '12345'",
        ),
        (
            _set_class_field("name", ["1A"]),
            "classes[0].name: expected a string, got ['1A']",
        ),
        (
            _set_class_field("power2", {"1A": 1}),
            "classes[0].power2: expected a string, got {'1A': 1}",
        ),
        (
            _set_class_field("class_size", True),
            "classes[0].class_size: expected a decimal integer, got True",
        ),
        (
            lambda obj: obj["classes"][0]["seeds"].update({"1": "196_884"}),
            "class 1A seed 1: expected a decimal integer, got '196_884'",
        ),
        (
            lambda obj: obj["classes"][0]["seeds"].update({"1": "１９６８８４"}),
            "class 1A seed 1: expected a decimal integer, got '１９６８８４'",
        ),
        (
            lambda obj: obj.update(classes={"1A": {}}),
            "classes: expected an array, got {'1A': {}}",
        ),
        (
            lambda obj: obj["classes"].append("2B"),
            "classes[1]: expected an object, got '2B'",
        ),
    ],
    ids=[
        "character-not-object",
        "characters-not-object",
        "seeds-not-object",
        "name-not-string",
        "power2-not-string",
        "class-size-bool",
        "seed-digit-groups",
        "seed-fullwidth-digits",
        "classes-not-array",
        "class-record-not-object",
    ],
)
def test_malformed_shape_is_a_dataset_error_naming_the_field(mutate, message):
    obj = toy_object()
    mutate(obj)
    with pytest.raises(DatasetError) as err:
        parse_dataset(obj)
    assert message in err.value.violations


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(["0", "1", "-3", "1A", "2Z"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
SEED_KEYS = st.sampled_from([str(k) for k in SEED_INDICES] + ["4", "x"])
FIELD_PATHS = ("name", "class_size", "power2", "seeds") + tuple(
    f"seeds.{k}" for k in SEED_INDICES
)


@st.composite
def class_records(draw):
    """A valid zero-seeded class record with up to two fields (or seeds)
    replaced by arbitrary JSON values or dropped."""
    record = {
        "name": "2Z",
        "class_size": "5",
        "power2": "2Z",
        "seeds": {str(k): "1" if k == -1 else "0" for k in SEED_INDICES},
    }
    for path in draw(st.lists(st.sampled_from(FIELD_PATHS), max_size=2)):
        field, _, seed = path.partition(".")
        target = record[field] if seed else record
        key = seed or field
        if not isinstance(target, dict):
            continue
        if draw(st.booleans()):
            target.pop(key, None)
        else:
            target[key] = draw(JSON_VALUES)
    return record


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    record=class_records() | JSON_VALUES,
    replace_identity=st.booleans(),
    characters=st.none() | JSON_VALUES | st.dictionaries(SEED_KEYS, JSON_VALUES),
)
def test_fuzzed_class_records_raise_only_dataset_error(
    record, replace_identity, characters
):
    obj = toy_object()
    if replace_identity:
        obj["classes"][0] = record
    else:
        obj["classes"].append(record)
        obj.pop("group_order")
    obj["characters"] = characters
    try:
        parse_dataset(obj)
    except DatasetError:
        pass
