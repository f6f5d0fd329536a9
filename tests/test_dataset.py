import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monsterlie.dataset import (
    SEED_INDICES,
    DatasetError,
    load_dataset,
    parse_dataset,
    save_dataset,
    to_jsonable,
    trivial_dataset,
    validate_dataset,
)


def toy_object():
    return json.loads(json.dumps(to_jsonable(trivial_dataset())))


def test_trivial_dataset_is_valid():
    d = trivial_dataset()
    assert validate_dataset(d) == []
    assert d.group_order == 1
    assert d.identity_class().name == "1A"
    assert d.identity_class().seeds[1] == 196884
    assert d.identity_class().seeds[5] == 333202640600


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
