import json

import pytest

from monsterlie.dataset import (
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
