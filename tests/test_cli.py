import json

import pytest

from monsterlie.cli import run
from monsterlie.dataset import save_dataset, to_jsonable, trivial_dataset
from monsterlie.output import OutputTable
from monsterlie.qseries import eta_quotient


@pytest.fixture
def toy_data(tmp_path):
    path = tmp_path / "classes.json"
    save_dataset(trivial_dataset(), path)
    return str(path)


def table_from(capsys):
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.strip()]
    header = lines[0].split()
    rows = [line.split() for line in lines[1:]]
    return header, rows


def test_jcoeffs_first_rows(capsys):
    assert run(["jcoeffs", "--max", "3"]) == 0
    header, rows = table_from(capsys)
    assert header == ["n", "c(n)"]
    assert rows == [
        ["-1", "1"],
        ["0", "0"],
        ["1", "196884"],
        ["2", "21493760"],
        ["3", "864299970"],
    ]


def test_jcoeffs_csv_round_trips(capsys):
    assert run(["--format", "csv", "jcoeffs", "--max", "5"]) == 0
    text = capsys.readouterr().out
    table = OutputTable.parse_csv(text)
    assert table.columns == ["n", "c(n)"]
    assert table.render_csv() == text


def test_jcoeffs_json_structure(capsys):
    assert run(["--format", "json", "jcoeffs", "--max", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["columns"] == ["n", "c(n)"]
    assert doc["rows"][3] == ["2", "21493760"]
    # all cells are decimal strings, never numbers
    assert all(isinstance(c, str) for row in doc["rows"] for c in row)


def test_dims_table_row_44(capsys):
    assert run(["dims", "--max", "44"]) == 0
    _, rows = table_from(capsys)
    by_weight = {r[0]: r[1] for r in rows}
    assert by_weight["2"] == "196883"
    assert by_weight["44"] == "12113398911563006366044489650277199"


def test_eta_prefix(capsys):
    assert run(["eta", "--max", "7"]) == 0
    _, rows = table_from(capsys)
    assert [r[1] for r in rows] == ["1", "-1", "-1", "0", "0", "1", "0", "1"]


def test_cartan_blocks(capsys):
    assert run(["cartan", "--depth", "2"]) == 0
    header, rows = table_from(capsys)
    assert header == ["i", "block_size", "A(i,-1)", "A(i,1)", "A(i,2)"]
    assert rows[0] == ["-1", "1", "2", "0", "-1"]
    assert rows[1] == ["1", "196884", "0", "-2", "-3"]
    assert rows[2] == ["2", "21493760", "-1", "-3", "-4"]


def test_replicate_identity_row(capsys, toy_data):
    assert run(["replicate", "--data", toy_data, "--max", "8"]) == 0
    _, rows = table_from(capsys)
    as_dict = {r[1]: r[2] for r in rows if r[0] == "1A"}
    assert as_dict["6"] == "4252023300096"
    assert as_dict["8"] == "401490886656000"


def test_replicate_below_seed_order_prints_requested_rows(capsys, toy_data):
    # the recursions need order 5; smaller --max still prints just 1..--max
    assert run(["replicate", "--data", toy_data, "--max", "3"]) == 0
    _, rows = table_from(capsys)
    assert rows == [
        ["1A", "1", "196884"],
        ["1A", "2", "21493760"],
        ["1A", "3", "864299970"],
    ]


def _never_build_the_table(*args):
    raise AssertionError("the replication table was built before the check")


def test_replicate_unknown_class(monkeypatch, capsys, toy_data):
    # the class is checked before the (here costly) table is built
    monkeypatch.setattr("monsterlie.cli.replicate_extend", _never_build_the_table)
    argv = ["replicate", "--data", toy_data, "--class", "9Z", "--max", "4000"]
    assert run(argv) == 3
    assert capsys.readouterr().err == "dataset error: unknown class '9Z'\n"


def test_mult_without_character_is_dataset_error(monkeypatch, capsys, toy_data):
    monkeypatch.setattr("monsterlie.cli.replicate_extend", _never_build_the_table)
    assert run(["mult", "--data", toy_data, "--k", "5", "--max", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "dataset error: character values for irreducible 5 are not in the dataset\n"
    )


def test_mult_on_trivial_group(capsys, toy_data):
    assert run(["mult", "--data", toy_data, "--max", "3"]) == 0
    _, rows = table_from(capsys)
    assert rows == [
        ["1", "196884"],
        ["2", "21493760"],
        ["3", "864299970"],
    ]


def test_check_nontrivial_fails_on_trivial_group(capsys, toy_data):
    # on the trivial group the sufficient criterion cannot hold, so the
    # command must flag verification failure
    assert run(["check-nontrivial", "--data", toy_data, "--max", "5"]) == 4
    _, rows = table_from(capsys)
    assert rows[0][:3] == ["1", "196883", "196884"]
    assert rows[0][3] == "inconclusive"


def test_validate_data_ok(capsys, toy_data):
    assert run(["validate-data", "--data", toy_data]) == 0
    assert "dataset valid" in capsys.readouterr().out


def test_validate_data_validates_once(monkeypatch, capsys, toy_data):
    import monsterlie.cli
    import monsterlie.dataset

    calls = []
    original = monsterlie.dataset.validate_dataset

    def counting(dataset):
        calls.append(dataset)
        return original(dataset)

    monkeypatch.setattr(monsterlie.dataset, "validate_dataset", counting)
    # a copy of the name imported into the CLI module would bypass the patch
    monkeypatch.setattr(monsterlie.cli, "validate_dataset", counting, raising=False)
    assert run(["validate-data", "--data", toy_data]) == 0
    assert "dataset valid" in capsys.readouterr().out
    assert len(calls) == 1


def test_abelian_dataset_loads(tmp_path, capsys):
    # Z/2: both classes have size 1, only 1A squares to itself
    t2b = eta_quotient({1: 24, 2: -24}, 7).shift(-1) + 24
    obj = to_jsonable(trivial_dataset())
    obj["classes"].append(
        {
            "name": "2B",
            "class_size": "1",
            "power2": "1A",
            "seeds": {str(k): str(t2b.coeff(k)) for k in (-1, 1, 2, 3, 5)},
        }
    )
    obj["group_order"] = "2"
    obj["characters"] = {"2": {"1A": "1", "2B": "-1"}}
    path = tmp_path / "z2.json"
    path.write_text(json.dumps(obj))
    assert run(["validate-data", "--data", str(path)]) == 0
    assert "dataset valid" in capsys.readouterr().out
    assert run(["mult", "--data", str(path), "--k", "2", "--max", "2"]) == 0
    _, rows = table_from(capsys)
    # (196884 - 276) / 2 and (21493760 + 2048) / 2
    assert [row[-1] for row in rows] == ["98304", "10747904"]


def test_validate_data_rejects_corruption(tmp_path, capsys):
    obj = to_jsonable(trivial_dataset())
    obj["classes"][0]["seeds"]["1"] = "196885"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert run(["validate-data", "--data", str(path)]) == 3
    assert "seed 1" in capsys.readouterr().err


def test_validate_data_rejects_malformed_shape(tmp_path, capsys):
    obj = to_jsonable(trivial_dataset())
    obj["classes"][0]["seeds"] = "12345"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert run(["validate-data", "--data", str(path)]) == 3
    assert capsys.readouterr().err == (
        "dataset error: classes[0].seeds: expected an object, got '12345'\n"
    )


def test_verify_gl2_passes(capsys):
    for j in ("-1", "1", "2", "10"):
        assert run(["verify-gl2", "--j", j]) == 0
        out = capsys.readouterr().out
        assert "6/6 relations pass" in out
        assert "FAIL" not in out


def test_verify_gl2_wrong_pairing_sign(capsys):
    assert run(["verify-gl2", "--j", "1", "--pairing-sign", "+1"]) == 4
    assert "verification error" in capsys.readouterr().err


def test_verify_gl2_explicit_sign_accepted(capsys):
    assert run(["verify-gl2", "--j", "1", "--pairing-sign", "-1"]) == 0
    assert run(["verify-gl2", "--j", "2", "--pairing-sign", "+1"]) == 0
    capsys.readouterr()


def test_unknown_command_is_usage_error(capsys):
    assert run(["frobnicate"]) == 2


def test_missing_required_data_flag_is_usage_error(capsys):
    assert run(["replicate"]) == 2


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "coeffs.csv"
    assert run(["--format", "csv", "--out", str(target), "jcoeffs", "--max", "1"]) == 0
    assert capsys.readouterr().out == ""
    table = OutputTable.parse_csv(target.read_text())
    assert table.rows[-1] == ["1", "196884"]


def test_out_flag_unwritable_path_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x"
    assert run(["--out", str(target), "jcoeffs", "--max", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(target) in captured.err
    assert "Traceback" not in captured.err
    assert len(captured.err.splitlines()) == 1
