import argparse
import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import monsterlie
from monsterlie.cli import _COMMANDS, run
from monsterlie.dataset import save_dataset, to_jsonable, trivial_dataset
from monsterlie.output import OutputTable
from monsterlie.qseries import eta_quotient, j_series, mckay_thompson


@pytest.fixture
def toy_data(tmp_path):
    path = tmp_path / "classes.json"
    save_dataset(trivial_dataset(), path)
    return str(path)


def parse_csv(text):
    """The OutputTable that `render_csv` wrote as `text`."""
    rows = list(csv.reader(io.StringIO(text)))
    return OutputTable(rows[0], rows[1:])


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
    table = parse_csv(text)
    assert table.columns == ["n", "c(n)"]
    assert table.render_csv() == text


def test_render_names_an_unknown_format():
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        OutputTable.build(["n"], [[1]]).render("xml")


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


def test_dims_at_max_zero_is_the_vacuum_line(capsys):
    assert run(["dims", "--max", "0"]) == 0
    assert capsys.readouterr().out == "weight  dim_primary\n     0            1\n"


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
    # the library judges the class before the (here costly) rows are filled
    monkeypatch.setattr("monsterlie.replication._symmetric_square", _never_build_the_table)
    for name in ("9Z", ""):
        argv = ["replicate", "--data", toy_data, "--class", name, "--max", "4000"]
        assert run(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"dataset error: unknown class {name!r}\n"


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
    # the trivial group fixes every primary vector, so the verdict is
    # "trivial" and the command must flag verification failure
    assert run(["check-nontrivial", "--data", toy_data, "--max", "5"]) == 4
    _, rows = table_from(capsys)
    assert rows[0][:3] == ["1", "196883", "196884"]
    assert rows[0][3] == "trivial"


@pytest.mark.parametrize(
    "command, code", [("replicate", 0), ("mult", 0), ("check-nontrivial", 4)]
)
def test_each_dataset_command_builds_one_table(monkeypatch, capsys, toy_data, command, code):
    # the command builds the one table it reads, and the library readers
    # (the multiplicity column, the report) take it and build none
    import monsterlie.cli
    import monsterlie.replication

    build = monsterlie.replication.replicate_extend
    orders = {"cli": [], "replication": []}

    def spy(caller):
        def counting(dataset, order, *classes):
            orders[caller].append(order)
            return build(dataset, order, *classes)

        return counting

    monkeypatch.setattr(monsterlie.cli, "replicate_extend", spy("cli"))
    monkeypatch.setattr(monsterlie.replication, "replicate_extend", spy("replication"))
    assert run([command, "--data", toy_data, "--max", "7"]) == code
    assert orders == {"cli": [7], "replication": []}
    _, rows = table_from(capsys)
    assert len(rows) == 7


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
    # the report reads a Dataset already checked where it was built
    assert run(["check-nontrivial", "--data", toy_data, "--max", "3"]) == 4
    capsys.readouterr()
    assert len(calls) == 2


def test_abelian_dataset_loads(tmp_path, capsys):
    # Z/2: both classes have size 1, only 1A squares to itself
    # T_2B = q**-1 prod(1-q**n)**24 / prod(1-q**2n)**24 + 24, whose + 24
    # sits at q**0, outside the seeds: seed k is the quotient's q**(k+1)
    eta = eta_quotient({1: 24, 2: -24}, 7).coeffs
    obj = to_jsonable(trivial_dataset())
    obj["classes"].append(
        {
            "name": "2B",
            "class_size": "1",
            "power2": "1A",
            "seeds": {str(k): str(eta[k + 1]) for k in (-1, 1, 2, 3, 5)},
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


def test_character_values_for_unknown_classes_are_dataset_errors(tmp_path, capsys):
    obj = to_jsonable(trivial_dataset())
    obj["characters"] = {"2": {"1A": "1", "9Z": "7"}}
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(obj))
    for argv in (["validate-data"], ["mult", "--k", "2", "--max", "3"]):
        assert run([*argv, "--data", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "dataset error: character 2: values for unknown classes ['9Z']\n"
        )


def _s3_file(tmp_path, name, seed_2b_1=None):
    """S3 acting through 1A, 2B (squares to 1A) and 3B (squares to 3B);
    seed_2b_1 overrides C(2B, 1)."""
    traces = {"1A": j_series(6), "2B": mckay_thompson("2B", 6), "3B": mckay_thompson("3B", 6)}
    classes = []
    for cls, size, square in (("1A", 1, "1A"), ("2B", 3, "1A"), ("3B", 2, "3B")):
        seeds = {str(k): str(traces[cls].coeff(k)) for k in (-1, 1, 2, 3, 5)}
        classes.append({"name": cls, "class_size": str(size), "power2": square, "seeds": seeds})
    if seed_2b_1 is not None:
        classes[1]["seeds"]["1"] = str(seed_2b_1)
    path = tmp_path / name
    path.write_text(json.dumps({"classes": classes}))
    return str(path)


def test_replicate_class_computes_only_its_square_chain(tmp_path, capsys):
    # C(2B,1) = 277 makes the first 2B halving odd: (277^2 - 196884)/2;
    # the 3B chain never reads 2B, so --class 3B prints the consistent rows
    good = _s3_file(tmp_path, "good.json")
    bad = _s3_file(tmp_path, "bad.json", seed_2b_1=277)
    assert run(["replicate", "--data", good, "--class", "3B", "--max", "40"]) == 0
    expected = capsys.readouterr()
    assert run(["replicate", "--data", bad, "--class", "3B", "--max", "40"]) == 0
    assert capsys.readouterr() == expected
    for extra in (["--class", "2B"], []):
        assert run(["replicate", "--data", bad, *extra, "--max", "40"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "integrality failure: replication: odd halving for class 2B at index 4\n"
        )


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
        "dataset error: class 1A: seeds is '12345', not a dict\n"
    )


@pytest.mark.parametrize(
    "content, message",
    [
        (b"\xff\xfe{}", "dataset is not valid UTF-8 JSON: "),
        (b"[" * 100_000 + b"]" * 100_000, "dataset is nested too deeply"),
    ],
)
def test_validate_data_rejects_undecodable_file(tmp_path, capsys, content, message):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert run(["validate-data", "--data", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"dataset error: {message}")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_check_nontrivial_holds_on_s3(tmp_path, capsys):
    data = _s3_file(tmp_path, "s3.json")
    assert run(["check-nontrivial", "--data", data, "--max", "80"]) == 0
    captured = capsys.readouterr()
    rows = [line.split() for line in captured.out.splitlines()[1:]]
    assert [row[0] for row in rows] == [str(j) for j in range(1, 81)]
    assert "inconclusive" not in captured.out
    assert captured.err == ""


@pytest.mark.parametrize(
    "mutate, message",
    [
        (
            lambda obj: obj["classes"].append(dict(obj["classes"][0])),
            "classes[1]: duplicate class name '1A'",
        ),
        (
            lambda obj: obj["classes"][0].update(class_size="-1"),
            "class 1A: negative class size",
        ),
        (lambda obj: [obj], "top-level object must contain a 'classes' array"),
    ],
    ids=["duplicate-name", "negative-size", "top-level-array"],
)
def test_validate_data_rejects_bad_records(tmp_path, capsys, mutate, message):
    obj = to_jsonable(trivial_dataset())
    obj = mutate(obj) or obj
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert run(["validate-data", "--data", str(path)]) == 3
    assert capsys.readouterr().err == f"dataset error: {message}\n"


@pytest.mark.parametrize("as_number", [False, True], ids=["string", "number"])
def test_integers_past_the_digit_limit_exit_3(tmp_path, capsys, as_number):
    digits = "9" * 5000
    text = json.dumps(to_jsonable(trivial_dataset()))
    value = digits if as_number else f'"{digits}"'
    path = tmp_path / "big.json"
    path.write_text(text.replace('"class_size": "1"', f'"class_size": {value}'))
    for argv in (["validate-data"], ["mult", "--max", "3"]):
        assert run([*argv, "--data", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("dataset error: ")
        assert f"{sys.get_int_max_str_digits()} digits" in captured.err
        assert len(captured.err.splitlines()) == 1
        assert digits not in captured.err


def test_flag_past_the_digit_limit_exits_2_with_the_dataset_message(capsys):
    digits = "9" * 5000
    assert run(["jcoeffs", "--max", digits]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[1:] == [
        "monsterlie jcoeffs: error: argument --max: expected a decimal integer of at "
        f"most {sys.get_int_max_str_digits()} digits, got '99999999999999999999'... "
        "(5000 characters)"
    ]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["jcoeffs", "--max", "-1"], "argument --max: must be nonnegative"),
        (["eta", "--max", "0"], "argument --max: must be a positive integer"),
        (["verify-gl2", "--j", "0"], "argument --j: root index must be -1 or a positive integer"),
        (["verify-gl2", "--j", "-2"], "argument --j: root index must be -1 or a positive integer"),
    ],
)
def test_out_of_range_argument_is_usage_error(capsys, argv, message):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: {message}\n")


def test_verify_gl2_vacuum_pair_sign(capsys):
    # the vacuum pairs with itself to -1, so make_gl2 refuses +1 as it
    # refuses every wrong sign
    assert run(["verify-gl2", "--j", "-1", "--pairing-sign", "+1"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "verification error: (u,v) must be -1 for root index -1, got 1\n"
    assert run(["verify-gl2", "--j", "-1", "--pairing-sign", "-1"]) == 0
    assert "6/6 relations pass" in capsys.readouterr().out


def _module_env():
    """The environment in which `python -m monsterlie` imports this checkout."""
    src = str(Path(monsterlie.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def _module_run(*argv):
    """Run `python -m monsterlie` in a fresh interpreter on this checkout."""
    return subprocess.run(
        [sys.executable, "-m", "monsterlie", *argv],
        capture_output=True,
        text=True,
        env=_module_env(),
        timeout=60,
    )


def test_console_entry_point():
    done = _module_run("jcoeffs", "--max", "1")
    assert done.returncode == 0
    assert done.stdout == "n   c(n)\n-1       1\n 0       0\n 1  196884\n"
    assert done.stderr == ""
    done = _module_run("verify-gl2", "--j", "0")
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("usage: monsterlie verify-gl2")
    assert "root index must be -1 or a positive integer" in done.stderr


def test_the_ci_workflow_expects_what_the_program_does(capsys):
    # the workflow's console-script step and benchmark smoke loop run only in
    # CI, so their expectations are read here as text (the `test` extra
    # installs no YAML reader) and held against the code and BENCHMARK.json
    root = Path(__file__).resolve().parents[1]
    workflow = (root / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    (printed,) = re.findall(r"<\(monsterlie jcoeffs --max 1\) <\(printf '([^']*)'\)", workflow)
    assert run(["jcoeffs", "--max", "1"]) == 0
    assert capsys.readouterr().out == printed.replace("\\n", "\n")
    (loop,) = re.findall(r"for w in ([^;]*); do", workflow)
    benchmark = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert sorted(loop.split()) == sorted(w["name"] for w in benchmark["workloads"])


def _cut_stdout_run(argv, unbuffered, read=0):
    """Run the CLI for a reader that reads `read` characters and goes away;
    returns the exit code and standard error."""
    child = subprocess.Popen(
        [sys.executable, "-m", "monsterlie", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**_module_env(), "PYTHONUNBUFFERED": unbuffered},
    )
    child.stdout.read(read)
    child.stdout.close()
    try:
        _, err = child.communicate(timeout=60)
    finally:
        child.kill()
    return child.returncode, err


BROKEN_PIPE = (2, "usage error: cannot write standard output: Broken pipe\n")


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["jcoeffs", "--max", "1500"],  # far more than a pipe buffer holds
        ["verify-gl2", "--j", "3"],  # a few lines: buffered, they fail at the flush
    ],
)
def test_closed_stdout_is_a_usage_error(argv, unbuffered):
    assert _cut_stdout_run(argv, unbuffered) == BROKEN_PIPE


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_stdout_cut_mid_write_is_a_usage_error(unbuffered):
    # unbuffered, the text layer over a bare descriptor ignores a short write
    assert _cut_stdout_run(["jcoeffs", "--max", "1500"], unbuffered, 100) == BROKEN_PIPE


def test_closed_stdout_descriptor_is_a_usage_error():
    # started with descriptor 1 closed, the interpreter sets sys.stdout to None
    done = subprocess.run(
        ["sh", "-c", 'exec "$0" -m monsterlie jcoeffs --max 3 >&-', sys.executable],
        stderr=subprocess.PIPE,
        text=True,
        env=_module_env(),
        timeout=60,
    )
    assert done.stderr == "usage error: cannot write standard output: Bad file descriptor\n"
    assert done.returncode == 2


def test_a_call_builds_only_its_own_parser(monkeypatch, capsys):
    progs = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert run(["cartan", "--depth", "3"]) == 0
    plain = capsys.readouterr()
    assert progs == []  # a plain call is read from the command table
    for argv in (["frobnicate"], ["cartan", "--depth", "0"], ["jcoeffs", "-h"]):
        progs.clear()
        assert run(argv) in (0, 2)
        assert len(progs) <= 2
    capsys.readouterr()
    for argv in (["cartan", "--depth=3"], ["cartan", "--dep", "3"]):
        progs.clear()
        assert run(argv) == 0
        assert progs == ["monsterlie", "monsterlie cartan"]
        assert capsys.readouterr() == plain


def test_help_lists_every_command_with_its_help_line(capsys):
    assert run(["-h"]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    for name, (_, help_line, _) in _COMMANDS.items():
        assert [name, *help_line.split()] in lines


def test_readme_lists_exactly_the_cli_commands():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = re.findall(r"^\| `([^`]*)` \|", readme.read_text(), re.MULTILINE)
    listed = {row.split()[0]: set(re.findall(r"--[a-z-]+", row)) for row in rows}
    flags = {name: {flag for flag, _ in entry[2]} for name, entry in _COMMANDS.items()}
    assert listed == flags
    assert [row.split()[0] for row in rows] == list(_COMMANDS)


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


@pytest.mark.parametrize(
    "argv",
    [
        ["jcoeffs", "--max", "abc"],
        ["verify-gl2", "--j", "x"],
        ["eta", "--max", "1.5"],
        # int() reads these as 10 and 3 (an Arabic-Indic digit); a dataset
        # file rejects both, and so does every integer flag
        ["jcoeffs", "--max", "1_0"],
        ["verify-gl2", "--j", "\u0663"],
    ],
)
def test_non_integer_argument_is_usage_error(capsys, argv):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert f"{argv[-2]}: expected an integer, got {argv[-1]!r}" in err
    assert "_int" not in err and "_root_index" not in err


def test_integer_flags_take_a_plus_sign(capsys):
    assert run(["jcoeffs", "--max", "+2"]) == 0
    plus = capsys.readouterr().out
    assert run(["jcoeffs", "--max", "2"]) == 0
    assert plus == capsys.readouterr().out


def test_missing_required_data_flag_is_usage_error(capsys):
    assert run(["replicate"]) == 2


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "coeffs.csv"
    assert run(["--format", "csv", "--out", str(target), "jcoeffs", "--max", "1"]) == 0
    assert capsys.readouterr().out == ""
    table = parse_csv(target.read_text())
    assert table.rows[-1] == ["1", "196884"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv", [["validate-data", "--data", "DATA"], ["verify-gl2", "--j", "3"]]
)
def test_format_applies_only_to_table_commands(tmp_path, capsys, toy_data, fmt, argv):
    # these commands print text, not a table; a csv or json caller gets a
    # usage error rather than text it cannot parse
    target = tmp_path / "out.txt"
    argv = [toy_data if a == "DATA" else a for a in argv]
    assert run(["--format", fmt, "--out", str(target), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        f"monsterlie: error: --format {fmt} does not apply to {argv[0]}\n"
    )
    assert not target.exists()
    assert run(["--format", "table", *argv]) == 0
    table_out = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == table_out


def test_empty_out_path_is_usage_error(capsys):
    assert run(["--out", "", "jcoeffs", "--max", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: cannot write --out : No such file or directory\n"


def test_out_flag_unwritable_path_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x"
    assert run(["--out", str(target), "jcoeffs", "--max", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(target) in captured.err
    assert "Traceback" not in captured.err
    assert len(captured.err.splitlines()) == 1
