"""The CLI contract: pinned outputs for fixed argv, an argv fuzz, and the
plain-call reader checked against argparse.

The golden matrix pins the SHA-256 of (exit code, stdout, stderr) of each
command line, so any change to what a command prints, where, or with which
exit code shows up as one changed digest.  Each line runs in a directory
that holds the trivial dataset as `classes.json`, so no message carries a
temporary path.
"""

import hashlib
import io
import json
import shlex
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monsterlie.cli import _argparse_call, _plain_call, run
from monsterlie.dataset import save_dataset, to_jsonable, trivial_dataset
from monsterlie.qseries import j_series, mckay_thompson
from test_replication import S3_CLASSES, Z4_CHARACTERS, Z4_CLASSES, group_object


def _outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def in_data_dir(tmp_path, monkeypatch):
    save_dataset(trivial_dataset(), tmp_path / "classes.json")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to it


GOLDEN = {
    "jcoeffs --max 5":
        "b31df710637044943250e4472405a38934ac7c608f57d94e5e8f73869612d3ff",
    "--format csv jcoeffs --max 5":
        "cf71bc8b93d45f9f9dad0c7d4ffb6cb4d3aba2505f2350fa9cc99b7611f51aae",
    "--format json jcoeffs --max 3":
        "8ba28e2190aad41f12cf73c4c2e7832d37d8c4ef6d6d4acee4947201bb55c59e",
    "dims --max 10":
        "8ee23c097f8c2767095d63e86f9e52a178d6c749994326f0d8e83c95c4879db8",
    "--format csv dims --max 5":
        "c94ceb08b27e94c4ac14969643c9b29f79f7ff4384d13cb014dbdff0d39ccf67",
    "eta --max 12":
        "2f87606e2a52ad3f45f39d0c7b2250abf3233bb9bb04addb1ee587344c5c7a1f",
    "--format json eta --max 4":
        "c1de4f2a3e33b1da1ebc4196b57a3e10806c64e9120c2338e4d96f4303750d1d",
    "cartan --depth 3":
        "128660dad7e6a2cfd4902abdeb0dce858126eb28598c41c6edadd7e3e4bfa4a0",
    "--format csv cartan --depth 2":
        "cba0e8de8923ae896dcbce89761b6989dd9973b1023818203efe522637d9c32c",
    "replicate --data classes.json --max 6":
        "e54bf1f5f125f933cc1c05bd98854d4519977e7f76e5601c25a23b794f7d7924",
    "replicate --data classes.json --max 6 --class 1A":
        "e54bf1f5f125f933cc1c05bd98854d4519977e7f76e5601c25a23b794f7d7924",
    "replicate --data classes.json --max 6 --class 9Z":
        "7dc9d387fe0cf2ff131e36aa1cc6ebce2919537d374d5ad7ec74b7d5a7d7898f",
    "replicate --data classes.json --max 6 --class ''":
        "b0967a81a5a85d4df38f2ae6f17873bf87cc2c6d2d50d4d0a562ec19f7daa014",
    "--format json replicate --data classes.json --max 3 --class 1A":
        "12928ac5311ca1b1167f0f40691d8e967488465ba932d5605be644ea86721d7e",
    "mult --data classes.json --max 6":
        "3d14a37b3fd9f975c067bcfa485b1434b16731864c25017796962c01cc0dac95",
    "mult --data classes.json --max 6 --k 3":
        "7e6c38d78cb415830851368c569d8de62ff815568d111f8169304922f6d68899",
    "check-nontrivial --data classes.json --max 5":
        "2b4a713d48fce7791b875f8adb7139695c2dada09a38aa2b80738e133432e048",
    "--format csv check-nontrivial --data classes.json --max 3":
        "e1b86068236b042500ab9d745b4b2631532961c63659561a7c6c092f6725b399",
    "check-nontrivial --data classes.json --max 80":
        "121ec871d7467b5c6e444a896d8e4b460c9d21c12ed0841fd2f08d802d621ccd",
    "--format json check-nontrivial --data classes.json --max 40":
        "b59283de74eae1982edea634f40feb8fd494ec66d7880939f616bac2ec5bb54d",
    "validate-data --data classes.json":
        "78b1cd042b79d5e184e2b40b70c3eadc87de8ab12a76b961a648a59f622f9c49",
    "--format json validate-data --data classes.json":
        "cbebff030afb6fe52c438909df488f2e52797b7161ad474699506da9aea1e554",
    "verify-gl2 --j -1":
        "a32c82c5934cde5a61de740825ccbd509bed42c6a21eb6cde882c0622491ccdc",
    "verify-gl2 --j -1 --pairing-sign +1":
        "2f68f4e492015dbab2126a3fcee8fb966ec528190a448b0e49a6afbc461f8b51",
    "verify-gl2 --j -1 --pairing-sign -1":
        "a32c82c5934cde5a61de740825ccbd509bed42c6a21eb6cde882c0622491ccdc",
    "verify-gl2 --j 0":
        "adfefe2e10d72c0aaae5187480699aa42745b5652489b93f175855594e61f3e7",
    "verify-gl2 --j 0 --pairing-sign +1":
        "adfefe2e10d72c0aaae5187480699aa42745b5652489b93f175855594e61f3e7",
    "verify-gl2 --j 0 --pairing-sign -1":
        "adfefe2e10d72c0aaae5187480699aa42745b5652489b93f175855594e61f3e7",
    "verify-gl2 --j 3":
        "b13e8e4be42f0a10a0e6bc5281dabd1280029bcde752c6ca2e0ef0d70303d5e8",
    "verify-gl2 --j 3 --pairing-sign +1":
        "8398fb9ee974825b010f509f7ef45ee6645ce159e25aeb886e87e8e9a5c9ad7d",
    "verify-gl2 --j 3 --pairing-sign -1":
        "b13e8e4be42f0a10a0e6bc5281dabd1280029bcde752c6ca2e0ef0d70303d5e8",
    "--format csv verify-gl2 --j 3":
        "447d8f94a1a24fc7d129acb545a195509a2cdb4f2fdc621c22db2689dc11296c",
    "jcoeffs --max -1":
        "69f1257020f70ba36434d96e77000069cc96d69a98481e6b84a467a21d670909",
    "jcoeffs --max x":
        "5892f97a9dff4fdfc653a09ab0e21e28022cc4b766cd5dd85d4fc6f1ab87f517",
    "frobnicate":
        "9fe198d2b569e325d932236fbfc02ace66c8a758f0b673a65578a30a3b5dcc17",
    "--out missing/x jcoeffs --max 1":
        "37bdf664e05bb52ea6a687aa9e1f7ea630bb5599630f6249aa9081e5971c0857",
    "--out missing/x check-nontrivial --data classes.json --max 5":
        "37bdf664e05bb52ea6a687aa9e1f7ea630bb5599630f6249aa9081e5971c0857",
    "jcoeffs --max 3 --format json":
        "f35f92563fe87e7e7dbfb3be7d11e9252302ad9aed7caa6c29e783ddb428cdab",
    "jcoeffs -h":
        "cc4e62760a5c47bf28a1ef51d8ec130a60091abaf08162446920e461cacdee19",
    "dims -h":
        "68469d982f4e78488d780974ca62beabcc589f5c666bcba6e5723ab0b219afec",
    "eta -h":
        "b7638746dd02656d168d265f6b9c1a4d839dbe22ab5e732df1309922fea51504",
    "cartan -h":
        "104034ba848cede113493f8d8c9ec9435d7174b249734c53d6c3fe9c54c3fb13",
    "replicate -h":
        "d527f76ff1fd4ce242d1b43df0871bfe9c81bd0281d35d51f070d5a7919448ff",
    "mult -h":
        "1abcdd4f46249df433841a2fc612a9383b9fc2145c99a78f4923d5589dc403a6",
    "check-nontrivial -h":
        "d04bb4bd2083895cdcd565ba2f0585c117aa221c16defc27f84020a6404dc89d",
    "verify-gl2 -h":
        "e421e4b7c1537e6344342371d471e0287a359862161304c5fc8cd2c3fed70e73",
    "validate-data -h":
        "ab675dfcf550616231e9b9fcd61157b331d42958021b581f439396a86446fc88",
}


@pytest.mark.parametrize("line", list(GOLDEN))
def test_golden_cli_matrix(in_data_dir, line):
    outcome = _outcome(shlex.split(line))
    digest = hashlib.sha256(json.dumps(outcome).encode()).hexdigest()
    assert digest == GOLDEN[line], outcome


# -- argv fuzz ----------------------------------------------------------------

_INT_TOKENS = st.one_of(
    st.none(), st.integers(-3, 60).map(str), st.sampled_from(["", "x", "1.5", "0x10"])
)
_VALUES = {  # None leaves the option out
    "--max": _INT_TOKENS,
    "--depth": _INT_TOKENS,
    "--k": _INT_TOKENS,
    "--j": _INT_TOKENS,
    "--class": st.sampled_from([None, "1A", "9Z", ""]),
    "--pairing-sign": st.sampled_from([None, "auto", "+1", "-1", "0"]),
    "--data": st.sampled_from([None, "DATA", "DATA", "DATA", "MISSING", "DIR"]),
    "--format": st.sampled_from([None, None, "table", "csv", "json", "xml"]),
    "--out": st.sampled_from([None, None, None, "OUT", "MISSING_DIR_OUT", "DIR"]),
}
_FLAGS = {
    "jcoeffs": ["--max"],
    "dims": ["--max"],
    "eta": ["--max"],
    "cartan": ["--depth"],
    "replicate": ["--data", "--max", "--class"],
    "mult": ["--data", "--max", "--k"],
    "check-nontrivial": ["--data", "--max"],
    "verify-gl2": ["--j", "--pairing-sign"],
    "validate-data": ["--data"],
    "frobnicate": [],
}


@st.composite
def _argvs(draw):
    """Argv with the placeholders of `fuzz_paths` for paths."""
    command = draw(st.sampled_from(list(_FLAGS)))
    argv = []
    for flag in ["--format", "--out", command] + _FLAGS[command]:
        if flag == command:
            argv.append(command)
        elif (value := draw(_VALUES[flag])) is not None:
            argv += [flag, value]
    return argv


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    save_dataset(trivial_dataset(), root / "classes.json")
    return {
        "DATA": str(root / "classes.json"),
        "MISSING": str(root / "missing"),
        "DIR": str(root),
        "OUT": str(root / "out.txt"),
        "MISSING_DIR_OUT": str(root / "missing" / "out.txt"),
    }


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(argv=_argvs())
def test_cli_argv_fuzz_keeps_the_exit_code_contract(fuzz_paths, argv):
    argv = [fuzz_paths.get(token, token) for token in argv]
    code, out, err = _outcome(argv)
    lines = err.splitlines()
    assert code in (0, 2, 3, 4)
    if code in (2, 3):
        assert out == ""
    if code == 0:
        assert err == ""
        if "--class" in argv:  # the trivial dataset has the one class 1A
            assert argv[argv.index("--class") + 1] == "1A"
    elif code == 3:
        assert len(lines) == 1
        assert lines[0].startswith(("dataset error:", "integrality failure:"))
    elif code == 4:
        assert len(lines) <= 1
        assert not lines or lines[0].startswith(
            ("verification error:", "non-triviality criterion failed")
        )


# -- the plain-call reader against argparse -----------------------------------

_ODD_VALUES = st.sampled_from(["-1", "-x", "--", "-h", "9" * 5000, " 3", " -1", "1A"])


@st.composite
def _wide_argvs(draw):
    """`_argvs` with up to three edits that only argparse reads: an inserted
    `-h`, `--` or bare flag, a `--flag=value` pair, an abbreviated or
    repeated flag, or a value that starts with `-` or passes the digit limit."""
    argv = draw(_argvs())
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(argv)))
        kind = draw(st.sampled_from(["insert", "join", "abbreviate", "repeat", "value"]))
        if kind == "insert":
            tokens = ["-h", "--help", "--", "--format", "--max", "--max=3"]
            argv.insert(at, draw(st.sampled_from(tokens)))
        elif at + 1 < len(argv) and argv[at].startswith("--") and argv[at] != "--":
            flag, value = argv[at : at + 2]
            if kind == "join":
                argv[at : at + 2] = [f"{flag}={value}"]
            elif kind == "abbreviate":
                argv[at] = flag[: draw(st.integers(2, len(flag) - 1))]
            elif kind == "repeat":
                argv[at:at] = [flag, draw(_ODD_VALUES | st.just(value))]
            else:
                argv[at + 1] = draw(_ODD_VALUES)
    return argv


def _argparse_reads(argv):
    """vars() of the two-stage argparse parse, or its exit code."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(_argparse_call(argv))
        except SystemExit as exc:
            return exc.code


@settings(derandomize=True, max_examples=800, deadline=None, database=None)
@given(argv=_argvs() | _wide_argvs())
def test_a_plain_call_reads_as_argparse_reads_it(argv):
    plain = _plain_call(argv)
    if plain is not None:
        assert _argparse_reads(argv) == vars(plain)


def test_golden_lines_read_as_argparse_reads_them():
    plain_lines = 0
    for line in GOLDEN:
        argv = shlex.split(line)
        if (plain := _plain_call(argv)) is not None:
            plain_lines += 1
            assert _argparse_reads(argv) == vars(plain), line
    assert plain_lines == 25  # the rest: help, errors and `-`-leading values


# -- dataset-file fuzz --------------------------------------------------------


_TRACES = {
    "1A": j_series(5),
    **{name: mckay_thompson(name, 5) for name in ("2B", "3B", "4C")},
}
_GROUPS = {
    "trivial": to_jsonable(trivial_dataset()),
    "S3": group_object(S3_CLASSES, _TRACES),
    "Z4": group_object(Z4_CLASSES, _TRACES, Z4_CHARACTERS),
}
_SEED_KEYS = st.sampled_from(["-1", "1", "2", "3", "5"])
_BAD_VALUES = st.sampled_from(
    [None, True, 1.5, [], {}, "", "x", "-1", "-7", "9" * 5000, 0, -3]
)


@st.composite
def _mutated_groups(draw):
    """One of the trivial, S3 and Z/4 dataset objects, with up to two
    mutations."""
    obj = json.loads(json.dumps(_GROUPS[draw(st.sampled_from(list(_GROUPS)))]))
    classes = obj["classes"]
    names = [c["name"] for c in classes]
    for _ in range(draw(st.integers(0, 2))):
        record = draw(st.sampled_from(classes))
        kind = draw(
            st.sampled_from(
                ["drop", "bad", "seed", "power2", "duplicate", "characters"]
            )
        )
        if kind == "drop":
            field = draw(st.sampled_from(["name", "class_size", "power2", "seeds"]))
            if draw(st.booleans()):
                record.pop(field, None)
            elif isinstance(record.get("seeds"), dict):
                record["seeds"].pop(draw(_SEED_KEYS), None)
            else:
                obj.pop("group_order", None)
        elif kind == "bad":
            fields = ["class_size", "power2", "name", "seed", "group_order"]
            field = draw(st.sampled_from(fields))
            if field == "group_order":
                obj["group_order"] = draw(_BAD_VALUES)
            elif field == "seed" and isinstance(record.get("seeds"), dict):
                record["seeds"][draw(_SEED_KEYS)] = draw(_BAD_VALUES)
            else:
                record[field] = draw(_BAD_VALUES)
        elif kind == "seed" and isinstance(record.get("seeds"), dict):
            key = draw(_SEED_KEYS)
            try:
                value = int(record["seeds"].get(key, "0"))
            except (TypeError, ValueError):
                continue
            record["seeds"][key] = str(value + draw(st.integers(-4, 4)))
        elif kind == "power2":
            record["power2"] = draw(st.sampled_from(names + ["9Z"]))
        elif kind == "duplicate":
            classes.append(json.loads(json.dumps(record)))
        elif kind == "characters":
            values = {name: "1" for name in names}
            if draw(st.booleans()):
                values.pop(draw(st.sampled_from(names)))
            else:
                values["9Z"] = "1"
            k = draw(st.sampled_from(["1", "2", "3"]))
            obj.setdefault("characters", {})[k] = values
    return obj


_DATA_COMMANDS = st.sampled_from(
    [
        ["validate-data"],
        ["replicate"],
        ["replicate", "--class", "1A"],
        ["replicate", "--class", "2B"],
        ["mult", "--k", "1"],
        ["mult", "--k", "2"],
        ["check-nontrivial"],
    ]
)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(
    obj=_mutated_groups(),
    command=_DATA_COMMANDS,
    top=st.integers(1, 40),
    fmt=st.sampled_from([None, "table", "csv", "json"]),
    out=st.sampled_from([None, None, "FILE", "MISSING_DIR", "DIR"]),
)
def test_cli_dataset_fuzz_keeps_the_exit_code_contract(
    tmp_path_factory, obj, command, top, fmt, out
):
    root = tmp_path_factory.mktemp("data")
    path = root / "classes.json"
    path.write_text(json.dumps(obj))
    argv = [*command, "--data", str(path)]
    if command[0] != "validate-data":
        argv += ["--max", str(top)]
        # --format and --out go before the command, as global options
        if fmt is not None:
            argv = ["--format", fmt, *argv]
        if out is not None:
            target = {"FILE": root / "out.txt", "MISSING_DIR": root / "missing" / "out.txt"}
            argv = ["--out", str(target.get(out, root)), *argv]
    code, stdout, err = _outcome(argv)
    lines = err.splitlines()
    assert code in (0, 2, 3, 4), (argv, code, err)
    if code == 0:
        assert err == ""
        if "--out" in argv:
            # the file holds what the command prints without --out
            assert stdout == ""
            assert (root / "out.txt").read_text() == _outcome(argv[2:])[1]
    elif code in (2, 3):
        assert stdout == ""
        assert len(lines) == 1, err
        prefixes = ("usage error:",) if code == 2 else ("dataset error:", "integrality failure:")
        assert lines[0].startswith(prefixes), err
    else:
        assert len(lines) <= 1, err
        assert not lines or lines[0].startswith("non-triviality criterion failed"), err
