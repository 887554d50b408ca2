import json
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest

from quivercount.cli import run
from quivercount.quiver import ExchangeQuiver, read_quiver, write_quiver


def test_table_json(capsys):
    assert run(["table", "--n-max", "4", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rows == [
        {"n": 2, "counts": [1]},
        {"n": 3, "counts": [2]},
        {"n": 4, "counts": [5, 4]},
    ]


def test_count_class_size(capsys):
    assert run(["count", "--r", "2", "--s", "2"]) == 0
    assert capsys.readouterr().out.strip() == "4"


def test_count_type_d_rank_four(capsys):
    assert run(["count", "--r", "0", "--s", "4"]) == 0
    assert capsys.readouterr().out.strip() == "6"


def test_count_refined(capsys):
    assert run(["count", "--r", "2", "--s", "2", "--r2", "0", "--s2", "0"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_count_derived(capsys):
    args = ["count", "--r1", "2", "--r2", "0", "--s1", "0", "--s2", "1"]
    assert run(args) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_count_json(capsys):
    assert run(["count", "--r", "1", "--s", "3", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"value": 5}


@pytest.mark.parametrize(
    "args",
    [
        ["count"],
        ["count", "--r", "2"],
        ["count", "--r", "2", "--s", "2", "--r2", "1"],
        ["count", "--r1", "1", "--r2", "0", "--s1", "1"],
        ["count", "--r", "5", "--r1", "1", "--r2", "0", "--s1", "1", "--s2", "0"],
        ["count", "--r", "0", "--s", "2"],
        ["nonsense"],
        ["verify", "--n-max", "1", "--degree", "0"],
        ["verify", "--n-max", "0", "--degree", "-3"],
    ],
)
def test_usage_errors_exit_two(capsys, args):
    assert run(args) == 2


def test_enumerate_cycle(capsys):
    assert run(["enumerate", "--cycle", "2", "2"]) == 0
    assert capsys.readouterr().out.strip() == "4"


def test_enumerate_dynkin(capsys):
    assert run(["enumerate", "--dynkin-d", "4", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"size": 6}


def test_enumerate_seed_file_with_dumps(capsys, tmp_path):
    seed = tmp_path / "seed.quiver"
    write_quiver(ExchangeQuiver.from_arrows(2, [(0, 1, 2)]), seed)
    out_dir = tmp_path / "members"
    out_json = tmp_path / "members.json"
    code = run(
        [
            "enumerate",
            "--seed",
            str(seed),
            "--out",
            str(out_dir),
            "--json",
            str(out_json),
        ]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "1"
    files = list(out_dir.iterdir())
    assert len(files) == 1
    assert read_quiver(files[0]).n == 2
    entries = json.loads(out_json.read_text())
    assert len(entries) == 1
    assert set(entries[0]) == {"key", "matrix", "depth"}


def test_enumerate_refuses_a_directory_with_members(capsys, tmp_path):
    out_dir = tmp_path / "members"
    assert run(["enumerate", "--cycle", "2", "3", "--out", str(out_dir)]) == 0
    before = {f.name: f.read_bytes() for f in out_dir.iterdir()}
    assert run(["enumerate", "--cycle", "1", "2", "--out", str(out_dir)]) == 2
    assert "member-*.quiver" in capsys.readouterr().err
    assert {f.name: f.read_bytes() for f in out_dir.iterdir()} == before


def test_enumerate_cap_exceeded_exits_three(capsys, tmp_path):
    seed = tmp_path / "wild.quiver"
    write_quiver(ExchangeQuiver.from_arrows(2, [(0, 1, 3)]), seed)
    assert run(["enumerate", "--seed", str(seed)]) == 3
    assert "exceeds the cap" in capsys.readouterr().err
    # an explicitly raised cap admits the seed
    assert run(["enumerate", "--seed", str(seed), "--cap", "3"]) == 0


def test_enumerate_cap_error_names_the_depth(capsys, tmp_path):
    seed = tmp_path / "triangle.quiver"
    triangle = ExchangeQuiver.from_arrows(3, [(0, 1, 2), (1, 2, 2), (0, 2, 2)])
    write_quiver(triangle, seed)
    assert run(["enumerate", "--seed", str(seed), "--cap", "6"]) == 3
    err = capsys.readouterr().err
    assert "multiplicity 10 exceeds the cap 6 at depth 2" in err


def test_enumerate_rejects_bad_cycle(capsys):
    assert run(["enumerate", "--cycle", "0", "2"]) == 2


def test_classify_fixture(capsys, data_dir):
    assert run(["classify", "--file", str(data_dir / "atilde16.quiver")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "atilde": True,
        "r1": 3,
        "r2": 3,
        "s1": 4,
        "s2": 2,
        "r": 9,
        "s": 8,
        "symmetric": False,
    }


def test_classify_non_annular(capsys, tmp_path):
    path = tmp_path / "oriented.quiver"
    write_quiver(
        ExchangeQuiver.from_arrows(3, [(0, 1), (1, 2), (2, 0)]), path
    )
    assert run(["classify", "--file", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["atilde"] is False
    assert set(payload) == {"atilde", "r1", "r2", "s1", "s2", "r", "s", "symmetric"}


def test_classify_at_the_vertex_ceiling(capsys, tmp_path):
    # a double arrow, one 3-cycle on it and a 997-arrow tail from its apex:
    # 1,000 vertices, the most ``loads`` reads
    arrows = [(0, 1, 2), (1, 2), (2, 0)] + [(i, i + 1) for i in range(2, 999)]
    path = tmp_path / "ceiling.quiver"
    write_quiver(ExchangeQuiver.from_arrows(1000, arrows), path)
    start = time.perf_counter()
    assert run(["classify", "--file", str(path)]) == 0
    assert time.perf_counter() - start < 10.0
    assert json.loads(capsys.readouterr().out) == {
        "atilde": True,
        "r1": 997,
        "r2": 1,
        "s1": 1,
        "s2": 0,
        "r": 999,
        "s": 1,
        "symmetric": False,
    }


def test_classify_missing_file(capsys, tmp_path):
    assert run(["classify", "--file", str(tmp_path / "absent.quiver")]) == 2


@pytest.mark.parametrize("command", [["classify", "--file"], ["enumerate", "--seed"]])
def test_directory_path_is_a_usage_error(capsys, tmp_path, command):
    assert run(command + [str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", [["classify", "--file"], ["enumerate", "--seed"]])
def test_oversized_vertex_count_is_a_usage_error(capsys, tmp_path, command):
    path = tmp_path / "huge.quiver"
    path.write_text("100000\n")
    assert run(command + [str(path)]) == 2
    assert "exceeds the ceiling" in capsys.readouterr().err


def test_verify_small_run_passes(capsys):
    assert run(["verify", "--n-max", "4", "--degree", "6"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "ok class-size-atilde-2-2" in out


def _off_by_one(count):
    return count + 1


def _not_an_integer(count):
    raise ArithmeticError(f"expected an integer, got {count}/2")


@pytest.mark.parametrize(
    "fault", [_off_by_one, _not_an_integer], ids=["off-by-one", "not-an-integer"]
)
def test_verify_failure_names_first_identity(capsys, monkeypatch, fault):
    import quivercount.counting as counting_module

    real = counting_module.a_tilde

    def faulty_a_tilde(r, s):
        count = real(r, s)
        return fault(count) if (r, s) == (1, 1) else count

    monkeypatch.setattr(counting_module, "a_tilde", faulty_a_tilde)
    assert run(["verify", "--n-max", "2", "--degree", "4"]) == 1
    captured = capsys.readouterr()
    assert "FAIL class-size-atilde-1-1" in captured.out
    assert "class-size-atilde-1-1" in captured.err


def test_verify_default_scale_passes(capsys):
    assert run(["verify", "--n-max", "8", "--degree", "10"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "ok class-size-dynkin-d-8" in out
    assert "ok series-coefficient-grid" in out


def test_runs_as_a_module_from_a_checkout():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "quivercount", "count", "--r", "2", "--s", "3"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout.strip()) == (0, "12")


def test_verify_checks_run_with_asserts_stripped():
    # the checks raise explicitly, so ``python -O`` still finds a fault
    code = (
        "from quivercount import counting, verify\n"
        "real = counting.a_tilde\n"
        "counting.a_tilde = lambda r, s: real(r, s) + 1\n"
        "print(verify.run_verification(4, 6, log=lambda line: None))\n"
    )
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout.strip()) == (0, "class-size-atilde-1-1")


DOCS = pathlib.Path(__file__).resolve().parent.parent / "docs"
# the draft-07 keywords the schemas in docs/ use, and so all the checker reads
SCHEMA_KEYWORDS = {
    "$schema", "$id", "title", "description", "type", "required",
    "additionalProperties", "properties", "items", "pattern", "minimum",
}
JSON_TYPES = {
    "object": dict, "array": list, "string": str, "integer": int,
    "boolean": bool, "null": type(None),
}


def schema_errors(value, schema, path="$"):
    """Where ``value`` breaks ``schema``, for the draft-07 subset above."""
    unknown = set(schema) - SCHEMA_KEYWORDS
    if unknown:
        raise ValueError(f"the checker does not read {sorted(unknown)}")
    types = schema.get("type", [])
    types = [types] if isinstance(types, str) else types
    # bool is an int subtype in Python but not an integer in JSON
    if types and not any(
        isinstance(value, JSON_TYPES[t])
        and not (t == "integer" and isinstance(value, bool))
        for t in types
    ):
        return [f"{path}: {value!r} is not {' or '.join(types)}"]
    errors = []
    if isinstance(value, dict):
        errors += [f"{path}: {name} is missing"
                   for name in schema.get("required", []) if name not in value]
        props = schema.get("properties", {})
        for name, item in value.items():
            if name in props:
                errors += schema_errors(item, props[name], f"{path}.{name}")
            elif schema.get("additionalProperties") is False:
                errors.append(f"{path}: {name} is not allowed")
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            errors += schema_errors(item, schema["items"], f"{path}[{i}]")
    if isinstance(value, str) and not re.search(schema.get("pattern", ""), value):
        errors.append(f"{path}: {value!r} does not match {schema['pattern']}")
    if (
        isinstance(value, int) and not isinstance(value, bool)
        and value < schema.get("minimum", value)
    ):
        errors.append(f"{path}: {value} is below {schema['minimum']}")
    return errors


def _schema(name):
    return json.loads((DOCS / f"{name}-output.schema.json").read_text())


def test_schema_checker_finds_each_kind_of_fault():
    entry = {"key": "0a", "matrix": [[0]], "depth": 0}
    assert schema_errors([entry], _schema("enumerate")) == []
    for fault in [
        {"key": "0A"},
        {"depth": -1},
        {"depth": True},
        {"matrix": [[0.5]]},
        {"extra": 1},
    ]:
        assert len(schema_errors([{**entry, **fault}], _schema("enumerate"))) == 1
    assert len(schema_errors([{"key": "0a"}], _schema("enumerate"))) == 2
    member = {"atilde": False, "r1": None, "r2": None, "s1": None, "s2": None,
              "r": None, "s": None, "symmetric": None}
    assert schema_errors(member, _schema("classify")) == []
    assert len(schema_errors({**member, "r": 0}, _schema("classify"))) == 1
    assert len(schema_errors({**member, "atilde": None}, _schema("classify"))) == 1


def test_enumerate_json_matches_its_schema(capsys, tmp_path):
    out = tmp_path / "members.json"
    assert run(["enumerate", "--cycle", "2", "3", "--json", str(out)]) == 0
    capsys.readouterr()
    entries = json.loads(out.read_text())
    assert len(entries) == 12
    assert schema_errors(entries, _schema("enumerate")) == []


def test_classify_json_matches_its_schema(capsys, tmp_path, data_dir):
    oriented = tmp_path / "oriented.quiver"
    write_quiver(ExchangeQuiver.from_arrows(3, [(0, 1), (1, 2), (2, 0)]), oriented)
    for path, member in [(data_dir / "atilde16.quiver", True), (oriented, False)]:
        assert run(["classify", "--file", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["atilde"] is member
        assert schema_errors(payload, _schema("classify")) == []
