"""CLI behaviour: exit codes, JSON round trips, determinism."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from zipcone import catalog
from zipcone.cli import context_json, main
from zipcone.cones import RationalCone


@pytest.fixture
def u21_path(tmp_path):
    ctx = catalog.preset("U21-inert", q=2)
    path = tmp_path / "u21.json"
    path.write_text(json.dumps(context_json(ctx)))
    return str(path)


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_json_user_error(code, err):
    assert code == 1
    assert json.loads(err)["error"]
    assert "Traceback" not in err


def test_describe_text_and_json(capsys, u21_path):
    code, out, _ = run(capsys, "describe", "--context", u21_path)
    assert code == 0 and "Delta^P" in out
    code, out, _ = run(capsys, "--format", "json", "describe", "--context", u21_path)
    data = json.loads(out)
    assert data["I0"] == [] and data["split_degree"] == 2


def test_cone_json_round_trips(capsys, u21_path):
    for which in ("gs", "pha", "hw", "lw", "dominant", "idominant", "neglevi"):
        code, out, _ = run(capsys, "--format", "json", "cone", "--context", u21_path, "--which", which)
        assert code == 0
        cone = RationalCone.from_json(json.loads(out))
        again = cone.complete().to_json()
        assert again == json.loads(out), which


def test_member_yes_no(capsys, u21_path):
    code, out, _ = run(capsys, "member", "--context", u21_path, "--which", "pha", "--lambda", "0,0,0")
    assert code == 0 and out.startswith("yes")
    code, out, _ = run(capsys, "--format", "json", "member", "--context", u21_path,
                       "--which", "lw", "--lambda", "-1,2,0")
    assert code == 0
    data = json.loads(out)
    assert data["member"] is False and data["violated"]


@pytest.mark.parametrize(
    "which,lam,enum_cap",
    [
        pytest.param("pha", "1,2", None, id="wrong-length"),
        pytest.param("pha", "a,b", None, id="not-integers"),
        pytest.param("hw", "0,0,0", "abc", id="enum-cap-not-integer"),
    ],
)
def test_member_bad_lambda_is_user_error(capsys, monkeypatch, u21_path, which, lam, enum_cap):
    if enum_cap is not None:
        monkeypatch.setenv("ZIPCONE_ENUM_CAP", enum_cap)
    code, _, err = run(capsys, "--format", "json", "member", "--context", u21_path,
                       "--which", which, "--lambda", lam)
    assert_json_user_error(code, err)


def test_include_with_witness(capsys, u21_path):
    code, out, _ = run(capsys, "include", "--context", u21_path, "--outer", "hw", "--inner", "neglevi")
    assert code == 0 and out.startswith("yes")
    code, out, _ = run(capsys, "--format", "json", "include", "--context", u21_path,
                       "--outer", "pha", "--inner", "gs")
    data = json.loads(out)
    assert data["included"] is False and data["witness"] is not None


def test_hasse_command(capsys, u21_path):
    code, out, _ = run(capsys, "--format", "json", "hasse", "--context", u21_path)
    assert code == 0
    data = json.loads(out)
    assert data == {
        "hasse_type": False,
        "levi_defined_over_Fq": False,
        "sigma_acts_by_opposition": False,
    }


def test_classify_compare_expected_small(capsys):
    code, _, _ = run(capsys, "classify", "--max-rank", "4", "--compare-expected")
    assert code == 0


@pytest.mark.parametrize("compare", [False, True], ids=["list", "compare-expected"])
@pytest.mark.parametrize("max_rank", ["0", "-3"])
def test_classify_rank_below_one_is_user_error(capsys, max_rank, compare):
    argv = ["--format", "json", "classify", f"--max-rank={max_rank}"]
    if compare:
        argv.append("--compare-expected")
    code, out, err = run(capsys, *argv)
    assert_json_user_error(code, err)
    assert json.loads(err)["error"] == "BadParams"
    assert out == ""


def test_classify_rank_one(capsys):
    code, out, _ = run(capsys, "--format", "json", "classify", "--max-rank", "1")
    assert code == 0
    assert [(e["diagram_type"], e["I_desc"]) for e in json.loads(out)["classification"]] == [
        ("A1", []), ("A1", [1]),
    ]
    code, out, _ = run(capsys, "--format", "json", "classify", "--max-rank", "1", "--compare-expected")
    assert code == 0 and json.loads(out)["match"] is True


def test_classify_hodge_filter(capsys):
    code, out, _ = run(capsys, "--format", "json", "classify", "--max-rank", "4", "--maximal", "--hodge")
    assert code == 0
    entries = json.loads(out)["classification"]
    assert {(e["diagram_type"], tuple(e["I_desc"])) for e in entries} == {
        ("A1", ()), ("A2", (1,)), ("A2", (2,)), ("B2", (2,)),
        ("B3", (2, 3)), ("B4", (2, 3, 4)),
    }


def test_reproduce_exit_codes(capsys):
    code, out, _ = run(capsys, "reproduce", "--example", "SOodd", "--n", "2", "--q", "2")
    assert code == 0 and "PASS" in out
    code, _, err = run(capsys, "--format", "json", "reproduce", "--example", "nope", "--q", "2")
    assert code == 1
    assert json.loads(err)["error"] == "UnknownPreset"


# zipcontext.v1 files that int() coercion used to accept: each edit makes
# the U21 context invalid without changing what int() would read from it
SCHEMA_EDITS = {
    "float-q": lambda d: d["frobenius"].update(q=2.9),
    "float-levi": lambda d: d.update(levi_indices=[0.7]),
    "bool-levi": lambda d: d.update(levi_indices=[True]),
    "string-levi": lambda d: d.update(levi_indices="0"),
    "rank-mismatch": lambda d: d["rootdatum"].update(rank=4),
}


@pytest.mark.parametrize(
    "kind", ["absent", "missing-keys", "not-json", "directory", *SCHEMA_EDITS]
)
def test_missing_context_file(capsys, tmp_path, u21_path, kind):
    path = tmp_path / "ctx.json"
    if kind == "absent":
        path = "/does/not/exist.json"
    elif kind == "missing-keys":
        data = json.loads(Path(u21_path).read_text())
        del data["frobenius"]
        path.write_text(json.dumps(data))
    elif kind == "not-json":
        path.write_text("{not json")
    elif kind in SCHEMA_EDITS:
        data = json.loads(Path(u21_path).read_text())
        SCHEMA_EDITS[kind](data)
        path.write_text(json.dumps(data))
    else:
        path = tmp_path
    code, _, err = run(capsys, "--format", "json", "hasse", "--context", str(path))
    assert_json_user_error(code, err)


def test_byte_identical_invocations(capsys, u21_path):
    runs = []
    for _ in range(2):
        code, out, err = run(capsys, "--format", "json", "describe", "--context", u21_path)
        assert code == 0
        runs.append((out, err))
    assert runs[0] == runs[1]
    runs = []
    for _ in range(2):
        code, out, _ = run(capsys, "--format", "json", "cone", "--context", u21_path, "--which", "pha")
        runs.append(out)
    assert runs[0] == runs[1]


def test_enum_cap_exit_code_three(capsys, monkeypatch, tmp_path):
    ctx = catalog.preset("SOodd", n=3, q=2)
    path = tmp_path / "so7.json"
    path.write_text(json.dumps(context_json(ctx)))
    monkeypatch.setenv("ZIPCONE_ENUM_CAP", "3")
    code, _, err = run(capsys, "--format", "json", "cone", "--context", str(path), "--which", "hw")
    assert code == 3
    assert json.loads(err)["error"] == "CapExceeded"


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--max-rank", "5"),
        ("describe", "--context", None),
        ("reproduce", "--example", "SOodd", "--n", "3", "--q", "2"),
    ],
    ids=["classify", "describe", "reproduce"],
)
def test_stdout_independent_of_hash_seed(u21_path, argv):
    argv = [u21_path if a is None else a for a in argv]
    outs = []
    for seed in ("0", "2718281"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "zipcone.cli", "--format", "json", *argv],
            env=env, capture_output=True, check=True,
        )
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
