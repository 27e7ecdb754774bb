"""CLI behaviour: exit codes, JSON round trips, determinism."""
import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zipcone import catalog, zipcones
from zipcone.cli import CONE_NAMES, context_json, main
from zipcone.cones import RationalCone
from zipcone.errors import DimensionTooLarge


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
    assert json.loads(err)["error"] == "BadParams"


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


@pytest.mark.parametrize(
    "argv",
    [
        ("--example", "U21-inert", "--q", "2", "--n", "7"),
        ("--example", "U21-inert", "--q", "2", "--m", "1"),
        ("--example", "SOodd", "--n", "3", "--q", "2", "--m", "2"),
    ],
    ids=["u21-n", "u21-m", "soodd-m"],
)
def test_reproduce_rejects_ignored_parameters(capsys, argv):
    if "--m" in argv:
        # no example takes m, so reproduce has no such option: a usage error
        with pytest.raises(SystemExit) as exc:
            main(["--format", "json", "reproduce", *argv])
        assert exc.value.code == 2
        assert not capsys.readouterr().out
        return
    code, out, err = run(capsys, "--format", "json", "reproduce", *argv)
    assert_json_user_error(code, err)
    assert json.loads(err)["error"] == "BadParams"
    assert not out


@pytest.mark.parametrize(
    "sigma",
    [
        [[1, 0, 0], [0, 1, 0], [0, 0, 0]],
        [[1, 1, 0], [-1, 1, 0], [0, 0, 1]],
        [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
    ],
    ids=["singular", "det-2", "shear"],
)
def test_sigma_without_finite_order_is_one_json_error(capsys, tmp_path, u21_path, sigma):
    data = json.loads(Path(u21_path).read_text())
    data["frobenius"]["sigma"] = sigma
    path = tmp_path / "ctx.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "--format", "json", "describe", "--context", str(path))
    assert_json_user_error(code, err)
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "NotAnAutomorphism"
    assert not out


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
        ("reproduce", "--example", "U21-inert", "--q", "2"),
    ],
    ids=["classify", "describe", "reproduce", "reproduce-u21"],
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


# -- the cone cap is checked before the work starts -----------------------------


@pytest.fixture(scope="module")
def contexts(tmp_path_factory):
    """Context files: small presets, a rank-13 context (above the cone cap),
    a file missing a key and a path that does not exist."""
    folder = tmp_path_factory.mktemp("contexts")
    presets = {
        "u21": catalog.preset("U21-inert", q=2),
        "so5": catalog.preset("SOodd", n=2, q=3),
        "hilbert": catalog.preset("HilbertA1m", m=2, q=2),
        "so27": catalog.preset("SOodd", n=13, q=2),
    }
    paths = {}
    for name, ctx in presets.items():
        paths[name] = folder / f"{name}.json"
        paths[name].write_text(json.dumps(context_json(ctx)))
    paths["broken"] = folder / "broken.json"
    paths["broken"].write_text(json.dumps({"rootdatum": {}}))
    paths["absent"] = folder / "absent.json"
    return {name: str(path) for name, path in paths.items()}


@pytest.mark.parametrize("n", ["13", "40"])
def test_reproduce_above_cone_cap_refused_at_once(capsys, n):
    start = time.perf_counter()
    code, out, err = run(capsys, "--format", "json", "reproduce", "--example", "SOodd",
                         "--n", n, "--q", "2")
    assert time.perf_counter() - start < 5
    assert code == 1 and not out
    assert json.loads(err)["error"] == "DimensionTooLarge"


def test_rank_13_context_describes_but_builds_no_cone(capsys, contexts):
    for command in ("describe", "hasse"):
        code, _, _ = run(capsys, "--format", "json", command, "--context", contexts["so27"])
        assert code == 0, command
    ctx = catalog.preset("SOodd", n=13, q=2)
    with pytest.raises(DimensionTooLarge):
        zipcones.zip_report(ctx)
    with pytest.raises(DimensionTooLarge):
        zipcones.report_cone(ctx, "dominant")


# -- fuzzing the argument space --------------------------------------------------

SIZES = st.sampled_from(["-2", "-1", "0", "1", "2", "3", "4", "5", "13", "40", "x"])
LAMBDAS = st.lists(st.integers(-3, 3), max_size=5).map(lambda v: ",".join(map(str, v))) | st.text(
    alphabet="0123456789,- a.", max_size=8
)


@st.composite
def cli_argv(draw, contexts):
    """An argv over every subcommand, with sizes kept small enough that each
    example runs in well under a second."""
    argv = []
    fmt = draw(st.sampled_from([None, "text", "json"]))
    if fmt:
        argv += ["--format", fmt]
    command = draw(st.sampled_from(
        ["describe", "cone", "member", "include", "hasse", "classify", "reproduce", "nope"]
    ))
    argv.append(command)
    which = st.sampled_from(CONE_NAMES + ("nope",))
    if command in ("describe", "cone", "member", "include", "hasse"):
        argv += ["--context", draw(st.sampled_from(sorted(contexts.values())))]
    if command in ("cone", "member"):
        argv += ["--which", draw(which)]
    if command == "member":
        argv += ["--lambda", draw(LAMBDAS)]
    if command == "include":
        argv += ["--outer", draw(which), "--inner", draw(which)]
    if command == "classify":
        rank = draw(st.integers(-3, 9))
        flags = ["--maximal", "--hodge", "--compare-expected"]
        if rank <= 5:
            flags.append("--disconnected")
        argv += ["--max-rank", str(rank), *draw(st.lists(st.sampled_from(flags), unique=True))]
    if command == "reproduce":
        argv += ["--example", draw(st.sampled_from(
            ["U21-inert", "SOodd", "GL3-split", "HilbertA1m", "nope"]
        ))]
        for option in ("--q", "--n", "--m"):
            if draw(st.booleans()):
                argv += [option, draw(SIZES)]
    return argv


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzzed_argv_never_crashes(contexts, data):
    argv = data.draw(cli_argv(contexts), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            assert exc.code == 2, argv
            return
    assert code in (0, 1, 2, 3), argv
    if argv[:2] == ["--format", "json"] and code in (1, 3):
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, argv
        assert json.loads(lines[0])["exit"] == code, argv
