import json
import xml.etree.ElementTree as ET
from dataclasses import replace

import pytest

from involutive_upsilon import BifilteredComplex, loads_complex
from involutive_upsilon.cli import (EXIT_MISMATCH, EXIT_OK, EXIT_PARSE,
                                    KnotSpecError, main, parse_knot_spec)
from involutive_upsilon.staircase import Sign


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_torus():
    r = parse_knot_spec("torus:3,7")
    assert r.kind == "steps"
    assert r.steps == (1, 2, 1, 2, 2, 1, 2, 1)
    assert r.sign is Sign.POSITIVE


def test_parse_mirror_torus():
    r = parse_knot_spec("-torus:2,5")
    assert r.steps == (1, 1, 1, 1)
    assert r.sign is Sign.NEGATIVE


def test_parse_steps():
    r = parse_knot_spec("steps:-:2,1,1,2")
    assert r.steps == (2, 1, 1, 2)
    assert r.sign is Sign.NEGATIVE


def test_parse_file():
    r = parse_knot_spec("file:some/path.json")
    assert r.kind == "file" and r.path == "some/path.json"


@pytest.mark.parametrize("text,fragment", [
    ("torus:2,4", "coprime"),
    ("torus:2", "p,q"),
    ("torus:a,b", "integer"),
    ("steps:*:1,1", "sign"),
    ("steps:+:1,x", "integer"),
    ("steps:+:0,1", "positive"),
    ("wave:1,2", "expected torus:"),
    ("file:", "empty file path"),
])
def test_parse_errors_are_positioned(text, fragment):
    with pytest.raises(KnotSpecError, match=fragment) as exc:
        parse_knot_spec(text)
    assert "position" in str(exc.value)


def test_compute_table_t37(capsys):
    code, out, _ = run_cli(capsys, "compute", "--knot", "torus:3,7",
                           "--invariant", "upper,lower", "--output", "table")
    assert code == EXIT_OK
    assert "knot torus:3,7" in out
    assert "-6t on [0,2/3]; -4 on [2/3,2]" in out
    assert "-4 on [0,2]" in out


def test_compute_v0_integers(capsys):
    code, out, _ = run_cli(capsys, "compute", "--knot", "steps:+:1,1,1,1",
                           "--invariant", "v0")
    assert code == EXIT_OK
    assert "= 1" in out and "/" not in out.split("=")[1]


def test_compute_bare_mirror_torus_form(capsys):
    code, out, _ = run_cli(capsys, "compute", "--knot", "-torus:2,5",
                           "--invariant", "v0")
    assert code == EXIT_OK
    assert "knot -torus:2,5" in out


def test_compute_engine_both_agrees(capsys):
    code, out, _ = run_cli(capsys, "compute", "--knot", "torus:2,7",
                           "--invariant", "upper,lower,v0", "--engine", "both")
    assert code == EXIT_OK
    assert "knot torus:2,7" in out


def test_compute_engine_mismatch_exit(capsys, monkeypatch):
    from involutive_upsilon import reduction

    real = reduction.materialize_closed_form

    def corrupted(out):
        # every filtration level one lower: Upsilon moves, the shape does not
        C = real(out)
        gens = [replace(g, f1=g.f1 - 1, f2=g.f2 - 1) for g in C.generators]
        return BifilteredComplex(tuple(gens), C.arrows, C.mode)

    monkeypatch.setattr(reduction, "materialize_closed_form", corrupted)
    code, out, err = run_cli(capsys, "compute", "--knot", "torus:2,5",
                             "--invariant", "upper", "--engine", "both")
    assert code == EXIT_MISMATCH
    assert "mismatch" in err


def test_compute_closed_form_needs_staircase(capsys, tmp_path):
    path = tmp_path / "c.json"
    path.write_text(
        '{"mode": "ALG_ALEX", "generators": [{"id": "u", "gr": 0, "f1": 0, "f2": 0}],'
        ' "differential": [], "involution": [{"from": "u", "to": "u"}]}')
    code, _, err = run_cli(capsys, "compute", "--knot", f"file:{path}",
                           "--invariant", "upper", "--engine", "closed-form")
    assert code == EXIT_PARSE
    assert "closed-form" in err


def test_compute_parse_error_exit(capsys):
    code, _, err = run_cli(capsys, "compute", "--knot", "torus:2,4",
                           "--invariant", "v0")
    assert code == EXIT_PARSE
    assert "coprime" in err


def test_compute_missing_file_exit(capsys):
    code, _, err = run_cli(capsys, "compute", "--knot", "file:/nope/missing.json",
                           "--invariant", "classic")
    assert code == 5


def test_compute_csv_deterministic(capsys, tmp_path):
    args = ("compute", "--knot", "torus:2,5", "--invariant", "upper,v0",
            "--output", "csv", "--output-dir", str(tmp_path))
    code, out, _ = run_cli(capsys, *args)
    assert code == EXIT_OK
    csv_path = tmp_path / "torus_2_5.upper.csv"
    first = csv_path.read_bytes()
    assert first.startswith(b"t,value\n")
    v0 = (tmp_path / "torus_2_5.v0.csv").read_text()
    assert "upper_v0,1" in v0 and "lower_v0,1" in v0
    code, _, _ = run_cli(capsys, *args)
    assert code == EXIT_OK
    assert csv_path.read_bytes() == first


def test_compute_svg(capsys, tmp_path):
    args = ("compute", "--knot", "torus:3,7", "--invariant",
            "classic,folded,upper,lower", "--output", "svg",
            "--output-dir", str(tmp_path))
    code, out, _ = run_cli(capsys, *args)
    assert code == EXIT_OK
    svg = (tmp_path / "torus_3_7.svg").read_text()
    assert svg.count("<polyline") == 4
    assert "<svg" in svg and "torus:3,7" in svg
    first = svg
    run_cli(capsys, *args)
    assert (tmp_path / "torus_3_7.svg").read_text() == first


def test_dump_complex_roundtrip(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "dump-complex", "--knot", "torus:2,5")
    assert code == EXIT_OK
    C, inv = loads_complex(out)
    assert C.n == 5 and inv is not None
    path = tmp_path / "t25.json"
    path.write_text(out)
    code2, out2, _ = run_cli(capsys, "compute", "--knot", f"file:{path}",
                             "--invariant", "upper,lower,v0")
    assert code2 == EXIT_OK
    code3, out3, _ = run_cli(capsys, "compute", "--knot", "torus:2,5",
                             "--invariant", "upper,lower,v0")
    assert out2.splitlines()[1:] == out3.splitlines()[1:]  # same values


def test_dump_complex_stages(capsys):
    for stage, expect_n in (("base", 9), ("folded", 9), ("cone", 18), ("reduced", 10)):
        code, out, _ = run_cli(capsys, "dump-complex", "--knot", "torus:3,7",
                               "--stage", stage)
        assert code == EXIT_OK
        data = json.loads(out)
        assert len(data["generators"]) == expect_n
    code, out, _ = run_cli(capsys, "dump-complex", "--knot", "torus:3,7",
                           "--stage", "reduced", "--strip-acyclic")
    assert len(json.loads(out)["generators"]) == 6


def test_dump_complex_idempotent_bytes(capsys):
    _, out, _ = run_cli(capsys, "dump-complex", "--knot", "steps:+:2,1,1,2")
    from involutive_upsilon import dumps_complex
    C, inv = loads_complex(out)
    assert dumps_complex(C, inv) == out


def test_verify_quick(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-steps", "3")
    assert code == EXIT_OK
    assert "all" in out and "passed" in out
    assert out.count("ok  ") >= 10


@pytest.mark.parametrize("flag", ["--max-steps", "--grid-denominator"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_verify_rejects_bad_bounds(capsys, flag, value):
    # these used to check nothing and pass, or divide by zero for the grid
    code, out, err = run_cli(capsys, "verify", flag, value)
    assert code == EXIT_PARSE
    assert f"{flag} must be at least 1" in err and out == ""


def test_unknown_invariant_rejected(capsys):
    code, _, err = run_cli(capsys, "compute", "--knot", "torus:2,3",
                           "--invariant", "tau")
    assert code == EXIT_PARSE
    assert "unknown invariant" in err


@pytest.mark.parametrize("knot,mirror_knot,stem,mirror_stem", [
    ("torus:3,7", "-torus:3,7", "torus_3_7", "mtorus_3_7"),
    ("steps:+:2,2", "steps:-:2,2", "steps___2_2", "steps_m_2_2"),
])
@pytest.mark.parametrize("output", ["csv", "svg"])
def test_compute_mirror_gets_own_files(capsys, tmp_path, knot, mirror_knot, stem,
                                       mirror_stem, output):
    code, out, _ = run_cli(capsys, "compute", "--knot", knot, "--knot", mirror_knot,
                           "--invariant", "classic", "--output", output,
                           "--output-dir", str(tmp_path))
    assert code == EXIT_OK
    suffix = ".classic.csv" if output == "csv" else ".svg"
    paths = [tmp_path / f"{stem}{suffix}", tmp_path / f"{mirror_stem}{suffix}"]
    assert out.splitlines() == [f"wrote {p}" for p in paths]
    assert paths[0].read_text() != paths[1].read_text()
    for spec, path in zip((knot, mirror_knot), paths):
        code, _, _ = run_cli(capsys, "compute", "--knot", spec, "--invariant", "classic",
                             "--output", output, "--output-dir", str(tmp_path / spec))
        assert code == EXIT_OK
        assert (tmp_path / spec / path.name).read_text() == path.read_text()


@pytest.mark.parametrize("knots", [("torus:3,7", "torus:3,7"),
                                   ("file:a-b.json", "file:amb.json")])
def test_compute_same_stem_exit(capsys, tmp_path, knots):
    argv = ["compute", "--invariant", "classic", "--output", "csv",
            "--output-dir", str(tmp_path)]
    for knot in knots:
        argv += ["--knot", knot]
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_PARSE
    assert "same csv file stem" in err
    assert out == "" and not list(tmp_path.iterdir())


@pytest.mark.parametrize("field", ["generators", "differential", "involution"])
def test_compute_file_non_list_field_exit(capsys, tmp_path, field):
    doc = {"mode": "ALG_ALEX", "generators": [{"id": "u", "gr": 0, "f1": 0, "f2": 0}],
           "differential": [], "involution": [{"from": "u", "to": "u"}]}
    doc[field] = 5
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "compute", "--knot", f"file:{path}",
                           "--invariant", "classic,upper")
    assert code == EXIT_PARSE
    assert f"{field} must be a list" in err


@pytest.mark.parametrize("command", ["compute", "dump-complex"])
def test_deeply_nested_file_exit(capsys, tmp_path, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run_cli(capsys, command, "--knot", f"file:{path}")
    assert code == EXIT_PARSE
    assert "nested too deeply" in err and out == ""


def test_svg_title_is_escaped(capsys, tmp_path):
    path = tmp_path / "a&<b.json"
    path.write_text(
        '{"mode": "ALG_ALEX", "generators": [{"id": "u", "gr": 0, "f1": 0, "f2": 0}],'
        ' "differential": [], "involution": [{"from": "u", "to": "u"}]}')
    code, out, _ = run_cli(capsys, "compute", "--knot", f"file:{path}",
                           "--invariant", "classic", "--output", "svg",
                           "--output-dir", str(tmp_path))
    assert code == EXIT_OK
    svg = out.split("wrote ", 1)[1].strip()
    title = ET.parse(svg).getroot().find("{http://www.w3.org/2000/svg}text")
    assert title.text == f"file:{path}"


def test_compute_large_coset_torus(capsys):
    # T(5,27): its classic representative coset has dimension 32; V0 is the
    # least max(alg, Alex) over the corners of its staircase
    code, out, _ = run_cli(capsys, "compute", "--knot", "torus:5,27")
    assert code == EXIT_OK
    assert len(out.splitlines()) == 6
    assert "V̅0 = 16, V̲0 = 16" in out
