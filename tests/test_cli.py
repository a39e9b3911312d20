import hashlib
import importlib
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import pytest

from involutive_upsilon import (BifilteredComplex, cli, dumps_complex, involutive,
                                involutive_cone, loads_complex, reduce_bifiltered,
                                reduction)
from involutive_upsilon.cli import (EXIT_IO, EXIT_MISMATCH, EXIT_OK, EXIT_PARSE,
                                    KnotSpecError, build_knot, main, parse_knot_spec)
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
    ("steps:+:1,²", "integer"),
    ("torus:٣,٧", "integer"),
    ("steps:+:0,1", "positive"),
    ("wave:1,2", "expected torus:"),
    ("file:", "empty file path"),
    pytest.param("steps:+:1," + "1" * 5000, "position 10: integer too long",
                 id="steps:+:1,<5000 digits>-too long"),
    pytest.param("steps:+:" + ",".join(["9" * 4300] * 4),
                 "position 8: step sum has more than 2000 digits",
                 id="steps:+:N,N,N,N-N=<4300 nines>-step sum too long"),
    pytest.param("torus:2,99999999999999999999", r"position 6: p\*q must be below",
                 id="torus:2,10^20-1-p*q past sys.maxsize"),
])
def test_parse_errors_are_positioned(text, fragment):
    with pytest.raises(KnotSpecError, match=fragment) as exc:
        parse_knot_spec(text)
    assert "position" in str(exc.value)


@pytest.mark.parametrize("sign", "+-")
def test_spec_just_under_the_digit_limit_renders(capsys, sign):
    half = (10 ** 2000 - 2) // 2  # the step sum has 2000 digits
    knot = f"steps:{sign}:{half},{half}"
    code, out, err = run_cli(capsys, "compute", "--knot", knot)
    assert code == EXIT_OK and err == ""
    assert len(out.splitlines()) == 6 and str(half) in out
    code, out, err = run_cli(capsys, "dump-complex", "--knot", knot, "--stage", "reduced")
    assert code == EXIT_OK and err == "" and loads_complex(out)


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


def corrupt_closed_form(monkeypatch):
    real = cli.materialize_closed_form

    def corrupted(out):
        # every filtration level one lower: Upsilon moves, the shape does not
        C = real(out)
        gens = [replace(g, f1=g.f1 - 1, f2=g.f2 - 1) for g in C.generators]
        return BifilteredComplex(tuple(gens), C.arrows, C.mode)

    monkeypatch.setattr(cli, "materialize_closed_form", corrupted)


def test_compute_engine_mismatch_exit(capsys, monkeypatch):
    corrupt_closed_form(monkeypatch)
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


# A staircase plus a diagonal box whose ids are out of sorted order, so the
# file order of generators, differential and involution is not the id order.
UNSORTED_COMPLEX = {
    "mode": "ALG_ALEX",
    "generators": [{"id": i, "gr": g, "f1": a, "f2": b} for i, g, a, b in (
        ("q", 1, 2, 1), ("z", 0, 0, 2), ("k", 1, 0, 0), ("b", 0, 2, 0),
        ("a", 0, 1, 1), ("m", 1, 1, 2), ("c", 0, 0, 0))],
    "differential": [{"from": x, "to": y} for x, y in (
        ("m", "z"), ("m", "a"), ("q", "a"), ("q", "b"), ("k", "c"))],
    "involution": [{"from": x, "to": y} for x, y in (
        ("z", "b"), ("b", "z"), ("m", "q"), ("q", "m"), ("a", "a"), ("k", "k"),
        ("c", "c"))],
}

# sha256 of the dump-complex output at each stage, recorded before complexes
# stored their differential as integer adjacency: the order of generators,
# differential and involution entries is part of the output.
DUMP_GOLDENS = {
    "torus:3,7": {
        "base": ("07e6bf63247bc52b94112caaca9c2bd15e1ff2eac7fae52aff32ca3f037fb02c", 9),
        "folded": ("a0ea6d2ed8403ddeea16c1885622c4104380f03f0b8dd30f543f80b3223aa640", 9),
        "cone": ("81c37a52f573c951958e9cebb566bc7aecbde503dd77bafbbea9e03c63ef111f", 18),
        "reduced": ("ec6ca8c76b5125c1159a3970062ccf38110525e414dc6dcb021803f89c7d924d", 10),
    },
    "-torus:3,7": {
        "base": ("9d7e002eec54e7898a03bb7bd7fbbd520cedc91e5a7d0b2f5788712801789a0c", 9),
        "folded": ("bafa31d5c1b085d4d72ce3187ded0b7c874325f419ac03eca848a74f6047d383", 9),
        "cone": ("37a9fecfedc53dbce845a80e5d07f3ba84dabbdc32e0f6862e97a0b038fbd9d9", 18),
        "reduced": ("b3538cf9e3fc04e4f63e93c3bcc2e77433472535027628e0120db1158cb247fb", 10),
    },
    "file": {
        "base": ("db0febeb162cd0964235bd35f11d886278d28c2f88409ebe4ded5baffefae192", 7),
        "folded": ("874aadd0f2d4bcea8e736172c5d4f70da3e4bfb62adf55da53016b0aadfa135d", 7),
        "cone": ("ead8cb5dc1f5f3b91fc22d9ec7d734fb155740930f28cea00592733533a177e5", 14),
        "reduced": ("bf07edbdaa1ff03ea9d42a2c6260b56fe74fe45248952aaf817108cf3f757d1a", 6),
    },
}


def test_dump_complex_stages(capsys, tmp_path):
    path = tmp_path / "unsorted.json"
    path.write_text(json.dumps(UNSORTED_COMPLEX))
    for name, stages in DUMP_GOLDENS.items():
        knot = f"file:{path}" if name == "file" else name
        for stage, (sha, expect_n) in stages.items():
            code, out, _ = run_cli(capsys, "dump-complex", "--knot", knot, "--stage", stage)
            assert code == EXIT_OK
            assert len(json.loads(out)["generators"]) == expect_n, (name, stage)
            assert hashlib.sha256(out.encode()).hexdigest() == sha, (name, stage)
    code, out, _ = run_cli(capsys, "dump-complex", "--knot", "torus:3,7",
                           "--stage", "reduced", "--strip-acyclic")
    assert len(json.loads(out)["generators"]) == 6


def test_dump_complex_idempotent_bytes(capsys):
    _, out, _ = run_cli(capsys, "dump-complex", "--knot", "steps:+:2,1,1,2")
    C, inv = loads_complex(out)
    assert dumps_complex(C, inv) == out


@pytest.mark.parametrize("command", ["compute", "dump-complex"])
@pytest.mark.parametrize("knot, code, fragment", [
    ("torus:2,4", EXIT_PARSE, "coprime"),
    ("steps:+:1,x", EXIT_PARSE, "position 10"),
    ("file:/nope/missing.json", EXIT_IO, "missing.json"),
    ("torus:3,1000000000000000000", EXIT_PARSE, "out of memory"),
])
def test_error_exit_codes(capsys, command, knot, code, fragment):
    got, out, err = run_cli(capsys, command, "--knot", knot)
    assert got == code and out == ""
    assert err.startswith("error: ") and fragment in err and err.count("\n") == 1


def fail_verify_with_oserror(monkeypatch):
    from involutive_upsilon import cli

    def unreadable(**settings):
        raise OSError("corpus unreadable")

    monkeypatch.setattr(cli, "run_verify", unreadable)


@pytest.mark.parametrize("argv, setup, code", [
    (["compute", "--knot", "torus:2,3", "--invariant", "tau"], None, EXIT_PARSE),
    (["compute", "--knot", "file:/nope/missing.json"], None, EXIT_IO),
    (["compute", "--knot", "torus:2,5", "--invariant", "upper", "--engine", "both"],
     corrupt_closed_form, EXIT_MISMATCH),
    (["verify", "--grid-denominator", "0"], None, EXIT_PARSE),
    (["verify", "--max-steps", "1"], fail_verify_with_oserror, EXIT_IO),
    (["dump-complex", "--knot", "steps:+:1,2", "--stage", "folded"], None, EXIT_PARSE),
    (["dump-complex", "--knot", "torus:2,3", "-o", "{tmp}/no-such-dir/c.json"], None,
     EXIT_IO),
    # 2e18 coefficients: past the list-size limit, so no memory is allocated
    (["compute", "--knot", "torus:3,1000000000000000000"], None, EXIT_PARSE),
    (["dump-complex", "--knot", "torus:3,1000000000000000000"], None, EXIT_PARSE),
], ids=["compute-value", "compute-os", "compute-mismatch", "verify-value", "verify-os",
        "dump-value", "dump-os", "compute-memory", "dump-memory"])
def test_one_exit_code_mapping(capsys, monkeypatch, tmp_path, argv, setup, code):
    """main maps ValueError, OSError, EngineMismatchError and MemoryError of
    every command to 2, 5, 4 and 2, with one `error:` line and no traceback."""
    if setup is not None:
        setup(monkeypatch)
    got, out, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
    first, *rest = err.splitlines()
    assert got == code and out == "" and "Traceback" not in err
    assert first.startswith("error: ") and not any(r.startswith("error: ") for r in rest)


@pytest.mark.parametrize("argv", [["compute"], ["dump-complex", "--stage", "base"]])
def test_file_identity_involution_is_invalid(capsys, tmp_path, t23, argv):
    """The identity on T(2,3) is filtered but not skew-filtered."""
    path = tmp_path / "t23-identity.json"
    path.write_text(dumps_complex(t23, {(g, g) for g in t23.ids}))
    code, out, err = run_cli(capsys, *argv, "--knot", f"file:{path}")
    assert code == EXIT_PARSE and out == ""
    assert err.startswith("error: ") and "involution invalid" in err
    assert "v0->v0: bidegree (0, 1) exceeds (1, 0), not skew-filtered" in err


def count_calls(monkeypatch, home, name: str) -> list:
    """A list that grows by one per call of the function `name` of module
    `home`, wherever the package binds it."""
    calls, real = [], getattr(home, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module_name in ("cli", "involutive", "reduction", "upsilon"):
        module = importlib.import_module(f"involutive_upsilon.{module_name}")
        if hasattr(module, name):
            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("argv", [
    ["compute", "--knot", "FILE"],
    ["compute", "--knot", "FILE", "--invariant", "classic"],
    ["compute", "--knot", "FILE", "--strip-acyclic"],
    *(["dump-complex", "--knot", "FILE", "--stage", stage]
      for stage in ("base", "folded", "cone", "reduced")),
    ["compute", "--knot", "torus:3,7"],
    ["compute", "--knot", "torus:3,7", "--engine", "both"],
], ids=" ".join)
def test_one_skew_check_per_knot(capsys, monkeypatch, tmp_path, argv):
    """A file's involution is checked when it is read and not again by the
    cone's gate; a staircase's derived one is checked by the gate alone."""
    path = tmp_path / "unsorted.json"
    path.write_text(json.dumps(UNSORTED_COMPLEX))
    calls = count_calls(monkeypatch, involutive, "chain_map_violations")
    code, _, err = run_cli(capsys, *(f"file:{path}" if a == "FILE" else a for a in argv))
    assert code == EXIT_OK, err
    assert len(calls) == 1


def complex_doc(generators, differential, involution):
    return {"mode": "ALG_ALEX",
            "generators": [{"id": i, "gr": g, "f1": a, "f2": b} for i, g, a, b in generators],
            "differential": [{"from": x, "to": y} for x, y in differential],
            "involution": [{"from": x, "to": y} for x, y in involution]}


# A figure-eight-shaped box a -> b, c -> d plus a point x, with the
# involution a -> a + x: a skew-filtered chain map with square 1, but not
# a matching.
FIGURE_EIGHT_SHAPED = complex_doc(
    [("x", 0, 0, 0), ("a", 0, 0, 0), ("b", -1, 0, -1), ("c", -1, -1, 0), ("d", -2, -1, -1)],
    [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
    [("x", "x"), ("a", "a"), ("a", "x"), ("b", "c"), ("c", "b"), ("d", "d")])
# T(2,3) plus an arrow x -> y between two diagonal generators of one bidegree.
T23_PLUS_ARROW = complex_doc(
    [("v0", 0, 0, 1), ("v1", 1, 1, 1), ("v2", 0, 1, 0), ("x", 1, 0, 0), ("y", 0, 0, 0)],
    [("v1", "v0"), ("v1", "v2"), ("x", "y")],
    [("v0", "v2"), ("v2", "v0"), ("v1", "v1"), ("x", "x"), ("y", "y")])
# T(2,3) plus a square box on the diagonal, its involution swapping p and q.
T23_PLUS_SQUARE = complex_doc(
    [("v0", 0, 0, 1), ("v1", 1, 1, 1), ("v2", 0, 1, 0),
     ("x", 2, 2, 2), ("p", 1, 1, 2), ("q", 1, 2, 1), ("y", 0, 1, 1)],
    [("v1", "v0"), ("v1", "v2"), ("x", "p"), ("x", "q"), ("p", "y"), ("q", "y")],
    [("v0", "v2"), ("v2", "v0"), ("v1", "v1"), ("x", "x"), ("p", "q"), ("q", "p"),
     ("y", "y")])
MIRROR_500 = "steps:-:" + ",".join(map(str, [1, 2] * 250 + [2, 1] * 250))


@pytest.mark.parametrize("knot, calls", [
    ("torus:3,7", 0), (MIRROR_500, 0), (T23_PLUS_SQUARE, 0),
    (FIGURE_EIGHT_SHAPED, 1), (T23_PLUS_ARROW, 1),
], ids=["torus:3,7", "-[1,2]*250+[2,1]*250", "T(2,3)+square", "figure-eight-shaped",
        "T(2,3)+arrow"])
def test_reduced_cone_path(capsys, monkeypatch, tmp_path, knot, calls):
    """A matching with strictly dropping arrows reduces without the heap;
    an involution with a + x, or an arrow within one bidegree, does not."""
    if isinstance(knot, dict):
        path = tmp_path / "knot.json"
        path.write_text(json.dumps(knot))
        knot = f"file:{path}"
    counted = count_calls(monkeypatch, reduction, "reduce_bifiltered")
    code, _, err = run_cli(capsys, "dump-complex", "--knot", knot, "--stage", "reduced")
    assert code == EXIT_OK, err
    assert len(counted) == calls


@pytest.mark.parametrize("doc, dump_sha, values", [
    (FIGURE_EIGHT_SHAPED, "b568358dbe0ee4626ca58260b91586850dee4f59dc12fc9b8a3b72e500fa8e51",
     "  Ῡ (upper): -t + 2 on [0,2]\n  Υ̲ (lower): 0 on [0,2]\n  V̅0 = 0, V̲0 = 0\n"),
    (T23_PLUS_ARROW, "5236836b0cb2cf1dc888f3c425cf1587b9fbe68f813fef1cfb04767d15dff06c",
     "  Ῡ (upper): -t on [0,2]\n  Υ̲ (lower): -2 on [0,2]\n  V̅0 = 1, V̲0 = 1\n"),
], ids=["figure-eight-shaped", "T(2,3)+arrow"])
def test_reduced_cone_fallback_goldens(capsys, tmp_path, doc, dump_sha, values):
    """Golden reduced cone (sha256) and values of the two files whose cones
    take the generic route."""
    path = tmp_path / "knot.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "dump-complex", "--knot", f"file:{path}",
                           "--stage", "reduced")
    assert code == EXIT_OK and hashlib.sha256(out.encode()).hexdigest() == dump_sha
    code, out, _ = run_cli(capsys, "compute", "--knot", f"file:{path}",
                           "--invariant", "upper,lower,v0")
    assert code == EXIT_OK and out == f"knot file:{path}\n" + values


@pytest.mark.parametrize("knot", [
    "torus:3,200", "torus:2,301", "torus:11,81",
    *(f"steps:{sign}:" + ",".join(map(str, [1, 2] * 1000 + [2, 1] * 1000)) for sign in "+-"),
], ids=["T(3,200)", "T(2,301)", "T(11,81)", "+[1,2]*1000+[2,1]*1000",
        "-[1,2]*1000+[2,1]*1000"])
def test_large_reduced_cone_matches_whole_cone_reduction(capsys, knot):
    """Knots past the verify corpus: the printed reduced cone is the
    reduction of the whole cone."""
    C, involution = build_knot(parse_knot_spec(knot))
    whole = reduce_bifiltered(involutive_cone(C, involution, reduce_cone=False)).reduced
    code, out, _ = run_cli(capsys, "dump-complex", "--knot", knot, "--stage", "reduced")
    assert code == EXIT_OK and out == dumps_complex(whole)


def test_dump_complex_error_exit_codes(capsys, tmp_path):
    code, out, err = run_cli(capsys, "dump-complex", "--knot", "steps:+:1,2",
                             "--stage", "folded")
    assert code == EXIT_PARSE and out == ""
    assert err == "error: stage 'folded' needs an involution\n"
    code, out, err = run_cli(capsys, "dump-complex", "--knot", "torus:2,3",
                             "-o", str(tmp_path / "no-such-dir" / "c.json"))
    assert code == EXIT_IO and out == "" and err.startswith("error: ")


def test_verify_quick(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-steps", "3")
    assert code == EXIT_OK
    assert "all" in out and "passed" in out
    assert out.count("ok  ") >= 10


def test_verify_reports_a_crashing_check_and_runs_the_rest(capsys, monkeypatch):
    from involutive_upsilon import verify

    def crash(settings):
        raise ValueError("neighbouring pieces do not meet at t = 1")

    checks = list(verify.CHECKS)
    checks[1] = (checks[1][0], crash)
    monkeypatch.setattr(verify, "CHECKS", tuple(checks))
    code, out, _ = run_cli(capsys, "verify", "--max-steps", "1")
    assert code == EXIT_MISMATCH
    lines = out.splitlines()
    assert lines == [line for line in lines if line.startswith(("ok  ", "FAIL "))]
    assert [line.split()[1] for line in lines] == [name for name, _ in checks]
    assert lines[1] == (f"FAIL {checks[1][0]} - ValueError: "
                        "neighbouring pieces do not meet at t = 1")
    assert sum(line.startswith("FAIL") for line in lines) == 1


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


# the whole spec as the file stem would be 567 bytes, past the usual name limit
LONG_STEPS = ",".join(map(str, [1, 2] * 70 + [2, 1] * 70))


def test_compute_long_spec_writes_bounded_file_names(capsys, tmp_path):
    knots = [f"steps:+:{LONG_STEPS}", f"steps:-:{LONG_STEPS}"]
    code, out, err = run_cli(capsys, "compute", "--knot", knots[0], "--knot", knots[1],
                             "--output", "csv", "--output-dir", str(tmp_path))
    assert code == EXIT_OK and err == ""
    written = [Path(line.removeprefix("wrote ")) for line in out.splitlines()]
    assert sorted(written) == sorted(tmp_path.iterdir()) and len(written) == 10
    assert all(len(path.name.encode()) <= 255 for path in written)
    stems = {path.name.split(".")[0] for path in written}
    assert len(stems) == 2  # the mirror keeps its own stem


@pytest.mark.parametrize("knots", [("torus:3,7", "torus:3,7"),
                                   ("file:a-b.json", "file:amb.json"),
                                   (f"steps:+:{LONG_STEPS}",) * 2])
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


def test_compute_staircase_of_100k_generators(capsys):
    """[1,2]*k+[2,1]*k with 10^5 steps: its spec is past the 128 KiB that
    Linux allows one argv string, so it reaches `main` in-process.  Every
    invariant comes out, the generic engine cross-checked against the
    closed form."""
    k = 25000
    spec = "steps:+:" + ",".join(map(str, [1, 2] * k + [2, 1] * k))
    code, out, err = run_cli(capsys, "compute", "--knot", spec, "--engine", "both")
    assert code == EXIT_OK, err
    assert out == (f"knot {spec}\n"
                   "  Υ (classic): -75000t on [0,2/3]; -50000 on [2/3,4/3]; "
                   "75000t - 150000 on [4/3,2]\n"
                   "  Υᶠ (folded): -75000t on [0,2/3]; -50000 on [2/3,2]\n"
                   "  Ῡ (upper): -75000t on [0,2/3]; -50000 on [2/3,2]\n"
                   "  Υ̲ (lower): -50000 on [0,2]\n"
                   "  V̅0 = 25000, V̲0 = 25000\n")


def test_usage_errors_repeat_with_one_parser(capsys):
    # main builds its argparse parser once per process and reuses it
    errors = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--knot", "torus:2,3", "--bogus"])
        assert exc.value.code == EXIT_PARSE
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] and "unrecognized arguments: --bogus" in errors[0]
    code, out, _ = run_cli(capsys, "compute", "--knot", "torus:2,3", "--invariant", "v0")
    assert code == EXIT_OK and "V̅0 = 1, V̲0 = 1" in out


# Unknown ids in a set of several: the report must name the least offending
# pair, not the first one met in hash order.
UNKNOWN_ID_GENERATORS = [{"id": "a", "gr": 1, "f1": 0, "f2": 0},
                         {"id": "b", "gr": 0, "f1": 0, "f2": 0}]
UNKNOWN_ID_PAIRS = [{"from": x, "to": y} for x, y in (("a", "zz1"), ("a", "zz2"), ("q", "b"))]


def test_output_is_independent_of_the_hash_seed(tmp_path):
    files = {"differential.json": {"differential": UNKNOWN_ID_PAIRS},
             "involution.json": {"differential": [{"from": "a", "to": "b"}],
                                 "involution": UNKNOWN_ID_PAIRS}}
    for name, blocks in files.items():
        doc = {"mode": "ALG_ALEX", "generators": UNKNOWN_ID_GENERATORS, **blocks}
        (tmp_path / name).write_text(json.dumps(doc))
    cases = [["compute", "--knot", f"file:{tmp_path / name}"] for name in files]
    cases += [["compute", "--knot", "torus:3,7", "--output", "csv"],
              ["dump-complex", "--knot", "-torus:3,7", "--stage", "reduced"]]
    src = Path(__file__).resolve().parents[1] / "src"
    runs = {}
    for seed in ("0", "4"):  # these two seeds iterate the three pairs differently
        cwd = tmp_path / f"seed{seed}"
        cwd.mkdir()
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)}
        procs = [subprocess.run([sys.executable, "-m", "involutive_upsilon.cli", *argv],
                                cwd=cwd, env=env, capture_output=True, text=True)
                 for argv in cases]
        runs[seed] = [(p.returncode, p.stdout, p.stderr) for p in procs]
        runs[seed].append(sorted((p.name, p.read_text()) for p in cwd.iterdir()))  # the CSVs
    assert runs["0"] == runs["4"]
    assert [code for code, _, _ in runs["0"][:4]] == [EXIT_PARSE, EXIT_PARSE, EXIT_OK, EXIT_OK]
    assert "differential entry ('a', 'zz1') references unknown" in runs["0"][0][2]
    assert "involution entry ('a', 'zz1') references unknown" in runs["0"][1][2]
