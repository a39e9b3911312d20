"""What one knot means in each workload, untraced and traced, and its checks.

Each workload has four parts:

* `call(knot)`: the timed work, through the package's public entry points;
* `collect(knot, raw)`: untimed, turns the result into a comparable output
  (for sweep-small it reads back and removes the CSV files the CLI wrote);
* `trace(knot, tracer)`: the same inputs fed through each module's public
  functions one stage at a time, one span per call; it returns an output
  comparable with `collect`'s;
* `check(knot, output)`: the oracle checks of oracle.py.
"""

from __future__ import annotations

import importlib
import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from involutive_upsilon import cli, complexes, involutive, plfunction, reduction, render, staircase
from involutive_upsilon.complexes import FiltrationMode, Generator, BifilteredComplex

import oracle
from corpus import Knot

# The package exports the function `upsilon`, which hides the module of that name.
ups = importlib.import_module("involutive_upsilon.upsilon")

# Span name -> per-layer metric it is summed into.
LAYER_OF = {
    "staircase.steps_from_torus_knot": "staircase.build_s",
    "staircase.staircase_from_steps": "staircase.build_s",
    "complexes.read_file": "complexes.parse_s",
    "complexes.loads_complex": "complexes.parse_s",
    "complexes.validate": "complexes.parse_s",
    "complexes.homology_data": "complexes.homology_s",
    "complexes.dumps_complex": "complexes.dump_s",
    "involutive.staircase_involution": "involutive.involution_s",
    "involutive.ChainMap": "involutive.involution_s",
    "involutive.chain_map_violations": "involutive.involution_s",
    "involutive.fold": "involutive.fold_s",
    "involutive.fold_map": "involutive.fold_s",
    "involutive.mapping_cone": "involutive.cone_s",
    "reduction.reduce_bifiltered": "reduction.reduce_s",
    "reduction.closed_form_cone_reduction": "reduction.closed_form_s",
    "reduction.materialize_closed_form": "reduction.closed_form_s",
    "reduction.strip_acyclic": "reduction.strip_s",
    "upsilon.upsilon": "upsilon.minimise_s",
    "upsilon.upsilon_pair_from_cone": "upsilon.minimise_s",
    "plfunction.from_pieces": "plfunction.normalise_s",
    "render.format_plfunction": "render.format_s",
    "render.plfunction_csv": "render.format_s",
    "render.format_rational": "render.format_s",
    "render.render_svg": "render.format_s",
    "cli.build_parser": "cli.parse_s",
    "cli.parse_args": "cli.parse_s",
    "cli.parse_knot_spec": "cli.parse_s",
}
LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))
COUNTS = ("reduction.eliminated_pairs", "reduction.reduced_generators", "upsilon.coset_dim_max")
VARIANT = {"classic": ups.UpsilonVariant.CLASSIC, "folded": ups.UpsilonVariant.FOLDED}


class Tracer:
    """In-memory spans (id, name, start, end, parent id, knot id, pass) and counts.

    A knot's root span is its own knot id; every stage span of that knot
    has the root as parent.  Counts are kept per pass.
    """

    def __init__(self):
        self.spans: list = []
        self.counts: list = []
        self._parent = None
        self._knot = None

    def begin_pass(self) -> None:
        self.counts.append(dict.fromkeys(COUNTS, 0))

    def count(self, name: str, value: int, combine=int.__add__) -> None:
        c = self.counts[-1]
        c[name] = combine(c[name], value)

    def knot(self, label: str, fn, *args):
        sid = len(self.spans)
        self.spans.append(None)
        self._parent = self._knot = sid
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans[sid] = (sid, f"knot:{label}", start, time.perf_counter(), None, sid,
                               len(self.counts) - 1)
            self._parent = self._knot = None

    def call(self, name: str, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((len(self.spans), name, start, time.perf_counter(),
                               self._parent, self._knot, len(self.counts) - 1))

    def layer_seconds(self) -> list:
        """Per pass, seconds summed per layer."""
        out = [dict.fromkeys(LAYERS, 0.0) for _ in self.counts]
        for _, name, start, end, parent, _, p in self.spans:
            if parent is not None:
                out[p][LAYER_OF[name]] += end - start
        return out

    def write(self, path: Path) -> None:
        doc = {"fields": ["id", "name", "start", "end", "parent", "knot", "pass"],
               "spans": self.spans}
        path.write_text(json.dumps(doc), encoding="utf-8")


def _breakpoints(f) -> tuple:
    return tuple(f.breakpoints)


def _lib_staircase(knot):
    sign = staircase.Sign.POSITIVE if knot.sign > 0 else staircase.Sign.NEGATIVE
    return staircase.StaircaseSpec(knot.steps, sign)


def _width(C: oracle.Cx) -> int:
    return max(abs(a - b) for _, a, b in C.gens)


def _check_functions(knot, funcs: dict, v0=None) -> None:
    """Every oracle that applies to the functions of one knot."""
    C, inv = oracle.knot_complex(knot.steps, knot.sign, knot.boxes)
    name = knot.label
    if "classic" in funcs:
        oracle.check_equal(f"{name} classic vs OSS", funcs["classic"],
                           oracle.oss_classic(knot.steps, knot.sign))
        if knot.torus and knot.torus[1] == knot.torus[0] + 1:
            oracle.check_equal(f"{name} classic vs T(p,p+1)", funcs["classic"],
                               oracle.torus_p_p1(knot.torus[0]))
        oracle.check_coset_minimum(f"{name} classic", funcs["classic"], oracle.tower(C, 0))
    if "folded" in funcs:
        oracle.check_coset_minimum(f"{name} folded", funcs["folded"],
                                   oracle.tower(oracle.fold(C), 0))
    if "upper" in funcs or "lower" in funcs:
        K = oracle.cone(C, inv)
        for which, grading in (("upper", 0), ("lower", 1)):
            if which in funcs:
                oracle.check_coset_minimum(f"{name} {which}", funcs[which],
                                           oracle.tower(K, grading))
    oracle.check_properties(name, funcs, _width(C), v0)


# -- coset-heavy --------------------------------------------------------------

class CosetHeavy:
    """Classic and folded Upsilon plus the Upper/Lower pair of one knot."""

    def call(self, knot):
        if knot.torus:
            spec = staircase.steps_from_torus_knot(*knot.torus)
        else:
            spec = _lib_staircase(knot)
        C = staircase.staircase_from_steps(spec)
        out = {}
        for name in ("classic", "folded"):
            if name in knot.outputs:
                out[name] = ups.upsilon(C, VARIANT[name])
        out["upper"], out["lower"] = ups.upsilon_pair_from_cone(ups.involutive_cone(C))
        return out

    def collect(self, knot, raw):
        return {name: _breakpoints(f) for name, f in raw.items()}

    def trace(self, knot, t: Tracer):
        if knot.torus:
            spec = t.call("staircase.steps_from_torus_knot", staircase.steps_from_torus_knot,
                          *knot.torus)
        else:
            spec = _lib_staircase(knot)
        C = t.call("staircase.staircase_from_steps", staircase.staircase_from_steps, spec)
        out = _traced_classic_folded(t, C, knot.outputs)
        red = _traced_cone(t, C, t.call("involutive.staircase_involution",
                                        involutive.staircase_involution, C))
        _homology(t, red, 0)
        _homology(t, red, 1)
        out["upper"], out["lower"] = t.call("upsilon.upsilon_pair_from_cone",
                                            ups.upsilon_pair_from_cone, red)
        return {name: _breakpoints(_normalise(t, f)) for name, f in out.items()}

    def check(self, knot, output):
        _check_functions(knot, output)


def _traced_classic_folded(t: Tracer, C, outputs=("classic", "folded")) -> dict:
    out = {}
    for name in ("classic", "folded"):
        if name in outputs:
            X = C if name == "classic" else t.call("involutive.fold", involutive.fold, C)
            _homology(t, X, 0)
            out[name] = t.call("upsilon.upsilon", ups.upsilon, C, VARIANT[name])
    return out


def _homology(t: Tracer, X, grading: int):
    _, _, boundaries = t.call("complexes.homology_data", complexes.homology_data, X, grading)
    t.count("upsilon.coset_dim_max", len(boundaries), max)


def _traced_cone(t: Tracer, C, inv, strip: bool = False):
    F = t.call("involutive.fold", involutive.fold, C)
    I = t.call("involutive.fold_map", involutive.fold_map, inv)
    K = t.call("involutive.mapping_cone", involutive.mapping_cone, F, I)
    res = t.call("reduction.reduce_bifiltered", reduction.reduce_bifiltered, K)
    t.count("reduction.eliminated_pairs", len(res.eliminated_pairs))
    t.count("reduction.reduced_generators", res.reduced.n)
    if strip:
        return t.call("reduction.strip_acyclic", reduction.strip_acyclic, res.reduced)
    return res.reduced


def _normalise(t: Tracer, f):
    return t.call("plfunction.from_pieces", plfunction.PLFunction.from_pieces, f.pieces())


# -- reduce-long --------------------------------------------------------------

class ReduceLong:
    """dump-complex --stage reduced: build, fold, cone, reduce, serialise."""

    def call(self, knot):
        spec = (staircase.steps_from_torus_knot(*knot.torus) if knot.torus
                else _lib_staircase(knot))
        C = staircase.staircase_from_steps(spec)
        return complexes.dumps_complex(ups.involutive_cone(C))

    def collect(self, knot, raw):
        return raw

    def trace(self, knot, t: Tracer):
        if knot.torus:
            spec = t.call("staircase.steps_from_torus_knot", staircase.steps_from_torus_knot,
                          *knot.torus)
        else:
            spec = _lib_staircase(knot)
        C = t.call("staircase.staircase_from_steps", staircase.staircase_from_steps, spec)
        inv = t.call("involutive.staircase_involution", involutive.staircase_involution, C)
        red = _traced_cone(t, C, inv)
        return t.call("complexes.dumps_complex", complexes.dumps_complex, red)

    def check(self, knot, output):
        C, inv = oracle.knot_complex(knot.steps, knot.sign)
        oracle.check_reduced_cone(knot.label, json.loads(output), oracle.cone(C, inv))


# -- sweep-small ----------------------------------------------------------------

SWEEP_NAMES = ("classic", "folded", "upper", "lower", "v0")


class SweepSmall:
    """One `compute ... --output csv` CLI call per knot, in this process."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir

    def argv(self, knot) -> list:
        argv = ["compute", "--knot", knot.spec, "--invariant", ",".join(SWEEP_NAMES),
                "--output", "csv", "--output-dir", str(self.out_dir)]
        if knot.path:
            # the closed form needs a step list, so file knots use the generic engine
            return argv + ["--engine", "generic", "--strip-acyclic"]
        return argv + ["--engine", "both"]

    def call(self, knot):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(self.argv(knot))
        return rc, out.getvalue(), err.getvalue()

    def collect(self, knot, raw):
        """Read back and remove the files this call wrote, before the next call."""
        rc, out, err = raw
        if rc != 0:
            raise RuntimeError(f"{knot.label}: exit {rc}: {err.strip()}")
        texts = {}
        for line in out.splitlines():
            path = Path(line.removeprefix("wrote "))
            name = path.name.rsplit(".", 2)[-2]
            texts[name] = path.read_text(encoding="utf-8")
            path.unlink()
        if sorted(texts) != sorted(SWEEP_NAMES):
            raise RuntimeError(f"{knot.label}: wrote {sorted(texts)}")
        return texts

    def trace(self, knot, t: Tracer):
        parser = t.call("cli.build_parser", cli.build_parser)
        t.call("cli.parse_args", parser.parse_args, self.argv(knot))
        recipe = t.call("cli.parse_knot_spec", cli.parse_knot_spec, knot.spec)
        if recipe.kind == "file":
            text = t.call("complexes.read_file", Path(recipe.path).read_text, encoding="utf-8")
            C, inv_arrows = t.call("complexes.loads_complex", complexes.loads_complex, text)
            if not t.call("complexes.validate", complexes.validate, C).ok:
                raise RuntimeError(f"{knot.label}: complex fails validation")
            inv = t.call("involutive.ChainMap", involutive.ChainMap, C, C, inv_arrows)
            if t.call("involutive.chain_map_violations", involutive.chain_map_violations,
                      inv, skew=True):
                raise RuntimeError(f"{knot.label}: involution invalid")
            spec = None
        else:
            spec = staircase.StaircaseSpec(recipe.steps, recipe.sign)
            C = t.call("staircase.staircase_from_steps", staircase.staircase_from_steps, spec)
            inv = t.call("involutive.staircase_involution", involutive.staircase_involution, C)
        red = _traced_cone(t, C, inv, strip=spec is None)
        _homology(t, red, 0)
        _homology(t, red, 1)
        pair = t.call("upsilon.upsilon_pair_from_cone", ups.upsilon_pair_from_cone, red)
        if spec is not None:
            out = t.call("reduction.closed_form_cone_reduction",
                         reduction.closed_form_cone_reduction, spec)
            closed = t.call("reduction.materialize_closed_form",
                            reduction.materialize_closed_form, out)
            if t.call("upsilon.upsilon_pair_from_cone", ups.upsilon_pair_from_cone,
                      closed) != pair:
                raise RuntimeError(f"{knot.label}: engines disagree")
        funcs = _traced_classic_folded(t, C)
        funcs["upper"], funcs["lower"] = pair
        texts = {name: t.call("render.plfunction_csv", render.plfunction_csv, _normalise(t, f))
                 for name, f in funcs.items()}
        v = [t.call("render.format_rational", render.format_rational, -f(2) / 2) for f in pair]
        texts["v0"] = "name,value\nupper_v0,%s\nlower_v0,%s\n" % tuple(v)
        return texts

    def check(self, knot, output):
        funcs = {name: oracle.parse_csv(output[name]) for name in SWEEP_NAMES if name != "v0"}
        for name, f in library_functions(knot).items():
            oracle.check_csv(f"{knot.label} {name} CSV", output[name], f)
        _check_functions(knot, funcs, oracle.parse_v0_csv(output["v0"]))


def library_functions(knot) -> dict:
    """The four functions as the library returns them from its public API."""
    if knot.path:
        C, inv_arrows = complexes.loads_complex(Path(knot.path).read_text(encoding="utf-8"))
        inv = involutive.ChainMap(C, C, inv_arrows)
        return {name: _breakpoints(ups.upsilon(C, ups.UpsilonVariant(name), inv, strip=True))
                for name in SWEEP_NAMES if name != "v0"}
    C = staircase.staircase_from_steps(_lib_staircase(knot))
    return {name: _breakpoints(ups.upsilon(C, ups.UpsilonVariant(name)))
            for name in SWEEP_NAMES if name != "v0"}


# -- the reference knot of every traced pass ------------------------------------

PROBE = Knot("probe T(3,7)+box", (1, 2, 1, 2, 2, 1, 2, 1), torus=(3, 7), boxes=((1, 1),))


def probe(t: Tracer, work_dir: Path) -> None:
    """T(3,7) (+) a box through every layer: CLI parse, build, dump, parse,
    cone, reduce, strip, closed form, all four Upsilons, normalise, render.

    It gives every per-layer metric a measured base, so a layer a workload
    does not use reads about a millisecond rather than nothing, and it checks
    its own answers against the oracles.
    """
    parser = t.call("cli.build_parser", cli.build_parser)
    t.call("cli.parse_args", parser.parse_args, ["compute", "--knot", "torus:3,7"])
    recipe = t.call("cli.parse_knot_spec", cli.parse_knot_spec, "torus:3,7")
    t.call("staircase.steps_from_torus_knot", staircase.steps_from_torus_knot, 3, 7)
    spec = staircase.StaircaseSpec(recipe.steps, recipe.sign)
    stair = t.call("staircase.staircase_from_steps", staircase.staircase_from_steps, spec)
    inv = t.call("involutive.staircase_involution", involutive.staircase_involution, stair)
    box = oracle.box(*PROBE.boxes[0])
    box_cx = BifilteredComplex(tuple(Generator(f"b{i}", *g) for i, g in enumerate(box.gens)),
                               frozenset((f"b{i}", f"b{j}") for i, j in box.arrows),
                               FiltrationMode.ALG_ALEX)
    S = complexes.direct_sum(stair, box_cx)
    arrows = set(inv.arrows) | {(f"b{i}", f"b{j}") for i, j in enumerate(oracle.BOX_INVOLUTION)}
    text = t.call("complexes.dumps_complex", complexes.dumps_complex, S, arrows)
    path = work_dir / "probe.json"
    path.write_text(text, encoding="utf-8")
    text = t.call("complexes.read_file", path.read_text, encoding="utf-8")
    C, inv_arrows = t.call("complexes.loads_complex", complexes.loads_complex, text)
    if not t.call("complexes.validate", complexes.validate, C).ok:
        raise RuntimeError("probe: complex fails validation")
    I = t.call("involutive.ChainMap", involutive.ChainMap, C, C, inv_arrows)
    if t.call("involutive.chain_map_violations", involutive.chain_map_violations, I, skew=True):
        raise RuntimeError("probe: involution invalid")
    red = _traced_cone(t, C, I, strip=True)
    closed = t.call("reduction.materialize_closed_form", reduction.materialize_closed_form,
                    t.call("reduction.closed_form_cone_reduction",
                           reduction.closed_form_cone_reduction, spec))
    funcs = _traced_classic_folded(t, C)
    _homology(t, red, 0)
    _homology(t, red, 1)
    funcs["upper"], funcs["lower"] = t.call("upsilon.upsilon_pair_from_cone",
                                            ups.upsilon_pair_from_cone, red)
    if t.call("upsilon.upsilon_pair_from_cone", ups.upsilon_pair_from_cone,
              closed) != (funcs["upper"], funcs["lower"]):
        raise RuntimeError("probe: engines disagree")
    funcs = {name: _normalise(t, f) for name, f in funcs.items()}
    for f in funcs.values():
        t.call("render.format_plfunction", render.format_plfunction, f)
        t.call("render.plfunction_csv", render.plfunction_csv, f)
    t.call("render.render_svg", render.render_svg, "T(3,7)", funcs)
    _check_functions(PROBE, {n: _breakpoints(f) for n, f in funcs.items()})


def make(workload: str, out_dir: Path):
    if workload == "coset-heavy":
        return CosetHeavy()
    if workload == "reduce-long":
        return ReduceLong()
    return SweepSmall(out_dir)
