"""Command-line front end.

Commands:
  compute       build knot complexes and print/emit the requested invariants
  verify        run the cross-check suites (the repository's acceptance gate)
  dump-complex  emit the JSON of a knot complex at a chosen pipeline stage

Exit codes: 0 success, 2 parse/usage error, 4 engine or verification
mismatch, 5 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .complexes import FiltrationMode, dumps_complex, loads_complex, validate
from .involutive import ChainMap, chain_map_violations, staircase_involution
from .plfunction import PLFunction
from .reduction import strip_acyclic
from .render import (UPSILON_LABELS, format_plfunction, format_rational,
                     plfunction_csv, render_svg)
from .staircase import Sign, StaircaseSpec, staircase_from_steps, steps_from_torus_knot
from .upsilon import (UpsilonVariant, involutive_cone, upsilon,
                      upsilon_pair_from_cone)
from .verify import run_verify

INVARIANT_NAMES = ("classic", "folded", "upper", "lower", "v0")

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_MISMATCH = 4
EXIT_IO = 5


class KnotSpecError(ValueError):
    def __init__(self, text: str, pos: int, message: str):
        super().__init__(f"knot spec {text!r}: position {pos}: {message}")
        self.pos = pos


class EngineMismatchError(RuntimeError):
    pass


@dataclass(frozen=True)
class KnotRecipe:
    label: str
    kind: str                      # "steps" or "file"
    steps: tuple = ()
    sign: Sign = Sign.POSITIVE
    path: str = ""


@dataclass(frozen=True)
class JobSpec:
    knots: tuple
    invariants: tuple
    engine: str = "generic"
    output: str = "table"
    output_dir: Path = Path(".")
    strip_acyclic: bool = False


def _parse_int_list(text: str, base_pos: int, spec: str):
    out = []
    pos = base_pos
    for part in text.split(","):
        if not part or not (part.isdigit() or (part[0] == "-" and part[1:].isdigit())):
            raise KnotSpecError(spec, pos, f"expected an integer, got {part!r}")
        out.append(int(part))
        pos += len(part) + 1
    return out


def parse_knot_spec(text: str) -> KnotRecipe:
    """Grammar: torus:p,q | -torus:p,q | steps:SIGN:a1,...,an | file:PATH."""
    if text.startswith("file:"):
        path = text[len("file:"):]
        if not path:
            raise KnotSpecError(text, 5, "empty file path")
        return KnotRecipe(text, "file", path=path)
    torus = text.startswith("torus:") or text.startswith("-torus:")
    if torus:
        mirror_sign = text.startswith("-")
        body_pos = text.index(":") + 1
        nums = _parse_int_list(text[body_pos:], body_pos, text)
        if len(nums) != 2:
            raise KnotSpecError(text, body_pos, f"need exactly p,q, got {len(nums)} numbers")
        p, q = nums
        try:
            spec = steps_from_torus_knot(p, q)
        except ValueError as e:
            raise KnotSpecError(text, body_pos, str(e)) from None
        sign = Sign.NEGATIVE if mirror_sign else Sign.POSITIVE
        return KnotRecipe(text, "steps", steps=spec.steps, sign=sign)
    if text.startswith("steps:"):
        rest = text[len("steps:"):]
        if not rest or rest[0] not in "+-":
            raise KnotSpecError(text, len("steps:"), "expected sign '+' or '-'")
        sign = Sign.POSITIVE if rest[0] == "+" else Sign.NEGATIVE
        if len(rest) < 2 or rest[1] != ":":
            raise KnotSpecError(text, len("steps:") + 1, "expected ':' after the sign")
        body_pos = len("steps:") + 2
        nums = _parse_int_list(text[body_pos:], body_pos, text)
        bad = next((n for n in nums if n <= 0), None)
        if bad is not None:
            raise KnotSpecError(text, body_pos, f"steps must be positive, got {bad}")
        return KnotRecipe(text, "steps", steps=tuple(nums), sign=sign)
    raise KnotSpecError(text, 0, "expected torus:, -torus:, steps: or file:")


def build_knot(recipe: KnotRecipe):
    """Build (complex, involution-or-None) for a parsed knot spec."""
    if recipe.kind == "steps":
        C = staircase_from_steps(StaircaseSpec(recipe.steps, recipe.sign))
        try:
            involution = staircase_involution(C)
        except ValueError:
            involution = None
        return C, involution
    text = Path(recipe.path).read_text(encoding="utf-8")
    C, inv_arrows = loads_complex(text)
    report = validate(C)
    if not report.ok:
        msgs = "; ".join(f"{rule} at {who}" for rule, who, _ in report.violations)
        raise ValueError(f"{recipe.path}: complex fails validation: {msgs}")
    involution = None
    if inv_arrows is not None:
        involution = ChainMap(C, C, inv_arrows)
        problems = chain_map_violations(
            involution, skew=C.mode is FiltrationMode.ALG_ALEX)
        if problems:
            raise ValueError(f"{recipe.path}: involution invalid: " + "; ".join(problems))
    return C, involution


def _slug(label: str) -> str:
    """File stem of a knot label; '-' becomes 'm' so a mirror keeps its own stem."""
    keep = []
    for ch in label:
        keep.append(ch if ch.isalnum() else "m" if ch == "-" else "_")
    return "".join(keep).strip("_")


def _cone_pair(C, involution, engine, recipe, strip):
    """(upper, lower) per engine; 'both' cross-checks and reports any diff."""
    results = {}
    if engine in ("generic", "both"):
        cone = involutive_cone(C, involution, strip=strip)
        results["generic"] = upsilon_pair_from_cone(cone)
    if engine in ("closed-form", "both"):
        spec = StaircaseSpec(recipe.steps, recipe.sign) if recipe.kind == "steps" else None
        if spec is None or not spec.symmetric:
            raise ValueError(
                f"knot {recipe.label!r}: the closed-form engine needs a symmetric staircase spec")
        from .reduction import closed_form_cone_reduction, materialize_closed_form
        closed = materialize_closed_form(closed_form_cone_reduction(spec))
        results["closed-form"] = upsilon_pair_from_cone(closed)
    if engine == "both" and results["generic"] != results["closed-form"]:
        lines = [f"engine mismatch for {recipe.label}:"]
        for name in ("generic", "closed-form"):
            up, low = results[name]
            lines.append(f"  {name}: upper = {format_plfunction(up)}; "
                         f"lower = {format_plfunction(low)}")
        raise EngineMismatchError("\n".join(lines))
    return results["generic"] if "generic" in results else results["closed-form"]


def compute_knot(recipe: KnotRecipe, invariants, engine: str, strip: bool):
    """Ordered dict invariant-name -> PLFunction or (V0 upper, V0 lower)."""
    C, involution = build_knot(recipe)
    if C.mode is not FiltrationMode.ALG_ALEX:
        raise ValueError(f"knot {recipe.label!r}: invariants need an ALG_ALEX complex")
    needs_cone = any(name in ("upper", "lower", "v0") for name in invariants)
    pair = None
    if needs_cone:
        if involution is None:
            raise ValueError(
                f"knot {recipe.label!r}: no involution available; supply one in the "
                f"complex file or use a symmetric staircase")
        pair = _cone_pair(C, involution, engine, recipe, strip)
    out = {}
    for name in invariants:
        if name == "classic":
            out[name] = upsilon(C, UpsilonVariant.CLASSIC)
        elif name == "folded":
            out[name] = upsilon(C, UpsilonVariant.FOLDED)
        elif name == "upper":
            out[name] = pair[0]
        elif name == "lower":
            out[name] = pair[1]
        elif name == "v0":
            up, low = pair
            v_up, v_low = -up(Fraction(2)) / 2, -low(Fraction(2)) / 2
            out[name] = (v_up, v_low)
    return out


def _emit(job: JobSpec, all_results, stdout) -> None:
    if job.output == "table":
        for label, results in all_results:
            stdout.write(f"knot {label}\n")
            for name, value in results.items():
                if name == "v0":
                    v_up, v_low = value
                    stdout.write(f"  V̅0 = {format_rational(v_up)}, "
                                 f"V̲0 = {format_rational(v_low)}\n")
                else:
                    stdout.write(f"  {UPSILON_LABELS[name]}: {format_plfunction(value)}\n")
        return
    job.output_dir.mkdir(parents=True, exist_ok=True)
    for label, results in all_results:
        slug = _slug(label)
        curves = {n: v for n, v in results.items() if isinstance(v, PLFunction)}
        if job.output == "csv":
            for name, f in curves.items():
                path = job.output_dir / f"{slug}.{name}.csv"
                path.write_text(plfunction_csv(f), encoding="utf-8")
                stdout.write(f"wrote {path}\n")
            if "v0" in results:
                v_up, v_low = results["v0"]
                path = job.output_dir / f"{slug}.v0.csv"
                path.write_text("name,value\nupper_v0,%s\nlower_v0,%s\n"
                                % (format_rational(v_up), format_rational(v_low)),
                                encoding="utf-8")
                stdout.write(f"wrote {path}\n")
        elif job.output == "svg":
            if curves:
                path = job.output_dir / f"{slug}.svg"
                path.write_text(render_svg(label, curves), encoding="utf-8")
                stdout.write(f"wrote {path}\n")
            if "v0" in results:
                v_up, v_low = results["v0"]
                stdout.write(f"{label}: V̅0 = {format_rational(v_up)}, "
                             f"V̲0 = {format_rational(v_low)}\n")


def run(job: JobSpec, stdout=None) -> int:
    stdout = stdout or sys.stdout
    if job.output != "table":
        stems: dict = {}
        for text in job.knots:
            stem = _slug(text)
            if stem in stems:
                print(f"error: knots {stems[stem]!r} and {text!r} would write the "
                      f"same {job.output} file stem {stem!r}", file=sys.stderr)
                return EXIT_PARSE
            stems[stem] = text
    try:
        all_results = []
        for text in job.knots:
            recipe = parse_knot_spec(text)
            results = compute_knot(recipe, job.invariants, job.engine,
                                   job.strip_acyclic)
            all_results.append((recipe.label, results))
        _emit(job, all_results, stdout)
        return EXIT_OK
    except KnotSpecError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except EngineMismatchError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MISMATCH
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE


def _cmd_compute(args) -> int:
    invariants = []
    for chunk in args.invariant:
        for name in chunk.split(","):
            name = name.strip()
            if not name:
                continue
            if name not in INVARIANT_NAMES:
                print(f"error: unknown invariant {name!r}; choose from "
                      f"{', '.join(INVARIANT_NAMES)}", file=sys.stderr)
                return EXIT_PARSE
            if name not in invariants:
                invariants.append(name)
    if not invariants:
        print("error: no invariants requested", file=sys.stderr)
        return EXIT_PARSE
    job = JobSpec(
        knots=tuple(args.knot),
        invariants=tuple(invariants),
        engine=args.engine,
        output=args.output,
        output_dir=Path(args.output_dir),
        strip_acyclic=args.strip_acyclic,
    )
    return run(job)


def _cmd_verify(args) -> int:
    for flag, value in (("--max-steps", args.max_steps),
                        ("--grid-denominator", args.grid_denominator)):
        if value < 1:
            print(f"error: {flag} must be at least 1, got {value}", file=sys.stderr)
            return EXIT_PARSE
    results = run_verify(max_steps=args.max_steps,
                         grid_denominator=args.grid_denominator, seed=args.seed)
    ok = True
    for r in results:
        status = "ok  " if r.ok else "FAIL"
        print(f"{status} {r.name}" + (f" - {r.detail}" if r.detail else ""))
        ok = ok and r.ok
    if ok:
        print(f"all {len(results)} checks passed")
        return EXIT_OK
    return EXIT_MISMATCH


def _cmd_dump(args) -> int:
    try:
        recipe = parse_knot_spec(args.knot)
        C, involution = build_knot(recipe)
        stage = args.stage
        inv_arrows = involution.arrows if involution is not None else None
        if stage == "base":
            text = dumps_complex(C, inv_arrows)
        else:
            if involution is None:
                print(f"error: stage {stage!r} needs an involution", file=sys.stderr)
                return EXIT_PARSE
            if stage == "folded":
                from .involutive import fold
                text = dumps_complex(fold(C), inv_arrows)
            else:
                cone = involutive_cone(C, involution, reduce_cone=(stage == "reduced"))
                if args.strip_acyclic and stage == "reduced":
                    cone = strip_acyclic(cone)
                text = dumps_complex(cone)
        if args.output == "-":
            sys.stdout.write(text)
        else:
            Path(args.output).write_text(text, encoding="utf-8")
        return EXIT_OK
    except KnotSpecError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="involutive-upsilon",
        description="Exact involutive Upsilon invariants of staircase knot complexes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute invariants for knots")
    p_compute.add_argument("--knot", action="append", required=True,
                           help="torus:p,q | -torus:p,q | steps:+:a1,... | file:PATH")
    p_compute.add_argument("--invariant", action="append",
                           default=None, metavar="NAMES",
                           help="comma list from classic,folded,upper,lower,v0 "
                                "(default: all)")
    p_compute.add_argument("--engine", choices=("generic", "closed-form", "both"),
                           default="generic")
    p_compute.add_argument("--output", choices=("table", "csv", "svg"),
                           default="table")
    p_compute.add_argument("--output-dir", default=".")
    p_compute.add_argument("--strip-acyclic", action="store_true",
                           help="drop acyclic summands after reduction")
    p_compute.set_defaults(func=_cmd_compute)

    p_verify = sub.add_parser("verify", help="run the cross-check suites")
    p_verify.add_argument("--max-steps", type=int, default=8,
                          help="largest half-sum of symmetric step lists (default 8)")
    p_verify.add_argument("--grid-denominator", type=int, default=12)
    p_verify.add_argument("--seed", type=int, default=20260808)
    p_verify.set_defaults(func=_cmd_verify)

    p_dump = sub.add_parser("dump-complex", help="emit a complex as JSON")
    p_dump.add_argument("--knot", required=True)
    p_dump.add_argument("--stage", choices=("base", "folded", "cone", "reduced"),
                        default="base")
    p_dump.add_argument("--strip-acyclic", action="store_true")
    p_dump.add_argument("-o", "--output", default="-",
                        help="output path, '-' for stdout")
    p_dump.set_defaults(func=_cmd_dump)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    merged = []
    skip = False
    for i, arg in enumerate(argv):
        if skip:
            skip = False
            continue
        # let the documented mirror form `--knot -torus:p,q` through argparse
        if arg == "--knot" and i + 1 < len(argv) and argv[i + 1].startswith("-torus:"):
            merged.append(f"--knot={argv[i + 1]}")
            skip = True
        else:
            merged.append(arg)
    args = build_parser().parse_args(merged)
    if getattr(args, "invariant", "missing") is None:
        args.invariant = [",".join(INVARIANT_NAMES)]
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
