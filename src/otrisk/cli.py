"""Command-line front end.

Four subcommands, all emitting a single JSON report to stdout or --out:

* ``eval``     evaluate a risk spec on a CSV of samples
* ``dual``     primal/dual sandwich with witnesses for an explicit family
* ``check``    seeded axiom and bound audit of a spec
* ``kusuoka``  distortion breakpoints and image measure of a CV@R mixture

Input CSV: one sample per line, optional second column with a relative
weight; a header line is skipped when its first token is not a number.
Reports serialize every real with 17 significant digits so that parsing
the file back recovers the exact doubles.  Exit codes: 0 success (or a
certified-but-not-converged dual run, which carries a warning field),
1 check violations, 2 input/spec parse errors, 3 numeric failures,
including a report that would hold inf or nan.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from .dualsolver import SolverOptions, duality_gap_report
from .errors import NonFiniteValue, OTRiskError
from .measures import INF, DiscreteMeasure, Order, as_order, from_samples
from .riskmeasures import (
    CVaR,
    Explicit,
    HigherMoment,
    KusuokaMixture,
    cvar_target_set,
    evaluate_risk,
    higher_moment,
    higher_moment_certificate,
    kusuoka_image,
)
from .transport import GeneratorSet, HullMode, comonotone_coupling, finite_set_value
from .verify import check_axioms, check_bounds, default_tolerance, sample_pairs

SCHEMA_VERSION = 1
SNAP_TOL = 1e-12

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_PARSE = 2
EXIT_NUMERIC = 3


class CliError(Exception):
    def __init__(self, exit_code: int, kind: str, message: str):
        super().__init__(message)
        self.exit_code = exit_code
        self.kind = kind


# ---------------------------------------------------------------------- JSON


def _escape(s: str) -> str:
    out = []
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ch == "\r":
            out.append("\\r")
        elif ord(ch) < 0x20:
            out.append("\\u%04x" % ord(ch))
        else:
            out.append(ch)
    return "".join(out)


def _non_finite(text: str) -> NonFiniteValue:
    return NonFiniteValue(f"a report cannot hold the non-finite number {text}")


def emit_json(obj, indent: int = 0) -> str:
    """Serialize with %.17g for floats (exact double round-trip).

    Raises :class:`NonFiniteValue` for inf or nan, which JSON cannot hold.
    """
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        text = "%.17g" % float(obj)
        if not math.isfinite(obj):
            raise _non_finite(text)
        return text
    if isinstance(obj, str):
        return '"%s"' % _escape(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            '%s  "%s": %s' % (pad, _escape(str(k)), emit_json(v, indent + 1))
            for k, v in obj.items()
        )
        return "{\n%s\n%s}" % (inner, pad)
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = obj.tolist() if isinstance(obj, np.ndarray) else list(obj)
        if not items:
            return "[]"
        if set(map(type, items)) == {float}:
            # witness vectors: one formatting pass instead of a call per float
            text = ", ".join(map("%.17g".__mod__, items))
            if "n" in text:  # only "inf" and "nan" spell an n
                raise _non_finite(next(t for t in text.split(", ") if "n" in t))
            return "[%s]" % text
        if all(isinstance(v, (int, float, np.integer, np.floating)) for v in items):
            return "[%s]" % ", ".join(emit_json(v) for v in items)
        inner = ",\n".join("%s  %s" % (pad, emit_json(v, indent + 1)) for v in items)
        return "[\n%s\n%s]" % (inner, pad)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _write_report(text: str, out_path: str | None):
    if out_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".report-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# --------------------------------------------------------------------- input


def _snap_positions(xs: np.ndarray, ws: np.ndarray):
    """Merge sample positions that differ by at most SNAP_TOL."""
    order = np.argsort(xs, kind="stable")
    xs, ws = xs[order], ws[order]
    keep_x, keep_w = [xs[0]], [ws[0]]
    for x, w in zip(xs[1:], ws[1:]):
        if x - keep_x[-1] <= SNAP_TOL:
            keep_w[-1] += w
        else:
            keep_x.append(x)
            keep_w.append(w)
    return np.array(keep_x), np.array(keep_w)


def read_samples_csv(path: str, snap_atoms: bool = False) -> DiscreteMeasure:
    """Parse a CSV of samples (optional weight column, optional header)."""
    try:
        with open(path) as fh:
            raw_lines = fh.read().splitlines()
    except OSError as exc:
        raise CliError(EXIT_PARSE, "io", f"cannot read input file: {exc}") from exc
    rows = []
    for lineno, line in enumerate(raw_lines, start=1):
        line = line.strip()
        if not line:
            continue
        tokens = [t.strip() for t in line.split(",")]
        if not rows:
            try:
                float(tokens[0])
            except ValueError:
                continue  # header line
        if len(tokens) not in (1, 2):
            raise CliError(
                EXIT_PARSE, "csv", f"line {lineno}: expected 1 or 2 columns, got {len(tokens)}"
            )
        try:
            rows.append(tuple(float(t) for t in tokens))
        except ValueError as exc:
            raise CliError(EXIT_PARSE, "csv", f"line {lineno}: {exc}") from exc
    if not rows:
        raise CliError(EXIT_PARSE, "csv", "no sample rows found")
    widths = {len(r) for r in rows}
    if widths == {1}:
        xs = np.array([r[0] for r in rows])
        ws = np.full(len(rows), 1.0)
    elif widths == {2}:
        xs = np.array([r[0] for r in rows])
        ws = np.array([r[1] for r in rows])
    else:
        raise CliError(EXIT_PARSE, "csv", "mixed rows with and without a weight column")
    if snap_atoms:
        xs, ws = _snap_positions(xs, ws)
    try:
        return from_samples(xs, ws)
    except OTRiskError as exc:
        raise CliError(EXIT_PARSE, type(exc).__name__, str(exc)) from exc


# ---------------------------------------------------------------------- spec


def _require(doc: dict, key: str, kinds, what: str):
    if key not in doc:
        raise CliError(EXIT_PARSE, "spec", f"{what}: missing key '{key}'")
    value = doc[key]
    if not isinstance(value, kinds):
        raise CliError(EXIT_PARSE, "spec", f"{what}: key '{key}' has wrong type")
    return value


def _parse_order(raw, what: str):
    if raw == "inf":
        return INF
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        try:
            return as_order(float(raw))
        except OTRiskError as exc:
            raise CliError(EXIT_PARSE, "spec", f"{what}: {exc}") from exc
    raise CliError(EXIT_PARSE, "spec", f"{what}: order must be a number >= 1 or \"inf\"")


def parse_spec(doc):
    """Build a risk spec from its JSON document."""
    if not isinstance(doc, dict):
        raise CliError(EXIT_PARSE, "spec", "spec document must be a JSON object")
    kind = _require(doc, "type", str, "spec")
    try:
        if kind == "cvar":
            beta = _require(doc, "beta", (int, float), "cvar spec")
            if isinstance(beta, bool) or not 0.0 <= float(beta) < 1.0:
                raise CliError(EXIT_PARSE, "spec", f"beta out of range: {beta!r}")
            return CVaR(float(beta))
        if kind == "higher_moment":
            p = _require(doc, "p", (int, float), "higher_moment spec")
            c = _require(doc, "c", (int, float), "higher_moment spec")
            return HigherMoment(float(p), float(c))
        if kind == "kusuoka":
            atoms = _require(doc, "atoms", list, "kusuoka spec")
            pairs = []
            for item in atoms:
                if not (isinstance(item, (list, tuple)) and len(item) == 2):
                    raise CliError(
                        EXIT_PARSE, "spec", "kusuoka spec: atoms must be [beta, weight] pairs"
                    )
                beta, weight = item
                if isinstance(beta, (int, float)) and not isinstance(beta, bool):
                    if not 0.0 <= float(beta) < 1.0:
                        raise CliError(EXIT_PARSE, "spec", f"beta out of range: {beta!r}")
                pairs.append((float(beta), float(weight)))
            return KusuokaMixture(tuple(pairs))
        if kind == "explicit":
            support = _require(doc, "support", list, "explicit spec")
            vertices = _require(doc, "vertices", list, "explicit spec")
            hull = doc.get("hull", False)
            if not isinstance(hull, bool):
                raise CliError(EXIT_PARSE, "spec", "explicit spec: 'hull' must be a boolean")
            order = _parse_order(doc.get("p", 2.0), "explicit spec")
            mode = HullMode.CONVEX_HULL if hull else HullMode.FINITE_SET
            generators = GeneratorSet(support, vertices, hull_mode=mode)
            return Explicit(generators, p=order)
    except CliError:
        raise
    except (OTRiskError, TypeError, ValueError) as exc:
        raise CliError(EXIT_PARSE, type(exc).__name__, str(exc)) from exc
    raise CliError(EXIT_PARSE, "spec", f"unknown spec type {kind!r}")


def load_spec(args):
    if getattr(args, "spec_json", None):
        text = args.spec_json
    elif getattr(args, "spec", None):
        try:
            with open(args.spec) as fh:
                text = fh.read()
        except OSError as exc:
            raise CliError(EXIT_PARSE, "io", f"cannot read spec file: {exc}") from exc
    else:
        raise CliError(EXIT_PARSE, "spec", "one of --spec or --spec-json is required")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(EXIT_PARSE, "spec", f"spec is not valid JSON: {exc}") from exc
    return parse_spec(doc)


def spec_echo(spec) -> dict:
    if isinstance(spec, CVaR):
        return {"type": "cvar", "beta": spec.beta}
    if isinstance(spec, HigherMoment):
        return {"type": "higher_moment", "p": spec.p, "c": spec.c}
    if isinstance(spec, KusuokaMixture):
        return {"type": "kusuoka", "atoms": [[b, w] for b, w in spec.atoms]}
    return {
        "type": "explicit",
        "support": spec.generators.support.tolist(),
        "vertices": [row.tolist() for row in spec.generators.vertices],
        "hull": spec.generators.hull_mode is HullMode.CONVEX_HULL,
        "p": "inf" if spec.p is INF else spec.p,
    }


def _solver_options(args) -> SolverOptions:
    try:
        return SolverOptions(
            max_iters=args.max_iters, target_gap=args.target_gap, seed=args.seed
        )
    except OTRiskError as exc:
        raise CliError(EXIT_PARSE, type(exc).__name__, str(exc)) from exc


def _spec_generators(spec) -> GeneratorSet:
    """The generator family behind a spec, for the dual command."""
    if isinstance(spec, CVaR):
        return cvar_target_set(spec.beta)
    if isinstance(spec, KusuokaMixture):
        return GeneratorSet.singleton(spec.image().image_measure)
    if isinstance(spec, Explicit):
        return spec.generators
    raise CliError(
        EXIT_PARSE,
        "spec",
        "the dual command needs a finitely generated family; "
        "higher_moment specs have none",
    )


def _measure_summary(m: DiscreteMeasure) -> dict:
    return {
        "n_atoms": m.n_atoms,
        "mean": m.expectation(),
        "min": float(m.positions[0]),
        "max": float(m.positions[-1]),
    }


def _coupling_summary(coupling, target: DiscreteMeasure) -> dict:
    return {
        "n_atoms": coupling.n_atoms,
        "objective": coupling.objective(),
        "target_positions": target.positions.tolist(),
        "target_weights": target.weights.tolist(),
    }


# ------------------------------------------------------------------ commands


def cmd_eval(args) -> tuple[dict, int]:
    spec = load_spec(args)
    measure = read_samples_csv(args.input, args.snap_atoms)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "eval",
        "spec": spec_echo(spec),
        "input": {"path": args.input, "n_atoms": measure.n_atoms},
        "measure": _measure_summary(measure),
    }
    try:
        if isinstance(spec, HigherMoment):
            value, t_star = higher_moment(measure, spec.p, spec.c)
            t_bar, u_bar, dual_value = higher_moment_certificate(measure, spec.p, spec.c)
            report["value"] = value
            report["certificate"] = {"t_star": t_star, "u_star": u_bar, "dual_value": dual_value}
        else:
            generators = _spec_generators(spec)
            if generators.hull_mode is HullMode.CONVEX_HULL:
                gap = duality_gap_report(measure, generators, _solver_options(args))
                target = generators.mixture_measure(gap.primal_weights)
                report["value"] = gap.primal_lower
                report["status"] = gap.status.value
                report["gap"] = gap.gap
                report["coupling"] = _coupling_summary(gap.primal_coupling, target)
            else:
                value, idx = finite_set_value(measure, generators)
                target = generators.vertex_measure(idx)
                coupling = comonotone_coupling(measure, target)
                report["value"] = value
                report["vertex_index"] = idx
                report["coupling"] = _coupling_summary(coupling, target)
    except OTRiskError as exc:
        raise CliError(EXIT_NUMERIC, type(exc).__name__, str(exc)) from exc
    return report, EXIT_OK


def cmd_dual(args) -> tuple[dict, int]:
    spec = load_spec(args)
    generators = _spec_generators(spec)
    measure = read_samples_csv(args.input, args.snap_atoms)
    try:
        gap = duality_gap_report(measure, generators, _solver_options(args))
    except OTRiskError as exc:
        raise CliError(EXIT_NUMERIC, type(exc).__name__, str(exc)) from exc
    converged = gap.status.value == "converged"
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "dual",
        "spec": spec_echo(spec),
        "input": {"path": args.input, "n_atoms": measure.n_atoms},
        "primal_lower": gap.primal_lower,
        "dual_upper": gap.dual_upper,
        "gap": gap.gap,
        "status": gap.status.value,
        "iterations": dict(gap.iterations),
        "witnesses": {
            "mixture_weights": gap.primal_weights.tolist(),
            "dual_potential": gap.dual_witness.values.tolist(),
            "coupling": {
                "x": gap.primal_coupling.xs.tolist(),
                "y": gap.primal_coupling.ys.tolist(),
                "mass": gap.primal_coupling.masses.tolist(),
            },
        },
    }
    if not converged:
        report["warning"] = "iteration limit reached before the target gap"
    return report, EXIT_OK


def cmd_check(args) -> tuple[dict, int]:
    spec = load_spec(args)
    tol = args.tol if args.tol is not None else default_tolerance(spec)
    pairs = sample_pairs(args.seed, args.instances)
    try:
        axioms = check_axioms(spec, pairs, tol, seed=args.seed + 1)
        bounds = check_bounds(spec, pairs, tol)
    except OTRiskError as exc:
        raise CliError(EXIT_NUMERIC, type(exc).__name__, str(exc)) from exc
    passed = axioms.passed and bounds.passed

    def rows(rep):
        return [
            {"name": c.name, "max_violation": c.max_violation, "witness": c.witness}
            for c in rep.checks
        ]

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "check",
        "spec": spec_echo(spec),
        "seed": args.seed,
        "instances": args.instances,
        "tol": tol,
        "axioms": rows(axioms),
        "bounds": rows(bounds),
        "passed": passed,
    }
    return report, EXIT_OK if passed else EXIT_VIOLATIONS


def cmd_kusuoka(args) -> tuple[dict, int]:
    spec = load_spec(args)
    if not isinstance(spec, KusuokaMixture):
        raise CliError(EXIT_PARSE, "spec", "the kusuoka command expects a kusuoka spec")
    try:
        image = kusuoka_image(spec.atoms)
    except OTRiskError as exc:
        raise CliError(EXIT_NUMERIC, type(exc).__name__, str(exc)) from exc
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "kusuoka",
        "spec": spec_echo(spec),
        "psi_breakpoints": [[t, v] for t, v in image.psi_breaks],
        "image_measure": {
            "positions": image.image_measure.positions.tolist(),
            "weights": image.image_measure.weights.tolist(),
        },
    }
    return report, EXIT_OK


# ---------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otrisk",
        description="Risk measures on discrete distributions via optimal transport.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input):
        if needs_input:
            p.add_argument("--input", required=True, help="CSV of samples")
            p.add_argument(
                "--snap-atoms",
                action="store_true",
                help="merge sample positions closer than 1e-12",
            )
        p.add_argument("--spec", help="path to a JSON spec document")
        p.add_argument("--spec-json", help="inline JSON spec document")
        p.add_argument("--out", help="report path (default: stdout)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--max-iters", type=int, default=None)
        p.add_argument("--target-gap", type=float, default=1e-6)

    p_eval = sub.add_parser("eval", help="evaluate a risk spec on samples")
    common(p_eval, needs_input=True)
    p_eval.set_defaults(handler=cmd_eval)

    p_dual = sub.add_parser("dual", help="certified duality-gap report")
    common(p_dual, needs_input=True)
    p_dual.set_defaults(handler=cmd_dual)

    p_check = sub.add_parser("check", help="audit axioms and bounds on seeded instances")
    common(p_check, needs_input=False)
    p_check.add_argument("--tol", type=float, default=None)
    p_check.add_argument("--instances", type=int, default=1000)
    p_check.set_defaults(handler=cmd_check)

    p_kusuoka = sub.add_parser("kusuoka", help="distortion breakpoints and image measure")
    common(p_kusuoka, needs_input=False)
    p_kusuoka.set_defaults(handler=cmd_kusuoka)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_path = args.out
    try:
        report, code = args.handler(args)
        try:
            text = emit_json(report)
        except NonFiniteValue as exc:
            raise CliError(EXIT_NUMERIC, type(exc).__name__, str(exc)) from exc
    except CliError as exc:
        error_report = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "error": {"kind": exc.kind, "message": str(exc)},
        }
        _write_report(emit_json(error_report) + "\n", out_path)
        return exc.exit_code
    _write_report(text + "\n", out_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
