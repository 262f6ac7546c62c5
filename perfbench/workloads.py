"""The benchmark's workloads: generated inputs, the operations run on them,
and the checks each operation's report must pass.

A workload's ``prepare(workdir, seed)`` writes its input files and returns
a :class:`Plan`.  Each operation is one ``otrisk`` command line, as a user
would type it; the program sees nothing but the generated files.  The
checks recompute what a report must say through :mod:`reference`, which
never imports otrisk, and regenerate the inputs from the seed when they
run, so the timed phase holds no reference data in memory.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import reference as ref

CVAR = {"type": "cvar", "beta": 0.95}
KUSUOKA = {"type": "kusuoka", "atoms": [[0.5, 0.25], [0.9, 0.5], [0.99, 0.25]]}
HIGHER_MOMENT = {"type": "higher_moment", "p": 2, "c": 1.2}
# the README's two-vertex family, as a finite set
EXPLICIT = {
    "type": "explicit",
    "support": [0, 0.5, 1.5, 4],
    "vertices": [[1 / 3, 0, 2 / 3, 0], [0, 6 / 7, 0, 1 / 7]],
    "hull": False,
}
# the same family as a convex hull: its optimum is an interior mixture
README_HULL = dict(EXPLICIT, hull=True)
# CVaR_0.9's target and the point mass at 1: the value is linear in the
# mixture weight, so the optimum is the first vertex alone
VERTEX_HULL = {
    "type": "explicit",
    "support": [0, 1, 10],
    "vertices": [[0.9, 0, 0.1], [0, 1, 0]],
    "hull": True,
}


@dataclass
class Op:
    """One report: the argv given to ``otrisk.cli.main`` (``--out`` is added
    per repetition) and the check its report must pass."""

    name: str
    argv: list
    check: Callable[[dict], list]


@dataclass
class Plan:
    ops: list
    # rows in each generated CSV, for the parse layer's row count
    rows: dict = field(default_factory=dict)
    # run once after the timed phase; returns a list of problems
    final_check: Callable[[], list] = lambda: []


def _write_spec(workdir, name, spec) -> str:
    path = os.path.join(workdir, name + ".json")
    with open(path, "w") as fh:
        json.dump(spec, fh)
    return path


def _close(name, got, want, tol) -> list:
    if not (isinstance(got, (int, float)) and abs(got - want) <= tol):
        return [f"{name}: report has {got!r}, reference {want!r} (tolerance {tol:.3g})"]
    return []


def _write_csv(path, lines_chunks, header=None):
    with open(path, "w") as fh:
        if header:
            fh.write(header + "\n")
        for lines in lines_chunks:
            fh.write("\n".join(lines))
            fh.write("\n")


# ---------------------------------------------------------------- eval_csv_1e6

ROWS = 1_000_000
CHUNK = 100_000


def _t4_chunks(seed):
    rng = np.random.default_rng([seed, 101])
    for _ in range(ROWS // CHUNK):
        yield rng.standard_t(4, CHUNK)


def _grid_chunks(seed):
    """P&L in thousandths (integers) with integer weights 1..9."""
    rng = np.random.default_rng([seed, 102])
    for _ in range(ROWS // CHUNK):
        yield np.rint(rng.normal(0.0, 2000.0, CHUNK)).astype(np.int64), rng.integers(
            1, 10, CHUNK
        )


def _t4_sample(seed) -> ref.Sample:
    return ref.Sample(np.concatenate(list(_t4_chunks(seed))))


def _grid_sample(seed) -> ref.Sample:
    ks, ws = zip(*_grid_chunks(seed))
    # k / 1000 is the double nearest the decimal written to the file
    return ref.Sample(np.concatenate(ks) / 1000.0, np.concatenate(ws))


def _measure_problems(report, sample) -> list:
    problems = []
    if report.get("command") != "eval":
        problems.append(f"command is {report.get('command')!r}")
    distinct = int(np.count_nonzero(np.diff(sample.x))) + 1
    problems += _close("input.n_atoms", report["input"]["n_atoms"], distinct, 0)
    summary = report["measure"]
    problems += _close("measure.min", summary["min"], float(sample.x[0]), 0)
    problems += _close("measure.max", summary["max"], float(sample.x[-1]), 0)
    problems += _close(
        "measure.mean", summary["mean"], sample.mean(), ref.transport_budget(sample, 1.0, 1)
    )
    return problems


def _transport_problems(report, value, tol) -> list:
    problems = _close("value", report["value"], value, tol)
    problems += _close("coupling.objective", report["coupling"]["objective"], value, tol)
    return problems


def prepare_eval_csv_1e6(workdir, seed) -> Plan:
    t4 = os.path.join(workdir, "pnl_t4.csv")
    grid = os.path.join(workdir, "pnl_grid_weighted.csv")
    _write_csv(t4, (["%.17g" % v for v in x.tolist()] for x in _t4_chunks(seed)))
    _write_csv(
        grid,
        (
            ["%.3f,%d" % pair for pair in zip((k / 1000.0).tolist(), w.tolist())]
            for k, w in _grid_chunks(seed)
        ),
        header="pnl,weight",
    )
    samples = {
        t4: functools.cache(lambda: _t4_sample(seed)),
        grid: functools.cache(lambda: _grid_sample(seed)),
    }

    def check_cvar(report):
        s = samples[t4]()
        beta = CVAR["beta"]
        tol = ref.transport_budget(s, 1.0 / (1.0 - beta), 2)
        return _measure_problems(report, s) + _transport_problems(report, s.cvar(beta), tol)

    def check_kusuoka(report):
        s = samples[grid]()
        atoms = KUSUOKA["atoms"]
        ymax = math.fsum(w / (1.0 - b) for b, w in atoms)
        tol = ref.transport_budget(s, ymax, len(atoms) + 1)
        return _measure_problems(report, s) + _transport_problems(
            report, ref.kusuoka_value(s, atoms), tol
        )

    def check_explicit(report):
        s = samples[grid]()
        values = ref.vertex_values(s, EXPLICIT["support"], EXPLICIT["vertices"])
        tol = ref.transport_budget(s, max(EXPLICIT["support"]), len(EXPLICIT["support"]))
        best = float(values.max())
        problems = _measure_problems(report, s) + _transport_problems(report, best, tol)
        # a vertex within the budget of the best is an honest argmax too
        idx = report.get("vertex_index")
        if idx not in range(values.size) or values[idx] < best - 2 * tol:
            problems.append(f"vertex_index {idx!r}, reference values {values}")
        return problems

    def check_higher_moment(report):
        s = samples[t4]()
        p, c = HIGHER_MOMENT["p"], HIGHER_MOMENT["c"]
        value = report["value"]
        cert = report["certificate"]
        problems = _measure_problems(report, s)
        ts = ref.hm_grid(s)
        grid_values = ref.hm_objective(s, p, c, ts)
        slack = ref.hm_budget(s, ts, grid_values) + ref.hm_resolution(s, c)
        if not np.all(value <= grid_values + slack):
            problems.append(f"value {value!r} above the objective on the grid")
        at_t = float(ref.hm_objective(s, p, c, [cert["t_star"]])[0])
        tol = float(ref.hm_budget(s, cert["t_star"], at_t))
        problems += _close("value vs objective at t_star", value, at_t, tol)
        problems += _close("certificate.dual_value", cert["dual_value"], value, tol)
        if not s.mean() - tol <= value <= float(s.x[-1]) + tol:
            problems.append(f"value {value!r} outside [mean, max]")
        return problems

    specs = {
        name: _write_spec(workdir, name, spec)
        for name, spec in (
            ("cvar", CVAR),
            ("kusuoka", KUSUOKA),
            ("higher_moment", HIGHER_MOMENT),
            ("explicit", EXPLICIT),
        )
    }

    def op(name, path, spec, check):
        return Op(name, ["eval", "--input", path, "--spec", specs[spec]], check)

    return Plan(
        ops=[
            op("eval_t4_cvar", t4, "cvar", check_cvar),
            op("eval_t4_higher_moment", t4, "higher_moment", check_higher_moment),
            op("eval_grid_kusuoka", grid, "kusuoka", check_kusuoka),
            op("eval_grid_explicit", grid, "explicit", check_explicit),
        ],
        rows={t4: ROWS, grid: ROWS},
    )


# ----------------------------------------------------------------- audit_small

AUDIT_INSTANCES = 200
AUDIT_SEEDS = 2
AUDIT_SUBSET = 3  # instance pairs per report re-evaluated against the references

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """The splitmix64 stream that ``otrisk check`` draws its instances from
    (documented in otrisk.verify), written out again here."""

    def __init__(self, seed):
        self.state = int(seed) & _MASK64

    def raw(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform_in(self, lo, hi):
        return lo + (hi - lo) * ((self.raw() >> 11) * 2.0**-53)


def audit_pairs(seed, count, max_len=12, scale=10.0):
    gen = SplitMix64(seed)
    pairs = []
    for _ in range(count):
        n = 1 + gen.raw() % max_len
        x1 = np.array([gen.uniform_in(-scale, scale) for _ in range(n)])
        x2 = np.array([gen.uniform_in(-scale, scale) for _ in range(n)])
        pairs.append((x1, x2))
    return pairs


def _reference_risk(spec, vec):
    """(value, lower, upper): the reference value of a family on an
    equal-weight vector, with the interval an honest evaluation must hit."""
    s = ref.Sample(vec)
    kind = spec["type"]
    if kind == "cvar":
        value = s.cvar(spec["beta"])
        tol = ref.transport_budget(s, 1.0 / (1.0 - spec["beta"]), 2)
    elif kind == "kusuoka":
        value = ref.kusuoka_value(s, spec["atoms"])
        ymax = math.fsum(w / (1.0 - b) for b, w in spec["atoms"])
        tol = ref.transport_budget(s, ymax, len(spec["atoms"]) + 1)
    elif kind == "explicit":
        value = float(ref.vertex_values(s, spec["support"], spec["vertices"]).max())
        tol = ref.transport_budget(s, max(spec["support"]), len(spec["support"]))
    else:
        (lower, upper), t = ref.hm_minimum_bounds(s, spec["p"], spec["c"])
        tol = float(ref.hm_budget(s, t, upper)) + ref.hm_resolution(s, spec["c"])
        return upper, lower - tol, upper + tol
    return value, value - tol, value + tol


def prepare_audit_small(workdir, seed) -> Plan:
    draws = np.random.default_rng([seed, 201]).integers(0, 2**31, AUDIT_SEEDS)
    check_seeds = [int(s) for s in draws]
    families = (
        ("cvar", CVAR),
        ("kusuoka", KUSUOKA),
        ("higher_moment", HIGHER_MOMENT),
        ("explicit", EXPLICIT),
    )
    ops = []
    subset = []
    for fam, spec in families:
        path = _write_spec(workdir, fam, spec)
        for check_seed in check_seeds:

            def check(report, check_seed=check_seed):
                problems = []
                if report.get("passed") is not True:
                    problems.append("audit did not pass")
                if report.get("seed") != check_seed or report.get("instances") != AUDIT_INSTANCES:
                    problems.append("report echoes the wrong seed or instance count")
                rows = report.get("axioms", []) + report.get("bounds", [])
                if len(rows) != 8:
                    problems.append(f"{len(rows)} audit rows, expected 8")
                for row in rows:
                    if not 0.0 <= row["max_violation"] <= report["tol"]:
                        problems.append(f"{row['name']}: violation {row['max_violation']!r}")
                return problems

            argv = ["check", "--spec", path, "--instances", str(AUDIT_INSTANCES)]
            ops.append(Op(f"check_{fam}_{check_seed}", argv + ["--seed", str(check_seed)], check))
            picks = np.random.default_rng([seed, 202, len(subset)]).choice(
                AUDIT_INSTANCES, AUDIT_SUBSET, replace=False
            )
            subset.append((spec, check_seed, sorted(int(i) for i in picks)))

    def final_check():
        """otrisk's evaluator, the one the audit runs, against the
        references on a seeded subset of the audited vectors."""
        import otrisk
        import otrisk.cli

        problems = []
        for spec, check_seed, picks in subset:
            family = otrisk.cli.parse_spec(spec)
            pairs = audit_pairs(check_seed, AUDIT_INSTANCES)
            for i in picks:
                for vec in pairs[i]:
                    got = otrisk.evaluate_risk(family, otrisk.from_samples(vec))
                    want, lo, hi = _reference_risk(spec, vec)
                    if not lo <= got <= hi:
                        problems.append(
                            f"{spec['type']} seed {check_seed} pair {i}: evaluator {got!r}, "
                            f"reference {want!r} in [{lo!r}, {hi!r}]"
                        )
        return problems

    return Plan(ops=ops, final_check=final_check)


# -------------------------------------------------------------------- hull_dual

# Fixed inputs, not drawn from the seed.  The first ends "iter_limit" on
# every run (gap 9.5e-4 against the 1e-6 target), a solver fault kept in
# the workload on purpose; the other two converge.
README_HULL_SAMPLES = (
    ("readme_n200_rng3", 3, 200),
    ("readme_n1000_rng0", 0, 1000),
    ("readme_n2000_rng1", 1, 2000),
)
# drawn from the seed: the single-vertex family converges on every draw
VERTEX_HULL_SIZES = (100, 2000)


def _hull_check(spec, values):
    support = np.asarray(spec["support"], dtype=float)
    vertices = np.asarray(spec["vertices"], dtype=float)

    @functools.cache
    def reference():
        sample = ref.Sample(values)
        hull_value, _ = ref.hull_value_two_vertices(sample, support, vertices)
        return sample, hull_value

    def check(report):
        if report.get("command") != "dual":
            return [f"command is {report.get('command')!r}"]
        sample, hull_value = reference()
        tol = ref.transport_budget(sample, float(support.max()), support.size)
        exact = 64 * ref.EPS * (1.0 + sample.scale * float(support.max()))
        lower, upper = report["primal_lower"], report["dual_upper"]
        wit = report["witnesses"]
        lam = np.asarray(wit["mixture_weights"], dtype=float)
        problems = []
        if not lower - tol <= hull_value <= upper + tol:
            problems.append(f"hull value {hull_value!r} outside [{lower!r}, {upper!r}]")
        problems += _close(
            "dual_upper vs the dual objective of the reported potential",
            upper,
            ref.dual_objective(sample, support, vertices, wit["dual_potential"]),
            exact,
        )
        mixture = lam @ vertices
        mixture[mixture < 1e-15] = 0.0
        mixture /= mixture.sum()
        problems += _close(
            "primal_lower vs the transport value of the reported weights",
            lower,
            float(sample.pairing(support, np.cumsum(mixture))[0]),
            tol,
        )
        problems += _close("gap", report["gap"], upper - lower, exact)
        # the coupling's marginals are the sample and that mixture
        x, y, mass = (np.asarray(wit["coupling"][k], dtype=float) for k in ("x", "y", "mass"))
        mass_tol = 4 * (sample.n + support.size) * ref.EPS
        ux, inv = np.unique(x, return_inverse=True)
        sx, counts = np.unique(sample.x, return_counts=True)
        if ux.shape != sx.shape or not np.array_equal(ux, sx):
            problems.append("coupling x support is not the sample")
        elif np.abs(np.bincount(inv, weights=mass) - counts / sample.n).max() > mass_tol:
            problems.append("coupling x marginal is not the sample")
        k = np.minimum(np.searchsorted(support, y), support.size - 1)
        if not np.array_equal(support[k], y):
            problems.append("coupling y values are off the support")
        elif np.abs(np.bincount(k, weights=mass, minlength=support.size) - mixture).max() > mass_tol:
            problems.append("coupling y marginal is not the mixture")
        return problems

    return check


def prepare_hull_dual(workdir, seed) -> Plan:
    ops, rows = [], {}
    specs = {
        "readme_hull": _write_spec(workdir, "readme_hull", README_HULL),
        "vertex_hull": _write_spec(workdir, "vertex_hull", VERTEX_HULL),
    }

    def add(name, spec_name, spec, values):
        path = os.path.join(workdir, name + ".csv")
        _write_csv(path, [["%.17g" % v for v in values.tolist()]])
        rows[path] = values.size
        argv = ["dual", "--input", path, "--spec", specs[spec_name]]
        ops.append(Op("dual_" + name, argv, _hull_check(spec, values)))

    for name, rng_seed, n in README_HULL_SAMPLES:
        values = np.random.default_rng(rng_seed).normal(0.0, 3.0, n)
        add(name, "readme_hull", README_HULL, values)
    for n in VERTEX_HULL_SIZES:
        values = np.random.default_rng([seed, 301, n]).normal(0.0, 3.0, n)
        add(f"vertex_n{n}", "vertex_hull", VERTEX_HULL, values)
    return Plan(ops=ops, rows=rows)


WORKLOADS = {
    "eval_csv_1e6": prepare_eval_csv_1e6,
    "audit_small": prepare_audit_small,
    "hull_dual": prepare_hull_dual,
}
