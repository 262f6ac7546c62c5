"""Span tracing of otrisk's public functions, from outside the program.

``Tracer.install()`` replaces each function named in ``SPANS`` with a
wrapper that records a span (name, start, end, parent) around the call,
in every otrisk module namespace that holds the function, and wraps
``DiscreteMeasure.__init__`` to count atoms; ``uninstall()`` puts the
originals back.  A span's self time is its duration minus the time its
child spans cover.  Functions a later version of otrisk no longer has
are skipped, and their metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# (module, function) pairs that get spans
SPANS = (
    ("cli", "read_samples_csv"),
    ("cli", "emit_json"),
    ("measures", "from_samples"),
    ("measures", "merged_partition"),
    ("transport", "comonotone_coupling"),
    ("transport", "exact_potentials"),
    ("transport", "transport_value"),
    ("transport", "finite_set_value"),
    ("riskmeasures", "evaluate_risk"),
    ("riskmeasures", "kusuoka_image"),
    ("riskmeasures", "cvar"),
    ("riskmeasures", "higher_moment"),
    ("riskmeasures", "higher_moment_certificate"),
    ("verify", "check_axioms"),
    ("verify", "check_bounds"),
    ("verify", "sample_pairs"),
    ("dualsolver", "duality_gap_report"),
    ("dualsolver", "dual_objective"),
)

# emit_json calls itself through its module global; only the outermost
# call of a report is a span
OUTERMOST_ONLY = {"cli.emit_json"}


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self, rows_by_path: dict, record: bool = False):
        self.rows_by_path = rows_by_path  # rows of each generated CSV
        self.record = record  # keep span tuples, not only the totals
        self.spans = []  # (id, parent id, name, start, end)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._stack = []  # [span id, child time] of each open span
        self._next_id = 0
        self._active = Counter()
        self._undo = []

    # ------------------------------------------------------------- spans

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        if name in OUTERMOST_ONLY and self._active[name]:
            return fn(*args, **kwargs)
        self._next_id += 1
        frame = [self._next_id, 0.0]
        parent = self._stack[-1][0] if self._stack else 0
        self._stack.append(frame)
        self._active[name] += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._active[name] -= 1
            self._stack.pop()
            duration = end - start
            self.self_s[name] += duration - frame[1]
            self.counts[name + ".calls"] += 1
            if self._stack:
                self._stack[-1][1] += duration
            if self.record:
                self.spans.append((frame[0], parent, name, start, end))
        self._count(name, args, result)
        return result

    def _count(self, name, args, result):
        if name == "transport.comonotone_coupling":
            self.counts["transport.coupling_atoms"] += int(result.n_atoms)
        elif name == "cli.read_samples_csv":
            self.counts["cli.rows_parsed"] += self.rows_by_path.get(args[0], 0)
        elif name == "cli.emit_json" and not self._active[name]:
            self.counts["cli.report_bytes"] += len(result.encode()) + 1  # and its newline

    # ------------------------------------------------------ installation

    def install(self):
        modules = [
            m for k, m in list(sys.modules.items()) if k == "otrisk" or k.startswith("otrisk.")
        ]
        for mod_name, fn_name in SPANS:
            try:
                original = getattr(importlib.import_module("otrisk." + mod_name), fn_name)
            except (ImportError, AttributeError):
                print(f"trace: otrisk.{mod_name}.{fn_name} not found, skipped", file=sys.stderr)
                continue
            name = f"{mod_name}.{fn_name}"

            @functools.wraps(original)
            def wrapper(*args, _name=name, _fn=original, **kwargs):
                return self.span(_name, _fn, *args, **kwargs)

            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, original))

        measure_cls = getattr(importlib.import_module("otrisk.measures"), "DiscreteMeasure", None)
        if measure_cls is not None:
            init = measure_cls.__init__

            @functools.wraps(init)
            def counting_init(obj, *args, **kwargs):
                init(obj, *args, **kwargs)
                self.counts["measures.atoms_built"] += int(obj.positions.size)

            measure_cls.__init__ = counting_init
            self._undo.append((measure_cls, "__init__", init))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
