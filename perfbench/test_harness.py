"""Tests of the benchmark's tracer and input regeneration against otrisk.

    python3 -m pytest perfbench
"""

import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

import otrisk  # noqa: E402
import otrisk.cli  # noqa: E402
import otrisk.transport  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import audit_pairs  # noqa: E402


def test_audit_pairs_are_the_ones_check_draws():
    ours = audit_pairs(465643608, 50)
    theirs = otrisk.sample_pairs(465643608, 50)
    for (a1, a2), (b1, b2) in zip(ours, theirs):
        assert np.array_equal(a1, b1) and np.array_equal(a2, b2)


def test_tracer_self_time_counts_and_uninstall():
    original = otrisk.transport.from_samples
    tracer = Tracer({}, record=True)
    tracer.install()
    try:
        assert otrisk.transport.from_samples is not original
        m = otrisk.from_samples([1.0, 2.0, 3.0])
        r = otrisk.point_mass(1.0)
        otrisk.comonotone_coupling(m, r)
        text = otrisk.cli.emit_json({"a": [1.0, 2.0], "b": {"c": "d"}})
    finally:
        tracer.uninstall()
    assert otrisk.transport.from_samples is original
    assert tracer.counts["cli.emit_json.calls"] == 1  # nested calls are not spans
    assert tracer.counts["cli.report_bytes"] == len(text) + 1
    assert tracer.counts["transport.coupling_atoms"] == 3
    # the coupling builds its two marginals through from_samples
    assert tracer.counts["measures.from_samples.calls"] == 3
    assert tracer.counts["measures.atoms_built"] == 3 + 1 + 3 + 1
    by_id = {s[0]: s for s in tracer.spans}
    coupling = next(s for s in tracer.spans if s[2] == "transport.comonotone_coupling")
    children = [s for s in tracer.spans if s[1] == coupling[0]]
    assert {s[2] for s in children} == {"measures.merged_partition", "measures.from_samples"}
    covered = sum(s[4] - s[3] for s in children)
    assert tracer.self_s["transport.comonotone_coupling"] == coupling[4] - coupling[3] - covered
    assert all(s[1] == 0 or s[1] in by_id for s in tracer.spans)
