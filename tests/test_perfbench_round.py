"""Round 0 of the benchmark's in-process workloads, and rounds 0 and 1 of
tower-magnus in one process, with every oracle check.

The benchmark checks each query's output against independent references;
running one round here makes a change that breaks what the benchmark
calls (a renamed function, a dropped export, a wrong value) fail the
tests, not only the benchmark.
"""

import types

import pytest

from conftest import PERFBENCH  # puts perfbench/ on sys.path
from linkhomotopy import homotopy, links, magnus, simplicial, words
import workloads

LAYERS = types.SimpleNamespace(words=words, simplicial=simplicial, magnus=magnus,
                               homotopy=homotopy, links=links)


def assert_rounds_pass_every_check(name, rounds):
    workload = workloads.WORKLOADS[name](PERFBENCH.parent, 7)
    if hasattr(workload, "prepare"):
        workload.prepare(LAYERS)
    for r in rounds:
        checks = 0
        mismatches = []
        for query in workload.round(r):
            for label, got, expected in workload.check(query, workload.run(LAYERS, query)):
                checks += 1
                if got != expected:
                    mismatches.append((label, query))
        assert checks
        assert not mismatches, (r, mismatches[:5])


@pytest.mark.parametrize("name", ["simplicial-identities", "tower-magnus", "classify-wedges"])
def test_round_zero_passes_every_check(name):
    assert_rounds_pass_every_check(name, [0])


def test_tower_magnus_warm_round_passes_every_check():
    # round 1 answers its tower, invisibility and variant queries from the
    # tower levels and cycle answers round 0 left in the process
    assert_rounds_pass_every_check("tower-magnus", [0, 1])
