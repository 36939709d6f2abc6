"""Round 0 of the benchmark's in-process workloads, with every oracle check.

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


@pytest.mark.parametrize("name", ["simplicial-identities", "tower-magnus", "classify-wedges"])
def test_round_zero_passes_every_check(name):
    workload = workloads.WORKLOADS[name](PERFBENCH.parent, 7)
    if hasattr(workload, "prepare"):
        workload.prepare(LAYERS)
    checks = 0
    mismatches = []
    for query in workload.round(0):
        for label, got, expected in workload.check(query, workload.run(LAYERS, query)):
            checks += 1
            if got != expected:
                mismatches.append((label, query))
    assert checks
    assert not mismatches, mismatches[:5]
