"""Golden page IO, answers and footprint of the paper's workload-mix runs.

``workload_mix_runs(ExperimentScale(0.01))`` is the set of runs behind
Figures 9-12 (``stripes-bench fig11 --scale 0.01``): the 500K-uniform
workload scaled to 1 %, replayed at the 80-20, 50-50 and 20-80
update/query mixes through STRIPES and the TPR*-tree over the paper's
2,048-page pool scaled with the data.  The counts below pin the paper's
cost unit -- physical page reads and writes per phase -- plus the number
of answers and the pages each index ends up using.  A change to node
decoding, caching or page accounting must leave every one unchanged;
a change that moves them on purpose re-records them with a parent ->
change table.

The runs take ~15 s, so the module is marked ``slow``: the tier-1 suite
deselects it and a gating CI job runs it with ``-m slow``.
"""

from __future__ import annotations

import pytest

from repro.bench.experiments import ExperimentScale, workload_mix_runs

pytestmark = pytest.mark.slow

#: {mix: {index: (update reads, update writes, query reads, query writes,
#: query hits, pages used)}}
GOLDEN = {
    "80-20": {"STRIPES": (655, 177, 2022, 571, 1366, 139),
              "TPR*": (322, 192, 283, 175, 1366, 69)},
    "50-50": {"STRIPES": (401, 56, 5006, 429, 3318, 137),
              "TPR*": (191, 53, 662, 204, 3318, 69)},
    "20-80": {"STRIPES": (160, 2, 7956, 209, 5639, 137),
              "TPR*": (80, 7, 1056, 120, 5639, 69)},
}


@pytest.fixture(scope="module")
def runs():
    return workload_mix_runs(ExperimentScale(0.01))


def test_mixes_and_indexes(runs):
    assert {mix: sorted(per) for mix, per in runs.items()} == \
        {mix: sorted(per) for mix, per in GOLDEN.items()}


@pytest.mark.parametrize("mix,index", [
    (mix, index) for mix, per in GOLDEN.items() for index in per])
def test_io_answers_and_pages(runs, mix, index):
    result = runs[mix][index]
    assert (result.updates.physical_reads, result.updates.physical_writes,
            result.queries.physical_reads, result.queries.physical_writes,
            result.query_hits, result.pages_used) == GOLDEN[mix][index]
