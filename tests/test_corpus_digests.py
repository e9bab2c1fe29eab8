"""Every algorithm's reports on the benchmark's seed-5 corpora, checked
against committed digests.

The bundled goldens cover 8 entries and 2 rules; the three seed-5 corpora
cover 300 entries and 24 rules. The corpora are written with
``bench/workloads.py``, which this test only reads, into a temporary
directory. A digest changes only with a behaviour change: regenerate the
digests with ``tools/regen_goldens.py`` and say why in CHANGES.md.
"""

import json

import pytest

from corpus_digests import DIGESTS, REGENERATE, WORKLOADS, workload_digests


@pytest.mark.parametrize("workload", WORKLOADS)
def test_reports_and_fallbacks_match_committed_digests(tmp_path, workload):
    committed = json.loads(DIGESTS.read_text(encoding="utf-8"))[workload]
    fresh = workload_digests(workload, tmp_path)
    changed = sorted(
        algorithm
        for algorithm in committed.keys() | fresh.keys()
        if committed.get(algorithm) != fresh.get(algorithm)
    )
    assert not changed, (
        f"{workload}: the reports or fallback counts of {', '.join(changed)} changed; "
        f"after an intentional behaviour change, run {REGENERATE}"
    )
