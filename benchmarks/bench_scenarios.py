"""Every paper table, figure and extension in ``ALL_SCENARIOS``, at FULL scale.

One bench per scenario id runs it exactly once (``rounds=1``: these are
seconds- to minutes-long discrete-event simulations, not
microbenchmarks), prints the paper-vs-measured table, and asserts the
shape checks the scenario records.  ``EXPERIMENTS.md`` is the same
record, regenerated by ``scripts/generate_experiments_md.py``.

    PYTHONPATH=src python -m pytest benchmarks/bench_scenarios.py -k fig_3_1 -s
"""

from __future__ import annotations

import pytest

from repro.experiments.config import FULL
from repro.experiments.scenarios import ALL_SCENARIOS


@pytest.mark.parametrize("name", list(ALL_SCENARIOS))
def bench_scenario(benchmark, name):
    result = benchmark.pedantic(ALL_SCENARIOS[name], args=(FULL,), rounds=1, iterations=1)
    print()
    print(result.render())
    failed = [check for check, ok in result.checks if not ok]
    assert not failed, f"shape checks failed: {failed}"
