"""The traced run's counter block repeats exactly for one seed.

Run from the repository root with ``python3 -m pytest perfbench/test_counters.py``
or ``python3 perfbench/test_counters.py``.  Each workload's traced run is
made twice with one seed and a short run length; the count-type per-layer
metrics (EVE work, planner groups, cache hits) must be identical, because
they are folded over fixed, seeded query prefixes rather than over however
much the timed loop reached.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
SEED = 3
SECONDS = 2


def counter_block(workload: str) -> dict:
    completed = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", "1"],
        stdout=subprocess.PIPE, text=True, timeout=300, check=True,
    )
    prefix = f"{workload} counters "
    for line in completed.stdout.splitlines():
        if line.startswith(prefix):
            return json.loads(line[len(prefix):])
    raise AssertionError(f"no counter block in the {workload} traced run")


@pytest.mark.parametrize("workload", ["lib-sparse", "batch-dense", "http-mixed"])
def test_counter_block_repeats(workload: str) -> None:
    first = counter_block(workload)
    assert any(first.values()), first
    assert counter_block(workload) == first


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
