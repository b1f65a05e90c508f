"""Pin the canonical output digest of every item the benchmark can check.

Usage, from the repository root::

    python3 bench/pin.py

Pins cover every item of the default seed's rounds, plus the workload's
whole item pool where it is small enough to enumerate.  An item whose
output breaks an invariant or raises an unpinned error is not pinned: the
script reports it and exits 1, because a pin must record a correct answer.
Run it only on a commit whose answers are known good; a later change that
alters any answer then shows as a failed item.
"""
from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import workloads as wl  # noqa: E402


def pin(workload) -> int:
    start = time.perf_counter()
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH_DIR / "out") as tmp:
        state = workload.setup(wl.DEFAULT_SEED, Path(tmp))
        items = {}
        for rnd in state["rounds"]:
            for item in rnd:
                items[item.key] = item
        for item in workload.pool(state):
            items[item.key] = item
        digests = {}
        bad = 0
        for key, item in items.items():
            try:
                out = wl.Outcome(value=workload.run(state, item))
            except wl.PINNED_ERRORS as exc:
                out = wl.Outcome(error=type(exc).__name__)
            problems = workload.invariants(state, item, out)
            if problems:
                bad += 1
                print(f"{workload.name}: not pinned, {key[:160]}: {'; '.join(problems)}")
                continue
            digests[key] = wl.digest(workload.canonical(state, item, out))
    path = wl.PINS_DIR / f"{workload.name}.json"
    wl.PINS_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(
        {"workload": workload.name, "seed": wl.DEFAULT_SEED, "digests": dict(sorted(digests.items()))},
        indent=0,
    ) + "\n")
    print(f"{workload.name}: pinned {len(digests)} items in {time.perf_counter() - start:.1f} s -> {path}")
    return 1 if bad else 0


def main() -> int:
    return max([pin(workload) for workload in wl.WORKLOADS.values()])


if __name__ == "__main__":
    sys.exit(main())
