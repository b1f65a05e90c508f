"""Benchmark harness for superroots: four exact workloads, closed loop.

Usage, from the repository root::

    python3 bench/run.py                      # every workload, each in its own process
    python3 bench/run.py --workload zeta_sweep --seed 1 --trace 0

One process, one thread, one item at a time: every caller of this library
waits for its exact answer, so the load is a closed loop with one client.
A run sets up (imports, systems, decomposition, item generation) several
times and keeps the median, then executes whole rounds of items until the
timed wall time reaches ``--seconds`` (by default ``run_seconds`` of
``BENCHMARK.json``).  Every item's output is checked against its pinned
digest (``bench/pins``) and against invariants that hold for any seed.

The speed of a shared host drifts: identical work takes up to half again
as long from one second to the next, in process time as in wall time.  So
``--trace 0`` also times a fixed pure-Python reference loop that never
touches the library, after every item and during every set-up, and reports
times in *reference seconds*: wall seconds scaled to a host on which one
reference call takes ``REF_CALL_S``.  A change to the library moves them
as it moves wall time; a change in host speed cancels.  Raw wall figures
go to the run record beside them.  ``item_p50_ms`` and ``item_tail_ms``
are Harrell-Davis percentile estimates (see ``percentile``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every item
twice, once untraced and once under the tracer (``bench/tracer.py``), and
prints the per-layer metrics and the tracer's overhead.
The last line of standard output is one JSON object; a run record and, for
traced runs, the spans are written to ``bench/out``.
"""
from __future__ import annotations

import argparse
import gc
import gzip
import importlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
#: fewest set-ups a run makes; more while they have taken under SETUP_MIN_S
SETUP_REPS = 3
SETUP_MIN_S = 0.5
SETUP_MAX_REPS = 25
IMPORT_REPS = 7
MIN_TAIL_BEYOND = 10
#: midpoint-rule steps per order statistic in ``percentile``
HD_STEPS = 8
#: nominal duration of one reference call; defines the reference second
REF_CALL_S = 0.001
#: reference time spent after each item, as a share of the item's own time
REF_SHARE = 0.05
#: reference time behind the host speed of one import or set-up: as long as
#: it took, within these limits
REF_MIN_S = 0.02
REF_SETUP_S = 0.1
#: interval of the reference calls sampled during a set-up
SAMPLE_EVERY_S = 0.05
NAMES = ["zeta_sweep", "zeta_rank2", "closure_scans", "cli_reports"]
#: Per-layer metrics of the traced run's JSON line (the run record keeps all).
#: The end-to-end metric each layer should move, and where:
#:   zeta.select_base.*, construct_zeta, basefind.*, linalg.solve.per_select_base
#:       -> items_per_s, item_tail_ms on zeta_rank2; little on zeta_sweep
#:   zeta.verify_zeta.*, LinearFunctional.value.*, linalg.solve.per_value
#:       -> items_per_s, item_p50_ms on zeta_sweep; little on zeta_rank2
#:   subsets.decompose.*, closure_violations.* -> item_tail_ms on closure_scans,
#:       setup_s on the zeta workloads; check_parabolic, component_parabolic -> zeta
#:   shadows.*, finite.*, linalg.rank/det -> items_per_s, item_p50_ms on closure_scans
#:   affine.*, tables.*, cli.* -> item_p50_ms on cli_reports
#:   roots.*, intsets.* (counts only) -> items_per_s on closure_scans and zeta_sweep,
#:       and must not worsen cli_reports (parse/format side of Root)
#:   trace.* is the cost of tracing, not of a layer
PER_LAYER = [
    "zeta.select_base.calls", "zeta.select_base.busy_s", "zeta.select_base.self_s",
    "zeta.select_base.rejected_frac", "zeta.construct_zeta.busy_s",
    "zeta.verify_zeta.busy_s", "zeta.verify_zeta.self_s",
    "zeta.LinearFunctional.value.calls", "zeta.LinearFunctional.value.busy_s",
    "linalg.solve.calls", "linalg.solve.self_s", "linalg.solve.per_value",
    "linalg.solve.per_select_base", "linalg.rank.calls", "linalg.det.calls",
    "basefind.find_base.calls", "basefind.find_base.busy_s",
    "basefind.highest_root.calls", "basefind.highest_root.busy_s",
    "subsets.decompose.calls", "subsets.decompose.busy_s",
    "subsets.RootSubset.closure_violations.calls", "subsets.RootSubset.closure_violations.busy_s",
    "subsets.check_parabolic.busy_s", "subsets.component_parabolic.busy_s",
    "shadows.validate_shadow.calls", "shadows.validate_shadow.busy_s",
    "shadows.validate_shadow.self_s", "shadows.induce_from_functional.busy_s",
    "finite.check_supersystem_axioms.calls", "finite.check_supersystem_axioms.busy_s",
    "finite.root_string.calls", "finite.root_string.busy_s",
    "affine.build_affine.calls", "affine.build_affine.busy_s",
    "affine.AffineRootSystem.classify.calls", "affine.AffineRootSystem.export.busy_s",
    "affine.AffineRootSystem.format.calls", "affine.AffineRootSystem.format.busy_s",
    "tables.classification_report.busy_s", "cli.main.calls", "cli.main.self_s",
    "cli.parse_root_expr.calls",
    "roots.Root.add.calls", "roots.Root.neg.calls", "roots.Root.scale.calls",
    "roots.Root.hash.calls", "roots.cartan_integer.calls", "intsets.IntegerSet.ops.calls",
    "trace.spans", "trace.overhead_frac",
]


def _import_library():
    """Import the library ``IMPORT_REPS`` times, afresh each time:
    (tracer, workloads, wall seconds and reference seconds of each import).

    Only the library's own modules are dropped between imports, so an
    outside module it loads is paid for in the first import only."""
    if not (ROOT / "src" / "superroots" / "__init__.py").is_file():
        sys.exit(f"bench: no library sources under {ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    walls, refs = [], []
    for _ in range(IMPORT_REPS):
        for name in [n for n in sys.modules if n.partition(".")[0] == "superroots"]:
            del sys.modules[name]
        start = time.perf_counter()
        importlib.import_module("superroots.cli")
        walls.append(time.perf_counter() - start)
        refs.append(to_reference(walls[-1]))
    import tracer
    import workloads

    return tracer, workloads, walls, refs


def run_seconds() -> float:
    """The run length every measurement uses, from ``BENCHMARK.json``."""
    return float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])


def reference_call():
    """Fixed pure-Python work like the library's: rationals, tuples, dicts, sets."""
    acc, seen, small = Fraction(0), {}, set()
    for i in range(1, 120):
        key = (Fraction(i, i + 3), i % 7, -i)
        acc += key[0] * Fraction(3, 2) - Fraction(i % 5, 7)
        seen[key] = seen.get(key[1:], 0) + 1
        small = {(j, i % 3) for j in range(i % 9)}
    return acc, len(seen), len(small)


def reference(budget_s: float) -> tuple[int, float]:
    """Reference calls until ``budget_s`` has passed (at least one): (calls, seconds).

    The collector is off meanwhile, so garbage the library left behind is
    collected, and charged, during the library's own next call."""
    gc.disable()
    try:
        calls, start = 0, time.perf_counter()
        while True:
            reference_call()
            calls += 1
            elapsed = time.perf_counter() - start
            if elapsed >= budget_s:
                return calls, elapsed
    finally:
        gc.enable()


def speed_factor(calls: int, elapsed: float) -> float:
    """Reference seconds per wall second at the host's measured speed."""
    return REF_CALL_S * calls / elapsed


def to_reference(wall: float, calls: int = 0, spent: float = 0.0) -> float:
    """``wall`` seconds of one call that cannot be cut into items, in
    reference seconds.  The host speed comes from ``calls`` reference calls
    sampled while it ran, which took ``spent`` seconds, topped up right
    after it to as long as the call took, within ``REF_MIN_S`` and
    ``REF_SETUP_S``."""
    more_calls, more_spent = reference(min(max(wall, REF_MIN_S), REF_SETUP_S) - spent)
    return wall * speed_factor(calls + more_calls, spent + more_spent)


class SampledSpeed:
    """Host speed sampled while a long call runs, for a call that cannot be
    cut into items: a timer signal every ``SAMPLE_EVERY_S`` runs one
    reference call in the main thread, between the call's own bytecodes.
    ``spent`` is the wall time those reference calls took."""

    def __enter__(self):
        self.calls, self.spent = 0, 0.0
        self.previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)

    def _sample(self, signum, frame):
        calls, elapsed = reference(0.0)
        self.calls += calls
        self.spent += elapsed


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Runner:
    """Executes items, times each call and checks each output."""

    def __init__(self, wl, workload, state, seed, pins, tracer=None, measure_speed=False):
        self.wl = wl
        self.workload = workload
        self.state = state
        self.seed = seed
        self.pins = pins
        self.tracer = tracer
        self.measure_speed = measure_speed
        self.times: list[float] = []
        #: reference (calls, seconds) after each item, when measuring speed
        self.refs: list[tuple[int, float]] = []
        #: len(times) at the end of each round
        self.round_ends: list[int] = []
        self.failed = 0
        self.failures: list[str] = []
        self.histogram: dict[str, int] = {}
        self.pinned_checked = 0
        self.unpinned = 0

    def run_item(self, item, item_id: int) -> None:
        Outcome = self.wl.Outcome
        tracer = self.tracer
        if tracer is not None:
            tracer.item = item_id
            tracer.install()
        start = time.perf_counter()
        try:
            out = Outcome(value=self.workload.run(self.state, item))
        except self.wl.PINNED_ERRORS as exc:
            out = Outcome(error=type(exc).__name__)
        except Exception:
            out = Outcome(unexpected=traceback.format_exc(limit=3))
        elapsed = time.perf_counter() - start
        self.times.append(elapsed)
        if tracer is not None:
            tracer.uninstall()
        if self.measure_speed:
            self.refs.append(reference(REF_SHARE * elapsed))
        self.check(item, out)

    def check(self, item, out) -> None:
        problems = []
        if out.unexpected:
            problems.append(f"raised {out.unexpected.strip().splitlines()[-1]}")
            label = "unexpected"
        else:
            try:
                label = self.workload.label(item, out)
                got = self.wl.digest(self.workload.canonical(self.state, item, out))
                want = self.pins.get(item.key)
                if want is not None:
                    self.pinned_checked += 1
                    if got != want:
                        problems.append(f"digest {got} != pinned {want}")
                elif self.seed == self.wl.DEFAULT_SEED:
                    problems.append("no pinned digest for an item of the pinned seed")
                else:
                    self.unpinned += 1
                problems.extend(self.workload.invariants(self.state, item, out))
            except Exception as exc:  # output of the wrong shape is a failed item
                label = "check_raised"
                problems.append(f"check raised {type(exc).__name__}: {exc}")
        self.histogram[label] = self.histogram.get(label, 0) + 1
        if problems:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{item.key[:160]}: {'; '.join(problems)}")

def run_rounds(runners, rounds, seconds: float, min_rounds: int = 1):
    """Whole rounds, cycling through the list, until the first runner has
    ``seconds`` of timed wall and at least ``min_rounds`` rounds ran.

    With two runners every item runs under both, in alternating order, so
    neither side always meets the caches the other one warmed."""
    round_walls: list[float] = []
    item_id = 0
    while True:
        before = len(runners[0].times)
        for item in rounds[len(round_walls) % len(rounds)]:
            for runner in runners if item_id % 2 == 0 else runners[::-1]:
                runner.run_item(item, item_id)
            item_id += 1
        for runner in runners:
            runner.round_ends.append(len(runner.times))
        round_walls.append(sum(runners[0].times[before:]))
        if sum(round_walls) >= seconds and len(round_walls) >= min_rounds:
            return round_walls


def tail_percentile(min_items: int) -> float:
    """Highest percentile with at least ten items beyond it in every run.

    Runs stop at a round boundary once ``--seconds`` have passed, so their
    item counts differ; a percentile fixed by the smallest count a run can
    have keeps the tail comparable between runs."""
    return 100.0 * (1 - MIN_TAIL_BEYOND / min_items)


def percentile(times: list[float], pct: float) -> float:
    """Harrell-Davis estimate of a percentile: the mean of the order
    statistics weighted by the Beta((n+1)p, (n+1)(1-p)) distribution.

    Item costs come in groups, one per kind of cell, with gaps between
    groups.  A single order statistic next to a gap jumps across it when
    noise reorders two items; this weighted mean moves by one item's
    share instead."""
    ordered = sorted(times)
    n, p = len(ordered), pct / 100
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    if b <= 0:
        return ordered[-1]
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = HD_STEPS * n
    # midpoint rule for the Beta mass of each interval ((i-1)/n, i/n]
    weights = [0.0] * n
    for k in range(steps):
        x = (k + 0.5) / steps
        weights[k // HD_STEPS] += math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
    total = sum(weights)
    return sum(w * t for w, t in zip(weights, ordered)) / total


def reference_times(runner) -> list[float]:
    """Each item's time in reference seconds, scaled by its round's speed."""
    out, begin = [], 0
    for end in runner.round_ends:
        calls = sum(c for c, _ in runner.refs[begin:end])
        spent = sum(s for _, s in runner.refs[begin:end])
        factor = speed_factor(calls, spent)
        out.extend(t * factor for t in runner.times[begin:end])
        begin = end
    return out


def timed_setup(workload, seed: int, min_reps: int, workdir: Path):
    """Set up at least ``min_reps`` times and until ``SETUP_MIN_S`` of
    set-up has run, at most ``SETUP_MAX_REPS`` times: (state, wall seconds,
    reference seconds) per set-up.

    A long set-up is sampled for host speed while it runs; the sampled
    calls' own time is not counted in it.  The previous state is dropped
    before the next set-up, so the peak resident set holds one set-up, not
    two."""
    walls, refs = [], []
    state = None
    while len(walls) < min_reps or (sum(walls) < SETUP_MIN_S and len(walls) < SETUP_MAX_REPS):
        state = None
        with SampledSpeed() as sampled:
            start = time.perf_counter()
            state = workload.setup(seed, workdir)
        walls.append(time.perf_counter() - start - sampled.spent)
        refs.append(to_reference(walls[-1], sampled.calls, sampled.spent))
    return state, walls, refs


def layer_metrics(tr, spans, counts, wall_untraced, wall_traced) -> dict[str, float]:
    stats = tr.layer_stats(spans)

    def get(name, field):
        return stats.get(name, {}).get(field, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    out: dict[str, float] = {}
    for name in {metric for _, _, metric, mode in tr.TARGETS if mode == tr.SPAN}:
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.busy_s"] = get(name, "busy_s")
        out[f"{name}.self_s"] = get(name, "self_s")
    for name, value in counts.items():
        out[f"{name}.calls"] = value
    rejected = sum(1 for s in spans if s[3] == "zeta.select_base" and s[6] == "NoCompatibleBase")
    out["zeta.select_base.rejected_frac"] = ratio(rejected, get("zeta.select_base", "calls"))
    out["linalg.solve.per_value"] = ratio(
        tr.count_under(spans, "linalg.solve", "zeta.LinearFunctional.value"),
        get("zeta.LinearFunctional.value", "calls"),
    )
    out["linalg.solve.per_select_base"] = ratio(
        tr.count_under(spans, "linalg.solve", "zeta.select_base"),
        get("zeta.select_base", "calls"),
    )
    out["trace.spans"] = len(spans)
    out["trace.overhead_frac"] = ratio(wall_traced, wall_untraced) - 1.0
    return out


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".calls") or name == "trace.spans":
        return "count"
    return "ratio"


def run_workload(args) -> int:
    tr, wl, import_runs, import_ref_runs = _import_library()
    import_s = statistics.median(import_runs)
    import_ref_s = statistics.median(import_ref_runs)
    workload = wl.WORKLOADS[args.workload]
    pins_path = wl.PINS_DIR / f"{workload.name}.json"
    pins = json.loads(pins_path.read_text())["digests"] if pins_path.is_file() else {}

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        state, setup_runs, setup_ref_runs = timed_setup(
            workload, args.seed, SETUP_REPS if not args.trace else 1, workdir)
        setup_s = import_ref_s + statistics.median(setup_ref_runs)
        rounds = state["rounds"]

        # every binding must be the library's own object before timing
        pristine_problems = tr.leftover_wrappers()
        runner = Runner(wl, workload, state, args.seed, pins, measure_speed=not args.trace)
        if not args.trace:
            round_walls = run_rounds([runner], rounds, args.seconds, workload.min_rounds)
            all_times = runner.times
        else:
            tracer = tr.Tracer()
            traced = Runner(wl, workload, state, args.seed, pins, tracer)
            round_walls = run_rounds([runner, traced], rounds, args.seconds / 2)
            pristine_problems += tracer.unpatched() + tr.leftover_wrappers()
            all_times = runner.times + traced.times
            for attr in ("failed", "pinned_checked", "unpinned"):
                setattr(runner, attr, getattr(runner, attr) + getattr(traced, attr))
            runner.failures += traced.failures
            for label, n in traced.histogram.items():
                runner.histogram[label] = runner.histogram.get(label, 0) + n
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(all_times)
    done, timed = len(round_walls), sum(round_walls)
    failed = runner.failed + (1 if pristine_problems else 0)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "rounds": done,
        "round_walls_s": round_walls,
        "items": attempted,
        "outcomes": dict(sorted(runner.histogram.items())),
        "pinned_checked": runner.pinned_checked,
        "invariants_only": runner.unpinned,
        "failures": runner.failures,
        "tracer_bindings_restored": not pristine_problems,
    }
    print(f"workload {workload.name}: seed {args.seed}, {done} rounds, {attempted} items; "
          f"nproc {record['nproc']}, Python {record['python']}, {record['platform']}, "
          f"commit {record['commit'][:12]}")
    print("outcomes: " + ", ".join(f"{k} {v}" for k, v in record["outcomes"].items()))
    if args.seed == wl.DEFAULT_SEED:
        print(f"correctness: {runner.pinned_checked} outputs matched against pinned digests, "
              "plus invariants")
    else:
        print(f"correctness: seed {args.seed} is not the pinned seed {wl.DEFAULT_SEED}; "
              f"{runner.pinned_checked} outputs found a pinned digest, "
              f"{runner.unpinned} were checked by invariants only")
    if pristine_problems:
        print("tracer bindings not original: " + ", ".join(pristine_problems))
    for line in runner.failures:
        print(f"FAILED {line}")

    if not args.trace:
        ref_times = reference_times(runner)
        pct = tail_percentile(workload.min_rounds * len(rounds[0]))
        value = percentile(ref_times, pct)
        beyond = sum(1 for t in ref_times if t > value)
        metrics = {
            "items_per_s": (attempted / sum(ref_times), "items/s"),
            "item_p50_ms": (percentile(ref_times, 50.0) * 1000, "ms"),
            "item_tail_ms": (value * 1000, "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        failed_frac = failed / attempted
        for name, (v, unit) in metrics.items():
            note = f"  (p{pct:.1f} of {attempted} items, {beyond} beyond)" if name == "item_tail_ms" else ""
            print(f"{name:<14} {v:12.4f} {unit}{note}")
        print(f"{'failed_frac':<14} {failed_frac:12.4f} ratio  ({failed} of {attempted})")
        print(f"setup: median of {len(import_ref_runs)} imports {import_ref_s:.4f} + median of "
              f"{len(setup_ref_runs)} set-ups {statistics.median(setup_ref_runs):.4f} reference s")
        wall_metrics = {
            "items_per_s": attempted / timed,
            "item_p50_ms": percentile(all_times, 50.0) * 1000,
            "item_tail_ms": percentile(all_times, pct) * 1000,
            "setup_s": import_s + statistics.median(setup_runs),
        }
        speed = timed / sum(ref_times)
        print(f"wall time at the host's own speed ({speed:.3f} wall s per reference s): "
              + ", ".join(f"{k} {v:.4f}" for k, v in wall_metrics.items()))
        record.update(metrics={k: v for k, (v, _) in metrics.items()}, wall_metrics=wall_metrics,
                      wall_per_reference_s=speed, item_tail_percentile=pct,
                      failed_frac=failed_frac, import_wall_runs=import_runs,
                      import_reference_runs=import_ref_runs,
                      setup_wall_runs=setup_runs,
                      setup_reference_runs=setup_ref_runs)
        payload = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    else:
        untraced_wall = timed
        traced_wall = sum(traced.times)
        layer = layer_metrics(tr, tracer.spans, tracer.counts, untraced_wall, traced_wall)
        for name in PER_LAYER:
            print(f"{name:<48} {layer[name]:14.6g} {unit_of(name)}")
        print(f"traced timed wall {traced_wall:.3f} s; busy shares: " + ", ".join(
            f"{name[:-7]} {layer[name] / traced_wall:.1%}"
            for name in ("zeta.select_base.busy_s", "zeta.LinearFunctional.value.busy_s",
                         "shadows.validate_shadow.busy_s", "subsets.decompose.busy_s",
                         "finite.check_supersystem_axioms.busy_s", "cli.main.busy_s")
        ))
        record.update(metrics=layer, traced_wall_s=traced_wall, untraced_wall_s=untraced_wall)
        payload = {k: {"value": layer[k], "unit": unit_of(k)} for k in PER_LAYER}
        spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.json.gz"
        with gzip.open(spans_path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "item", "name", "start", "end", "exception"],
                       "spans": tracer.spans}, fh)
    suffix = "-trace" if args.trace else ""
    (OUT_DIR / f"record-{workload.name}-seed{args.seed}{suffix}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": payload}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    summary = []
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= 0 if result["correct"] else 1
        summary.append((name, result))
        print()
    print("summary")
    for name, result in summary:
        metrics = ", ".join(f"{k} {m['value']:.4g} {m['unit']}"
                            for k, m in result["metrics"].items()
                            if not args.trace or k.endswith("busy_s") or k.startswith("trace."))
        failed_frac = result["failed"] / result["attempted"]
        print(f"  {name:<14} correct={result['correct']} failed_frac {failed_frac:.4g} ratio "
              f"({result['failed']}/{result['attempted']}), {metrics}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES, help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="timed wall time of one workload run (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        if args.seconds is not None:
            parser.error("--seconds needs --workload; a full run uses run_seconds of BENCHMARK.json")
        return run_all(args)
    if args.seconds is None:
        args.seconds = run_seconds()
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
