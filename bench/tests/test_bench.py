"""Self-tests of the benchmark harness.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""
from __future__ import annotations

import sys
import types
import weakref
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


def _keys(workload, seed, state):
    return [item.key for rnd in workload.rounds(seed, state) for item in rnd]


def test_same_seed_same_items_other_seed_different(tmp_path):
    for name in ("closure_scans", "cli_reports"):
        workload = wl.WORKLOADS[name]
        state = workload.build(tmp_path)
        first = _keys(workload, 3, state)
        assert first == _keys(workload, 3, state)
        assert first != _keys(workload, 4, state)
        # seeds change contents, not the cost-determining cells of a round
        kinds = [[(i.kind, i.params[:2]) for i in rnd] for rnd in workload.rounds(3, state)]
        other = [[(i.kind, i.params[:2]) for i in rnd] for rnd in workload.rounds(4, state)]
        assert [len(r) for r in kinds] == [len(r) for r in other]


def test_tracer_install_and_remove_restore_identity():
    import superroots
    from superroots import basefind, finite, linalg, supports, zeta
    from superroots.roots import Root

    solve, rank, select_base, add = linalg.solve, linalg.rank, zeta.select_base, Root.__add__
    tracer = tr.Tracer()
    sites = set(tracer.sites)
    for site in [("superroots.zeta", "solve"), ("superroots.basefind", "solve"),
                 ("superroots.supports", "solve"), ("superroots.finite", "matrix_rank"),
                 ("superroots", "select_base"), ("Root", "__add__")]:
        assert site in sites, site
    tracer.install()
    try:
        assert zeta.solve is not solve and basefind.solve is not solve and supports.solve is not solve
        assert finite.matrix_rank is not rank and superroots.select_base is not select_base
        assert Root.__add__ is not add
        assert tr.leftover_wrappers()
    finally:
        tracer.uninstall()
    assert tracer.unpatched() == []
    assert tr.leftover_wrappers() == []
    assert zeta.solve is solve and basefind.solve is solve and supports.solve is solve
    assert linalg.solve is solve and finite.matrix_rank is rank
    assert zeta.select_base is select_base and superroots.select_base is select_base
    assert Root.__add__ is add


def _fake_module():
    mod = types.ModuleType("benchfake")

    def inner():
        return 1

    def outer():
        return mod.inner() + mod.inner()

    def nest(n):
        return 0 if n == 0 else mod.nest(n - 1)

    mod.inner, mod.outer, mod.nest = inner, outer, nest
    return mod


def test_self_time_on_synthetic_nested_call(monkeypatch):
    mod = _fake_module()
    monkeypatch.setitem(sys.modules, "benchfake", mod)
    # start/end readings: outer 0..10, inner 1..3 and 4..7
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0, 20.0, 21.0, 23.0, 26.0])
    targets = [
        ("benchfake", "outer", "fake.outer", tr.SPAN),
        ("benchfake", "inner", "fake.inner", tr.SPAN),
        ("benchfake", "nest", "fake.nest", tr.SPAN),
    ]
    tracer = tr.Tracer(targets, package="benchfake", clock=lambda: next(ticks))
    tracer.install()
    try:
        assert mod.outer() == 2
        assert mod.nest(1) == 0  # nest 20..26 around nest 21..23
    finally:
        tracer.uninstall()
    stats = tr.layer_stats(tracer.spans)
    assert stats["fake.outer"] == {"calls": 1, "busy_s": 10.0, "self_s": 5.0}
    assert stats["fake.inner"] == {"calls": 2, "busy_s": 5.0, "self_s": 5.0}
    # a recursive call is busy once (outermost span) but counted twice
    assert stats["fake.nest"] == {"calls": 2, "busy_s": 6.0, "self_s": 6.0}
    assert tr.count_under(tracer.spans, "fake.inner", "fake.outer") == 2
    assert tr.count_under(tracer.spans, "fake.outer", "fake.inner") == 0


class _Planted(wl.Workload):
    name = "planted"

    def run(self, state, item):
        return item.params[0]

    def canonical(self, state, item, out):
        return {"value": out.value}

    def invariants(self, state, item, out):
        return [] if out.value >= 0 else ["negative"]

    def label(self, item, out):
        return "clean"


def test_planted_wrong_output_counts_as_failed():
    workload = _Planted()
    good, wrong, negative = (wl.Item("x", (v,)) for v in (1, 2, -1))
    pins = {
        good.key: wl.digest({"value": 1}),
        wrong.key: wl.digest({"value": 3}),  # planted: the pin disagrees
        negative.key: wl.digest({"value": -1}),
    }
    runner = run.Runner(wl, workload, {}, wl.DEFAULT_SEED, pins)
    round_walls = run.run_rounds([runner], [[good, wrong, negative]], seconds=0.0)
    assert len(round_walls) == 1
    assert len(runner.times) == 3
    assert runner.failed == 2  # the wrong digest and the broken invariant
    assert runner.pinned_checked == 3


def test_unpinned_item_fails_only_on_the_pinned_seed():
    workload = _Planted()
    item = wl.Item("x", (5,))
    pinned_seed = run.Runner(wl, workload, {}, wl.DEFAULT_SEED, {})
    pinned_seed.run_item(item, 0)
    other_seed = run.Runner(wl, workload, {}, wl.DEFAULT_SEED + 1, {})
    other_seed.run_item(item, 0)
    assert pinned_seed.failed == 1
    assert other_seed.failed == 0 and other_seed.unpinned == 1


def test_tail_leaves_ten_items_beyond_in_the_shortest_run():
    pct = run.tail_percentile(40)
    assert pct == 75.0
    times = [float(i) for i in range(1, 41)]
    assert abs(run.percentile(times, pct) - 30.5) < 1e-6  # 31..40 lie beyond
    longer = [float(i) for i in range(1, 81)]
    assert abs(run.percentile(longer, pct) - 60.5) < 1e-6
    assert abs(run.percentile(times, 50.0) - 20.5) < 1e-6
    assert abs(run.percentile([5.0] * 7, 50.0) - 5.0) < 1e-9


def test_percentile_does_not_jump_across_a_gap():
    # one item crossing the gap at the median moves a single order statistic
    # from one group to the other; the weighted estimate moves by a fraction
    below, above = [1.0] * 20 + [2.0] * 21, [1.0] * 21 + [2.0] * 20
    assert abs(run.percentile(below, 50.0) - run.percentile(above, 50.0)) < 0.15


class _NotJson(wl.CliWorkload):
    """Planted: the CLI prints text that is not the JSON its command promises."""

    def run(self, state, item):
        return 0, "not json\n"


def test_output_of_the_wrong_shape_counts_as_failed():
    export = wl.Item("cli", ("export", "--type", "B,1,1", "--window", "5", "--lambda=symbolic"))
    runner = run.Runner(wl, _NotJson(), {}, wl.DEFAULT_SEED + 1, {})
    runner.run_item(export, 0)
    assert runner.failed == 1
    assert "check raised JSONDecodeError" in runner.failures[0]
    assert runner.histogram == {"check_raised": 1}
    # a pinned error where a closure item's value is read
    closure = run.Runner(wl, wl.WORKLOADS["closure_scans"], {}, wl.DEFAULT_SEED + 1, {})
    closure.check(wl.Item("decompose", ("G3", 4)), wl.Outcome(error="NoCompatibleBase"))
    assert closure.failed == 1 and "check raised" in closure.failures[0]


def test_reference_times_scale_each_round_by_its_own_speed():
    runner = run.Runner(wl, _Planted(), {}, wl.DEFAULT_SEED, {})
    runner.times = [0.2, 0.4, 1.0]
    # round 1 at nominal speed, round 2 on a host half as fast
    runner.refs = [(1, run.REF_CALL_S), (3, 3 * run.REF_CALL_S), (2, 4 * run.REF_CALL_S)]
    runner.round_ends = [2, 3]
    assert run.reference_times(runner) == [0.2, 0.4, 0.5]


def test_reference_measures_whole_calls():
    calls, elapsed = run.reference(0.0)
    assert calls == 1 and elapsed > 0
    assert run.speed_factor(calls, elapsed) > 0


class _Held:
    pass


class _Setups(wl.Workload):
    def __init__(self):
        self.previous = None
        self.overlapped = 0

    def setup(self, seed, workdir):
        if self.previous is not None and self.previous() is not None:
            self.overlapped += 1
        state = _Held()
        self.previous = weakref.ref(state)
        return state


def test_each_setup_drops_the_previous_state(tmp_path):
    workload = _Setups()
    state, walls, refs = run.timed_setup(workload, 1, 3, tmp_path)
    # an instant set-up repeats up to the cap
    assert isinstance(state, _Held) and len(walls) == len(refs) == run.SETUP_MAX_REPS
    assert workload.overlapped == 0
