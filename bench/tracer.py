"""Outside-in tracer: spans and counters around the library's public calls.

The tracer never edits the library.  ``install`` rebinds each target at
every place that holds it -- the defining module, every ``superroots``
module that imported it (``zeta.solve``, ``basefind.solve``,
``finite.matrix_rank``, the package namespace, ...) or the class that
defines a method -- and ``uninstall`` puts the original objects back.

A *span* target records (id, parent id, item id, name, start, end,
exception class) for every call while the tracer is installed; spans are
kept in memory and written out when the run ends.  A *count* target only
increments a counter, for functions called hundreds of thousands of
times per item.
"""
from __future__ import annotations

import functools
import sys
import time

SPAN = "span"
COUNT = "count"

#: (module, attribute path, metric name, mode); several targets may share a
#: counter name, e.g. ``__add__`` and ``__sub__`` both count as Root.add
TARGETS = [
    ("superroots.zeta", "select_base", "zeta.select_base", SPAN),
    ("superroots.zeta", "construct_zeta", "zeta.construct_zeta", SPAN),
    ("superroots.zeta", "verify_zeta", "zeta.verify_zeta", SPAN),
    ("superroots.zeta", "LinearFunctional.value", "zeta.LinearFunctional.value", SPAN),
    ("superroots.linalg", "solve", "linalg.solve", SPAN),
    ("superroots.linalg", "rank", "linalg.rank", SPAN),
    ("superroots.linalg", "det", "linalg.det", SPAN),
    ("superroots.basefind", "find_base", "basefind.find_base", SPAN),
    ("superroots.basefind", "highest_root", "basefind.highest_root", SPAN),
    ("superroots.subsets", "decompose", "subsets.decompose", SPAN),
    ("superroots.subsets", "RootSubset.closure_violations", "subsets.RootSubset.closure_violations", SPAN),
    ("superroots.subsets", "check_parabolic", "subsets.check_parabolic", SPAN),
    ("superroots.subsets", "component_parabolic", "subsets.component_parabolic", SPAN),
    ("superroots.shadows", "validate_shadow", "shadows.validate_shadow", SPAN),
    ("superroots.shadows", "induce_from_functional", "shadows.induce_from_functional", SPAN),
    ("superroots.finite", "check_supersystem_axioms", "finite.check_supersystem_axioms", SPAN),
    ("superroots.finite", "root_string", "finite.root_string", SPAN),
    ("superroots.affine", "build_affine", "affine.build_affine", SPAN),
    ("superroots.affine", "AffineRootSystem.export", "affine.AffineRootSystem.export", SPAN),
    ("superroots.affine", "AffineRootSystem.format", "affine.AffineRootSystem.format", SPAN),
    ("superroots.tables", "classification_report", "tables.classification_report", SPAN),
    ("superroots.cli", "main", "cli.main", SPAN),
    ("superroots.affine", "AffineRootSystem.classify", "affine.AffineRootSystem.classify", COUNT),
    ("superroots.cli", "parse_root_expr", "cli.parse_root_expr", COUNT),
    ("superroots.roots", "Root.__add__", "roots.Root.add", COUNT),
    ("superroots.roots", "Root.__sub__", "roots.Root.add", COUNT),
    ("superroots.roots", "Root.__neg__", "roots.Root.neg", COUNT),
    ("superroots.roots", "Root.scale", "roots.Root.scale", COUNT),
    ("superroots.roots", "Root.__hash__", "roots.Root.hash", COUNT),
    ("superroots.roots", "cartan_integer", "roots.cartan_integer", COUNT),
] + [
    ("superroots.intsets", f"IntegerSet.{op}", "intsets.IntegerSet.ops", COUNT)
    for op in (
        "__contains__", "is_empty", "is_finite", "min", "union", "intersect",
        "negate", "shift", "is_subset", "complement_in",
    )
]

MARK = "__bench_wrapped__"


class Tracer:
    """Finds every binding of the targets; installs and removes wrappers."""

    def __init__(self, targets=TARGETS, package: str = "superroots", clock=time.perf_counter):
        self.clock = clock
        self.item = -1
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._next_id = 0
        self._sites: list[tuple[object, str, object, object]] = []
        for module_name, path, metric, mode in targets:
            owner, attr = _resolve(module_name, path)
            original = owner.__dict__[attr]
            if hasattr(original, MARK):
                raise RuntimeError(f"{module_name}.{path} is already wrapped")
            if mode == SPAN:
                wrapper = self._span_wrapper(original, metric)
            else:
                wrapper = self._count_wrapper(original, metric)
            if "." in path:
                self._sites.append((owner, attr, original, wrapper))
                continue
            for module in _package_modules(package):
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._sites.append((module, name, original, wrapper))

    @property
    def sites(self) -> list[tuple[str, str]]:
        return [(getattr(o, "__name__", repr(o)), a) for o, a, _, _ in self._sites]

    def install(self) -> None:
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._sites:
            setattr(owner, attr, original)

    def unpatched(self) -> list[str]:
        """Bindings that do not hold their original object (empty when clean)."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original, _ in self._sites
            if owner.__dict__.get(attr) is not original
        ]

    def _span_wrapper(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            stack.append(sid)
            exc_name = None
            start = tracer.clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                exc_name = type(exc).__name__
                raise
            finally:
                end = tracer.clock()
                stack.pop()
                tracer.spans.append((sid, parent, tracer.item, name, start, end, exc_name))

        setattr(wrapper, MARK, fn)
        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, MARK, fn)
        return wrapper


def leftover_wrappers(targets=TARGETS, package: str = "superroots") -> list[str]:
    """Module attributes or target-class attributes that still hold a wrapper."""
    owners = {id(m): m for m in _package_modules(package)}
    for module_name, path, _, _ in targets:
        owner, _ = _resolve(module_name, path)
        owners[id(owner)] = owner
    return sorted(
        f"{getattr(owner, '__name__', owner)}.{name}"
        for owner in owners.values()
        for name, value in list(vars(owner).items())
        if hasattr(value, MARK)
    )


def _resolve(module_name: str, path: str):
    module = sys.modules.get(module_name) or __import__(module_name, fromlist=["_"])
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _package_modules(package: str):
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == package or name.startswith(package + "."))
    ]


def layer_stats(spans) -> dict[str, dict[str, float]]:
    """calls, busy (outermost spans of a name) and self time per span name.

    Self time is a span's duration minus the durations of its direct
    children; on one thread the children never overlap, so this is the part
    of the interval no child covers.
    """
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = {}
    for sid, parent, _, _, start, end, _ in spans:
        if parent in by_id:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    stats: dict[str, dict[str, float]] = {}
    for sid, parent, _, name, start, end, _ in spans:
        entry = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        dur = end - start
        entry["calls"] += 1
        entry["self_s"] += dur - child_time.get(sid, 0.0)
        if not _has_ancestor(by_id, parent, name):
            entry["busy_s"] += dur
    return stats


def _has_ancestor(by_id, parent: int, name: str) -> bool:
    while parent in by_id:
        span = by_id[parent]
        if span[3] == name:
            return True
        parent = span[1]
    return False


def count_under(spans, name: str, ancestor: str) -> int:
    """Spans called ``name`` with an ancestor span called ``ancestor``."""
    by_id = {s[0]: s for s in spans}
    return sum(1 for s in spans if s[3] == name and _has_ancestor(by_id, s[1], ancestor))
