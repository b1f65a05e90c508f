"""The four benchmark workloads: item generation, the timed call, and checks.

Every workload is a list of rounds.  A round has the same cost-determining
cells (system, window, kind of call) for every seed; the seed only fills in
the contents (hybrid assignments, functional coefficients, colourings,
lambda values, shadow configs) and the order inside the round.  A run
executes whole rounds, so runs of different seeds do the same mix of work
and their throughput is comparable.

Each item carries a JSON key.  Its output is reduced to a canonical JSON
form whose digest is compared with ``bench/pins/<workload>.json``; the
invariants below hold for every seed, pinned or not.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction as Q
from pathlib import Path

# Traced functions are called through their modules, so the tracer's
# rebinding of a module attribute is seen here too.
from superroots import affine, cli, finite, shadows, subsets, zeta
from superroots.errors import CaseMismatch, NoCompatibleBase
from superroots.roots import KIND_REAL
from superroots.shadows import DOWN, UP, Shadow, hybrid_class, tight_class

DEFAULT_SEED = 1
PINS_DIR = Path(__file__).resolve().parent / "pins"

#: exceptions that are a pinned answer rather than a failure
PINNED_ERRORS = (NoCompatibleBase, CaseMismatch)

PAIRS = [(m, t) for m in (-1, 0, 1) for t in (-1, 0, 1)]


@dataclass(frozen=True)
class Item:
    kind: str
    params: tuple

    @property
    def key(self) -> str:
        return json.dumps([self.kind, self.params], separators=(",", ":"))


@dataclass
class Outcome:
    """What one timed call produced: a value, a pinned error, or a crash."""

    value: object = None
    error: str | None = None
    unexpected: str | None = None


def digest(canonical) -> str:
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def root_key(r) -> list | None:
    if r is None:
        return None
    return [[str(c) for c in r.coords], r.k, r.sigma]


class Workload:
    name = ""
    why = ""
    rounds_listed = 0
    #: fewest rounds a run makes; fixes the tail percentile (see run.py)
    min_rounds = 1

    def setup(self, seed: int, workdir: Path) -> dict:
        """Build systems and the seeded rounds; this is what ``setup_s`` times."""
        state = self.build(workdir)
        state["rounds"] = self.rounds(seed, state)
        return state

    def build(self, workdir: Path) -> dict:
        raise NotImplementedError

    def run(self, state, item: Item):
        raise NotImplementedError

    def canonical(self, state, item: Item, out: Outcome):
        raise NotImplementedError

    def invariants(self, state, item: Item, out: Outcome) -> list[str]:
        return []

    def label(self, item: Item, out: Outcome) -> str:
        """Outcome class for the run record's histogram."""
        raise NotImplementedError

    def rounds(self, seed: int, state: dict) -> list[list[Item]]:
        rng = random.Random(f"{self.name}/{seed}")
        out = []
        for index in range(self.rounds_listed):
            cells = self.round_cells(rng, state, index)
            rng.shuffle(cells)
            out.append(cells)
        return out

    def round_cells(self, rng: random.Random, state: dict, index: int) -> list[Item]:
        """The items of round ``index``; only ``rng`` draws may depend on the seed."""
        raise NotImplementedError

    def pool(self, state: dict) -> list[Item]:
        """Every item any seed can draw, when that set is small enough to pin."""
        return []


# -- zeta ---------------------------------------------------------------------


class ZetaWorkload(Workload):
    kmax_decompose = 6
    window = 10

    def __init__(self, name, why, tokens, both_directions, rounds_listed, min_rounds, per_round=None):
        self.name = name
        self.why = why
        self.tokens = tokens
        self.both_directions = both_directions
        self.rounds_listed = rounds_listed
        self.min_rounds = min_rounds
        self.per_round = per_round or {}

    def build(self, workdir):
        systems = {}
        for token in self.tokens:
            system = affine.build_affine(finite.parse_type_token(token))
            subset = subsets.even_subset(system)
            dec = subsets.decompose(system, subset, kmax=self.kmax_decompose)
            systems[token] = (system, subset, dec.components)
        return {"systems": systems}

    def round_cells(self, rng, state, index):
        cells = []
        for i, token in enumerate(self.tokens):
            if self.both_directions:
                directions = (UP, DOWN) * self.per_round.get(token, 1)
            else:
                # the direction alternates by round, so every seed has the same mix
                directions = [(UP, DOWN)[(i + index + k) % 2] for k in range(self.per_round.get(token, 1))]
            for direction in directions:
                ncomp = len(state["systems"][token][2])
                assignment = [list(rng.choice(PAIRS)) for _ in range(ncomp)]
                cells.append(Item("zeta", (token, direction, assignment)))
        return cells

    def pool(self, state):
        items = []
        for token in self.tokens:
            ncomp = len(state["systems"][token][2])
            for direction in (UP, DOWN):
                for assignment in itertools.product(PAIRS, repeat=ncomp):
                    items.append(Item("zeta", (token, direction, [list(p) for p in assignment])))
        return items

    def run(self, state, item):
        token, direction, assignment = item.params
        system, subset, comps = state["systems"][token]
        table = zeta.hybrid_assignment_shadows(system, comps, [tuple(a) for a in assignment], direction)
        parabolics = tuple(subsets.component_parabolic(system, comp, table, direction) for comp in comps)
        result = zeta.construct_zeta(system, comps, parabolics, direction)
        problems = zeta.verify_zeta(result, subset, self.window, shadow=Shadow(system, table))
        checks = [subsets.check_parabolic(P, comp.subset, self.window) for comp, P in zip(comps, parabolics)]
        return system, result, problems, checks

    def canonical(self, state, item, out):
        if out.error:
            return {"error": out.error}
        system, result, problems, checks = out.value
        return {
            "zeta": result.to_json(system),
            "problems": problems,
            "parabolic": [
                [c.is_parabolic, c.proper, len(c.additive_violations), len(c.covering_failures)]
                for c in checks
            ],
        }

    def invariants(self, state, item, out):
        if out.error:
            return []
        _, result, problems, checks = out.value
        parabolic_ok = all(c.is_parabolic and c.proper for c in checks)
        if (not problems) != parabolic_ok:
            return [
                f"verify_zeta clean={not problems} but every component parabolic "
                f"and proper={parabolic_ok}"
            ]
        if result.direction != item.params[1]:
            return [f"direction {result.direction} != requested {item.params[1]}"]
        return []

    def label(self, item, out):
        if out.error:
            return out.error
        _, _, problems, checks = out.value
        clean = not problems and all(c.is_parabolic and c.proper for c in checks)
        return "clean" if clean else "violations"


# -- closure scans ------------------------------------------------------------

#: (system, window, clean) validate_shadow cells of every round
VALIDATE_CELLS = [
    ("B,1,1", 8, True), ("B,1,1", 6, False),
    ("B,2,1", 6, True), ("B,2,1", 4, False),
    ("D21L", 8, True), ("D21L", 5, False),
    ("A,2,1", 7, True), ("A,2,1", 8, False),
    ("G3", 5, True), ("G3", 4, False),
    ("F4", 4, True), ("F4", 4, False),
]
#: (system, window) decompose(even_subset) cells of every round
DECOMPOSE_CELLS = [("B,2,1", 6), ("A,1,2", 6), ("D,2,2", 5), ("G3", 4), ("F4", 4)]
#: criterion-2 types grouped by axiom-check cost; each round draws from each group
AXIOM_GROUPS = [
    ["A,1,1", "B,1,1", "C,2", "C,3", "D,1,1", "D,2,1", "D,1,2", "BC,1,1", "D21L"],
    ["A,2,1", "A,1,2", "B,2,1", "B,1,2", "BC,2,1", "BC,1,2", "D,2,2"],
    ["A,2,2", "B,2,2", "BC,2,2", "F4", "G3"],
]
AXIOM_DRAWS = (2, 2, 1)
DEGENERATE = "S,2"


def _rational(rng: random.Random, lo: int, hi: int) -> str:
    num = 0
    while num == 0:
        num = rng.randint(lo, hi)
    return str(Q(num, rng.randint(1, 12)))


class ClosureWorkload(Workload):
    name = "closure_scans"
    why = (
        "windowed O(N^2)/O(N^3) scans: validate_shadow on clean and violating shadows, "
        "decompose's closure_violations and the axioms' root_string; no zeta work"
    )
    rounds_listed = 8
    min_rounds = 2

    def build(self, workdir):
        # items build their own system, so no round meets caches an earlier one filled;
        # these copies only shape the generated inputs
        tokens = {t for t, _, _ in VALIDATE_CELLS}
        return {"systems": {t: affine.build_affine(finite.parse_type_token(t)) for t in sorted(tokens)}}

    def round_cells(self, rng, state, index):
        cells = []
        for token, window, clean in VALIDATE_CELLS:
            system = state["systems"][token]
            if clean:
                coeffs = {sym: _rational(rng, -9, 9) for sym in system.basis.symbols}
                payload = {"coeffs": coeffs, "wd": rng.choice(("1", "-1", "1/2", "-3/2"))}
            else:
                payload = {"classes": [_random_class(rng) for _ in system.real_class_reps]}
            cells.append(Item("validate", (token, window, "clean" if clean else "violating", payload)))
        for token, window in DECOMPOSE_CELLS:
            cells.append(Item("decompose", (token, window)))
        # the axiom types cycle through each group with the round: the type
        # fixes the cost, so every seed has the same mix
        for group, draws in zip(AXIOM_GROUPS, AXIOM_DRAWS):
            for d in range(draws):
                cells.append(Item("axioms", (group[(index * draws + d) % len(group)],)))
        cells.append(Item("axioms", (DEGENERATE,)))
        return cells

    def run(self, state, item):
        if item.kind == "validate":
            token, window, _, payload = item.params
            system = affine.build_affine(finite.parse_type_token(token))
            if "coeffs" in payload:
                coeffs = {sym: Q(v) for sym, v in payload["coeffs"].items()}
                shadow = shadows.induce_from_functional(system, coeffs, Q(payload["wd"]))
            else:
                classes = []
                for rep, cfg in zip(system.real_class_reps, payload["classes"]):
                    if cfg[0] == "tight":
                        classes.append(tight_class(rep, cfg[1], cfg[2]))
                    else:
                        classes.append(hybrid_class(rep, cfg[0], cfg[1], cfg[2]))
                shadow = Shadow.of(system, classes)
            return shadow, shadows.validate_shadow(shadow, window)
        if item.kind == "decompose":
            token, window = item.params
            system = affine.build_affine(finite.parse_type_token(token))
            return subsets.decompose(system, subsets.even_subset(system), kmax=window)
        (token,) = item.params
        return finite.check_supersystem_axioms(finite.build_finite(finite.parse_type_token(token)))

    def canonical(self, state, item, out):
        if item.kind == "validate":
            _, report = out.value
            return {
                "violations": [
                    [v.law, root_key(v.alpha), root_key(v.beta), root_key(v.target)]
                    for v in report.violations
                ]
            }
        if item.kind == "decompose":
            dec = out.value
            return {
                "components": [
                    [c.index, [root_key(v) for v in c.vectors], len(c.subset.lines)]
                    for c in dec.components
                ]
            }
        return {"axioms": str(out.value)}

    def invariants(self, state, item, out):
        if item.kind == "validate":
            shadow, report = out.value
            problems = []
            if item.params[2] == "clean" and report.violations:
                problems.append(f"functional-induced shadow has {len(report.violations)} violations")
            problems.extend(_reverify(shadow, report))
            return problems
        if item.kind == "decompose":
            return _decomposition_problems(out.value)
        (token,) = item.params
        report = out.value
        if token == DEGENERATE:
            if report.failed_axioms != ("f",):
                return [f"{token} fails {report.failed_axioms}, expected exactly (f)"]
        elif not report.passed:
            return [f"{token} fails {report.failed_axioms}"]
        return []

    def label(self, item, out):
        if item.kind == "validate":
            return "violations" if out.value[1].violations else "clean"
        if item.kind == "axioms":
            return "clean" if out.value.passed else "violations"
        return "clean"


def _random_class(rng: random.Random) -> list:
    # tight classes colour exactly one side ln, so like a hybrid they put
    # about half of each line in ln and the scan's cost stays seed-independent
    if rng.random() < 0.3:
        plus = rng.random() < 0.5
        return ["tight", plus, not plus]
    return [rng.choice((UP, DOWN)), rng.randint(-2, 2), rng.choice((-1, 0, 1))]


def _reverify(shadow: Shadow, report) -> list[str]:
    """Criterion 4's rule: each violation's witnesses must re-verify."""
    system = shadow.system
    for v in report.violations:
        if v.law in ("sum", "sum2"):
            step = v.beta if v.law == "sum" else v.beta.scale(Q(2))
            ok = (
                v.target == v.alpha + step
                and shadow.is_ln(v.alpha)
                and shadow.is_ln(v.beta)
                and system.classify(v.target) == KIND_REAL
                and shadow.is_in(v.target)
            )
        elif v.law == "scale":
            ok = v.target == v.alpha.scale(Q(2)) and shadow.is_ln(v.alpha) != shadow.is_ln(v.target)
        else:
            ok = False
        if not ok:
            return [f"violation {v.law} at {v.detail} does not re-verify"]
    return []


def _decomposition_problems(dec) -> list[str]:
    seen = set()
    for comp in dec.components:
        if not comp.subset.is_symmetric():
            return [f"component {comp.index} is not symmetric"]
        if len(finite.irreducible_components(comp.dot)) != 1:
            return [f"component {comp.index} is reducible"]
        vectors = set(comp.vectors)
        if vectors & seen or any(-v not in vectors for v in vectors):
            return [f"component {comp.index} overlaps another or is not negation-closed"]
        seen |= vectors
    if seen != set(dec.core.nonzero):
        return ["components do not cover the core"]
    return []


# -- CLI reports ----------------------------------------------------------------

TABULATED = ["A,2,1", "A,1,1", "B,1,1", "B,2,1", "C,2", "D,2,1", "D21L", "F4", "G3"]
REPORTS = ["build", "classify", "tables", "export"]
LAMBDAS = ["2", "1/2", "3/2", "-2", "-1/2", "5/3", "7"]
AXIOM_TYPES_CLI = ["A,1,1", "B,1,1", "C,2", "C,3", "D,1,1", "D,2,1", "D21L", "S,2"]
UNIFORM_FAMILIES = ("full_ln", "full_in")
#: systems whose shadow-validate calls read a generated --config file
CONFIG_TYPES = ("B,2,1", "D21L")


class CliWorkload(Workload):
    name = "cli_reports"
    why = (
        "in-process cli.main calls that build cold, then parse and format roots: "
        "build/classify/tables/export, shadow-validate, axioms and the 16 zeta scenarios"
    )
    rounds_listed = 10
    min_rounds = 2

    def build(self, workdir):
        reps = {}
        for token in CONFIG_TYPES:
            system = affine.build_affine(finite.parse_type_token(token))
            reps[token] = [system.format(r) for r in system.real_class_reps]
        return {"reps": reps}

    def setup(self, seed, workdir):
        """Also write every --config file the seed's rounds name."""
        state = super().setup(seed, workdir)
        paths = {}
        for rnd in state["rounds"]:
            for item in rnd:
                if item.params[0] == "shadow-validate-config":
                    config = item.params[-1]
                    name = digest(config)
                    if name not in paths:
                        path = workdir / f"shadow-{name}.json"
                        path.write_text(json.dumps(config, indent=2), encoding="utf-8")
                        paths[name] = str(path)
        state["configs"] = paths
        return state

    def round_cells(self, rng, state, index):
        # Every cost-determining choice below cycles with a period of at most
        # four parts, so every round holds the same mix of costs and a run's
        # tail does not depend on how many rounds it ran.
        return [cell for part in range(4) for cell in self.part_cells(rng, state, 4 * index + part)]

    def part_cells(self, rng, state, index):
        cells = []
        # the window (5-10) and whether lambda is symbolic cycle with the part
        # and the cell, so every seed has the same mix; the seed picks the value
        for i, token in enumerate(TABULATED):
            for j, report in enumerate(REPORTS):
                cell = index + i * len(REPORTS) + j
                lam = "symbolic" if cell % 2 == 0 else rng.choice(LAMBDAS)
                window = 5 + (index % 4 + i + j) % 6
                argv = [report, "--type", token, "--window", str(window), f"--lambda={lam}"]
                cells.append(Item("cli", tuple(argv)))
        # shadow-validate: a uniform or tight family fixes the cost, so it
        # cycles with the part; the seed fills in hybrids and configs
        cells.append(Item("cli", ("shadow-validate", "--type", "B,1,1", "--window", "4",
                                  "--uniform", UNIFORM_FAMILIES[index % 2])))
        hybrid = f"{rng.choice((UP, DOWN))},{rng.randint(-2, 2)},{rng.choice((-1, 0, 1))}"
        cells.append(Item("cli", ("shadow-validate", "--type", "D21L", "--window", "4",
                                  "--uniform", hybrid)))
        tight = f"tight,{('ln', 'in')[index % 2]},{('ln', 'in')[index // 2 % 2]}"
        cells.append(Item("cli", ("shadow-validate", "--type", "A,2,1", "--window", "4",
                                  "--uniform", tight)))
        for token, window in zip(CONFIG_TYPES, (3, 4)):
            config = {"classes": [
                {"rep": rep, "config": _cli_class_config(rng)} for rep in state["reps"][token]
            ]}
            cells.append(Item("cli", ("shadow-validate-config", token, str(window), config)))
        # axiom types and zeta scenarios fix the cost: they cycle with the part,
        # two of each per part; each round runs cases 1-4, two of them down,
        # and two rounds run all 16 scenarios
        for d in range(2):
            token = AXIOM_TYPES_CLI[(2 * index + d) % len(AXIOM_TYPES_CLI)]
            cells.append(Item("cli", ("axioms", "--type", token)))
        for prefix in ("b11", "d21l"):
            name = f"{prefix}-case{index % 4 + 1}" + ("-down" if (index // 4 + index) % 2 else "")
            cells.append(Item("cli", ("zeta", "--scenario", name, "--window", "6")))
        return cells

    def argv(self, state, item):
        params = item.params
        if params[0] == "shadow-validate-config":
            _, token, window, config = params
            path = state["configs"][digest(config)]
            return ["shadow-validate", "--type", token, "--window", window, "--config", path]
        return list(params)

    def run(self, state, item):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(self.argv(state, item))
            except SystemExit as exc:
                code = exc.code
        return code, buf.getvalue()

    def canonical(self, state, item, out):
        code, text = out.value
        return {"exit": code, "stdout": text}

    def invariants(self, state, item, out):
        code, text = out.value
        command = item.params[0]
        if command in ("build", "classify", "tables", "export"):
            if code != 0:
                return [f"{command} exited {code}"]
            if command == "export":
                data = json.loads(text)
                window = int(item.params[4])
                if data["type"] != finite.parse_type_token(item.params[2]).token:
                    return ["export names another type"]
                if len(data["roots"]) % (2 * window + 1):
                    return ["export root count is not a whole number of lines"]
            return []
        if command.startswith("shadow-validate"):
            data = json.loads(text)
            if code != (1 if data["violations"] else 0):
                return [f"shadow-validate exit {code} disagrees with its violations"]
            return []
        if command == "axioms":
            want = 1 if item.params[2] == DEGENERATE else 0
            return [] if code == want else [f"axioms exit {code}, expected {want}"]
        data = json.loads(text)
        if code != (1 if data["violations"] else 0):
            return [f"zeta exit {code} disagrees with its violations"]
        return []

    def label(self, item, out):
        code, _ = out.value
        return "clean" if code == 0 else "violations"


def _cli_class_config(rng: random.Random) -> dict:
    roll = rng.random()
    if roll < 0.2:
        return {"family": rng.choice(("full_ln", "full_in"))}
    if roll < 0.4:
        return {"family": "tight", "plus": rng.choice(("ln", "in")), "minus": rng.choice(("ln", "in"))}
    return {"family": rng.choice((UP, DOWN)), "m": rng.randint(-2, 2), "t": rng.choice((-1, 0, 1))}


WORKLOADS = {
    w.name: w
    for w in (
        ZetaWorkload(
            "zeta_sweep",
            "hybrid sweep on B,1,1 and D21L: base orbits of 6 bases, so zeta verification "
            "(LinearFunctional.value re-solving per root) dominates, base search barely shows",
            ["B,1,1", "D21L"],
            both_directions=True,
            rounds_listed=200,
            min_rounds=30,
            # D21L items cost about twice a B,1,1 item; two of each direction per
            # round put the median inside the D21L group instead of on the gap
            # between the groups, where it would jump with the seed
            per_round={"D21L": 2},
        ),
        ZetaWorkload(
            "zeta_rank2",
            "same pipeline on rank-2 components with 72-156-base orbits: select_base dominates, "
            "with found and exhausted (NoCompatibleBase) searches both timed",
            ["A,2,1", "A,1,2", "B,2,1", "B,1,2", "C,3", "D,1,2", "D,2,2", "A,2,2", "G3"],
            both_directions=False,
            rounds_listed=12,
            min_rounds=4,
            # the two costliest systems twice per round, so that the tail
            # percentile falls inside their group, not on its edge
            per_round={"G3": 2, "A,2,2": 2},
        ),
        ClosureWorkload(),
        CliWorkload(),
    )
}
