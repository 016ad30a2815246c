"""Seeded inputs and known-answer checks for the four benchmark workloads.

Each build function takes a numpy Generator and a work directory, writes the inputs
the program reads (matrix files) and returns a `Plan`: the rounds of ops the
timed loop cycles through, a warm-up op and, for classify-catalog, the
known-defect probes. An op is a list of CLI argument vectors run back to back
through `cli.main`; its checker gets the outputs afterwards, outside the
timed region, and raises `CheckFailed` on any mismatch with the known
answers in known_answers.json.

Every round of a workload holds the same mix of input sizes (classify-catalog:
one spec per family and a tree depth cycling over rounds), so a run's medians
do not depend on how many rounds fit into its time. The verify workloads have
an odd number of inputs per round, with costs well apart, so the median and
the tail percentile fall inside one input's latencies, not on the gap
between two.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from ultrapreserve.generators import random_ultrametric
from ultrapreserve.parser import parse_function_spec
from ultrapreserve.spaces import FiniteSemimetricSpace, PositivityViolation, TripleViolation
from ultrapreserve.witnesses import WitnessCertificate, verify_certificate

KNOWN_ANSWERS = Path(__file__).with_name("known_answers.json")

# Reference implementations of the certified preservers used by `transform`,
# written with the same IEEE operations as the DSL so results are bit-equal.
REFERENCE = {
    "t": lambda t: t,
    "2 * t": lambda t: 2.0 * t,
    "t * t": lambda t: t * t,
    "pow(t, 0.5)": lambda t: math.pow(t, 0.5),
    "pow(t, 3)": lambda t: math.pow(t, 3.0),
    "min(t, 1)": lambda t: min(t, 1.0),
    "max(t, t * t)": lambda t: max(t, t * t),
    "t + t * t": lambda t: t + t * t,
}

VERIFY_SIZES = (23, 32, 45, 64, 91, 128, 181, 256, 362)  # half-octave ladder to 1 MiB
VIOLATED_SIZES = (16, 23, 32, 45, 64)  # the violation scan is pure Python: ~a * n^2 steps
PLANT_FACTOR = 4.0  # planted entry = 4 * max > 2 * max
COMPOSITION_DEPTHS = (1, 2, 3)
COMPOSITION_MAX_DEGREE = 12  # f(2**-60) >= 2**-720 stays positive in doubles

# Leaves of the composition family with the power of t they behave like at
# 0 or infinity; bounding the product keeps values clear of underflow.
COMPOSITION_LEAVES = {
    "t": 1.0, "2 * t": 1.0, "t * t": 2.0, "pow(t, 0.5)": 0.5, "pow(t, 3)": 3.0,
    "min(t, 1)": 1.0, "cantor_hat(t)": 1.0, "t + t * t": 2.0,
}
ZERO_BASES = ("t", "2 * t", "t * t", "pow(t, 0.5)", "t + t * t", "min(t, 1)", "cantor_hat(t)")


class CheckFailed(Exception):
    pass


@dataclass
class StepResult:
    code: Optional[int]
    out: str
    err: str
    exc: Optional[BaseException] = None


@dataclass
class Op:
    label: str
    steps: list[list[str]]
    check: Callable[[list[StepResult]], None]


@dataclass
class Plan:
    rounds: list[list[Op]]
    warmup: Op
    # Tail latency percentile: the highest with at least 10 samples beyond it
    # at the nominal run length. Fixed per workload, so a run that fits a few
    # rounds more or less still reports the same percentile.
    tail_percentile: float
    probes: list[Op] = field(default_factory=list)


def load_known() -> dict:
    known = json.loads(KNOWN_ANSWERS.read_text())
    missing = set(known["transforms"]["preservers"]) - set(REFERENCE)
    if missing:
        raise ValueError(f"no reference implementation for {sorted(missing)}")
    return known


# ---------------------------------------------------------------------------
# Output checks


def _reject_constant(name):
    raise CheckFailed(f"non-strict JSON constant {name}")


def strict_json(text: str):
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _step(result: StepResult, exits, what: str):
    """Common checks for one CLI call; returns the parsed JSON document, or
    None for an accepted clean usage error (exit 1)."""
    if result.exc is not None:
        raise CheckFailed(f"{what}: raised {result.exc!r}")
    expect(result.code in exits, f"{what}: exit {result.code}, expected one of {exits}")
    if result.code == 1:
        return None
    return strict_json(result.out)


def _verdict_witness_ok(f, key: str, w: dict) -> bool:
    """Re-evaluate a failing verdict's witness (triples included)."""
    if {"p", "q", "l"} <= w.keys():
        p, q, l = w["p"], w["q"], w["l"]
        fp, fq, fl = f(p), f(q), f(l)
        if (fp, fq, fl) != (w["f_p"], w["f_q"], w["f_l"]):
            return False
        if key == "triplet_preservation":
            return 2.0 * max(p, q, l) <= p + q + l and 2.0 * max(fp, fq, fl) > fp + fq + fl
        top = sorted((p, q, l))
        image = min(max(fp, fq), max(fq, fl), max(fp, fl)) == max(fp, fq, fl)
        return top[1] == top[2] and not image
    if {"t1", "t2"} <= w.keys():
        return (w["t1"] < w["t2"] and f(w["t1"]) == w["f_t1"] and f(w["t2"]) == w["f_t2"]
                and w["f_t1"] > w["f_t2"])
    if {"x", "y"} <= w.keys():
        x, y = w["x"], w["y"]
        return (f(x) == w["f_x"] and f(y) == w["f_y"] and f(x + y) == w["f_sum"]
                and w["f_sum"] > w["f_x"] + w["f_y"])
    if "f_0" in w:
        return (f(0.0) == w["f_0"] and f(w["t"]) == w["f_t"]
                and w.get("right_limit", w["f_t"]) != w["f_0"])
    if "t" in w:
        t, ft = w["t"], w["f_t"]
        return f(t) == ft and ((t == 0.0 and ft != 0.0) or (t > 0.0 and ft <= 0.0))
    return False


def _certificate_ok(f, doc: dict) -> bool:
    """Rebuild a witness certificate, re-run verify_certificate on it and
    check that space_after is f applied to space_before."""
    before = FiniteSemimetricSpace(doc["space_before"]["labels"], doc["space_before"]["dist"])
    after = FiniteSemimetricSpace(doc["space_after"]["labels"], doc["space_after"]["dist"])
    v = doc["violation"]
    if v.get("type") == "positivity":
        violation = PositivityViolation(v["indices"][0], v["indices"][1], v["value"])
    elif v.get("type") in ("strong_triangle", "triangle"):
        violation = TripleViolation(tuple(v["indices"]), v["lhs"], v["rhs"], v["type"])
    else:
        violation = v
    cert = WitnessCertificate(doc["kind"], doc["function"], before, after, violation,
                              doc["parameters"])
    n = len(before)
    image = all(after.dist[i, j] == f(float(before.dist[i, j]))
                for i in range(n) for j in range(n) if i != j)
    return image and verify_certificate(cert)


def check_spec(spec: str, answer: dict, results: list[StepResult]) -> None:
    f = parse_function_spec(spec)
    doc = _step(results[0], answer["classify_exit"], "classify")
    if doc is not None:
        expect(doc["function"] == spec, f"classify echoed {doc['function']!r}")
        verdicts = doc["verdicts"]
        for key in ("ultrametric_preserving", "strongly_preserving"):
            got = verdicts[key]["status"]
            expect(got == answer[key], f"classify {key}: {got}, expected {answer[key]}")
        for key, verdict in verdicts.items():
            if verdict["status"] == "fails_with_witness":
                expect(_verdict_witness_ok(f, key, verdict["witness"]),
                       f"classify {key} witness does not re-verify: {verdict['witness']}")
    modes = [("pu", answer["witness_pu"])]
    if answer["witness_pt"] is not None:
        modes.append(("pt", answer["witness_pt"]))
    expect(len(results) == 1 + len(modes), "wrong number of steps")
    for (mode, want), result in zip(modes, results[1:]):
        doc = _step(result, want["exit"], f"witness --mode {mode}")
        if doc is None:
            continue
        if result.code == 4:
            expect(doc.get("result") == "no_witness_found", f"witness {mode}: {doc}")
            continue
        expect(doc["kind"] == want["kind"], f"witness {mode}: kind {doc['kind']}")
        expect(doc["function"] == spec, f"witness {mode}: function {doc['function']!r}")
        expect(_certificate_ok(f, doc), f"witness {mode}: certificate does not re-verify")


def spec_op(spec: str, answer: dict, seed: int, label: str) -> Op:
    steps = [["classify", spec, "--seed", str(seed)], ["witness", spec, "--mode", "pu"]]
    if answer["witness_pt"] is not None:
        steps.append(["witness", spec, "--mode", "pt"])
    return Op(label, steps, lambda results: check_spec(spec, answer, results))


# ---------------------------------------------------------------------------
# classify-catalog


def _dyadic(rng, lo_exp: int, hi_exp: int) -> float:
    return (1.0 + int(rng.integers(8)) / 8.0) * 2.0 ** int(rng.integers(lo_exp, hi_exp + 1))


def planted_zero(rng) -> str:
    base = ZERO_BASES[int(rng.integers(len(ZERO_BASES)))]
    return f"max(0, {base} - {_dyadic(rng, -8, 7)!r})"


def planted_inversion(rng) -> str:
    a = 2.0 ** int(rng.integers(-3, 4))
    b = a * 2.0 ** int(rng.integers(1, 4))
    hi = b * (1.0 + int(rng.integers(4)) / 4.0)
    lo = hi / 2.0 ** int(rng.integers(1, 5))
    return f"piecewise {{ [0.0,{a!r}): t; [{a!r},{b!r}): {hi!r}; [{b!r},inf): {lo!r} }}"


def composition(rng, depth: int) -> str:
    """A spine of `depth` combinators, each over the subtree below and a leaf."""
    leaves = list(COMPOSITION_LEAVES)
    text = leaves[int(rng.integers(len(leaves)))]
    degree = COMPOSITION_LEAVES[text]
    for _ in range(depth):
        kind = ("sum", "min", "max", "pow")[int(rng.integers(4))]
        if kind == "pow":
            exponents = [p for p in (0.5, 2.0, 3.0) if degree * p <= COMPOSITION_MAX_DEGREE]
            p = exponents[int(rng.integers(len(exponents)))]
            text, degree = f"pow({text}, {p!r})", degree * p
            continue
        leaf = leaves[int(rng.integers(len(leaves)))]
        degree = max(degree, COMPOSITION_LEAVES[leaf])
        left, right = (text, leaf) if rng.integers(2) else (leaf, text)
        text = f"{left} + {right}" if kind == "sum" else f"{kind}({left}, {right})"
    return text


def build_classify_catalog(rng, workdir: Path, known: dict, n_rounds: int = 128) -> Plan:
    families = known["classify_families"]
    answers = known["answers"]

    def pick(specs: dict):
        names = sorted(specs)
        spec = names[int(rng.integers(len(names)))]
        return spec, specs[spec]

    rounds = []
    for r in range(n_rounds):
        drawn = [
            ("catalog", *pick(families["catalog"]["specs"])),
            ("preserving_pool", *pick(families["preserving_pool"]["specs"])),
            ("planted_zero", planted_zero(rng), families["planted_zero"]["answer"]),
            ("planted_inversion", planted_inversion(rng), families["planted_inversion"]["answer"]),
            ("step_above", f"step_above({_dyadic(rng, -20, 20)!r})",
             families["step_above"]["answer"]),
            ("composition", composition(rng, COMPOSITION_DEPTHS[r % len(COMPOSITION_DEPTHS)]),
             families["composition"]["answer"]),
        ]
        ops = [spec_op(spec, answers[ans], int(rng.integers(2**31)), fam)
               for fam, spec, ans in drawn]
        rounds.append([ops[i] for i in rng.permutation(len(ops))])
    warmup = spec_op("t", answers["preserves_topology"], 0, "warmup")
    probes = [spec_op(spec, answers[ans], int(rng.integers(2**31)), "known_defect")
              for spec, ans in known["known_defects"]["specs"].items()]
    return Plan(rounds, warmup, 75.0, probes)


# ---------------------------------------------------------------------------
# verify-ultrametric / verify-violated


def first_planted_violation(d: np.ndarray, a: int, b: int, strong: bool) -> dict:
    """The lexicographically first violating ordered triple of an ultrametric
    d whose entry (a, b), a < b, was raised above 2 * max(d): (a, b, k0) with
    k0 the least index outside {a, b}. Every triple that does not have the
    planted entry on its left side only gained on its right side, and the
    planted entry exceeds any sum of two other entries."""
    k0 = next(k for k in range(d.shape[0]) if k not in (a, b))
    rhs = max(d[a, k0], d[k0, b]) if strong else d[a, k0] + d[k0, b]
    return {"type": "strong_triangle" if strong else "triangle",
            "indices": [a, b, k0], "lhs": float(d[a, b]), "rhs": float(rhs)}


def greedy_cover(d: np.ndarray, eps: float) -> int:
    covered = np.zeros(d.shape[0], dtype=bool)
    count = 0
    for i in range(d.shape[0]):
        if not covered[i]:
            count += 1
            covered |= d[i] <= eps
    return count


@dataclass
class Matrix:
    path: Path
    d: np.ndarray
    labels: list[str]
    eps: tuple[float, float]
    transform: str
    planted: Optional[tuple[int, int]] = None
    _spectrum: Optional[list[float]] = None

    @property
    def spectrum(self) -> list[float]:
        if self._spectrum is None:
            n = self.d.shape[0]
            self._spectrum = [float(v) for v in np.unique(self.d[np.triu_indices(n, 1)])]
        return self._spectrum


def _write_matrix(path: Path, labels, d: np.ndarray) -> None:
    path.write_text(json.dumps({"labels": list(labels), "dist": d.tolist()}))


def check_verify(m: Matrix, want: dict, result: StepResult) -> None:
    doc = _step(result, [want["exit"]], "verify")
    n = m.d.shape[0]
    expect(doc["points"] == n, f"verify points {doc['points']}")
    for key, strong in (("ultrametric", True), ("metric", False)):
        got = doc[key]
        expect(got["holds"] is want[key], f"verify {key}.holds = {got['holds']}")
        violation = None if want[key] else first_planted_violation(m.d, *m.planted, strong)
        expect(got["violation"] == violation, f"verify {key}.violation = {got['violation']}")
    expect(doc["spectrum"] == m.spectrum, "verify spectrum differs")
    expect(doc["min_positive_distance"] == m.spectrum[0], "verify min_positive_distance")
    for entry, eps in zip(doc["covering"], m.eps):
        if m.planted is None:  # ultrametric: one ball per cluster of the merge tree at eps
            balls = n - sum(1 for v in m.spectrum if v <= eps)
        else:
            balls = greedy_cover(m.d, eps)
        expect(entry == {"eps": eps, "balls": balls}, f"verify covering {entry}, expected {balls}")
    expect(len(doc["covering"]) == len(m.eps), "verify covering count")


def check_transform(m: Matrix, want: dict, result: StepResult) -> None:
    doc = _step(result, [want["exit"]], "transform")
    ref = REFERENCE[m.transform]
    values, inverse = np.unique(m.d, return_inverse=True)
    image = np.array([ref(float(v)) for v in values])[inverse].reshape(m.d.shape)
    expect(doc["matrix"]["labels"] == m.labels, "transform labels differ")
    expect(np.array_equal(np.array(doc["matrix"]["dist"], dtype=float), image),
           "transform matrix differs from f applied entrywise")
    summary = doc["summary"]
    expected = {
        "function": m.transform,
        "was_ultrametric": want["ultrametric"],
        "is_ultrametric": want["ultrametric"],
        "was_metric": want["metric"],
        "is_metric": want["metric"],
        "spectrum_before": m.spectrum,
        "spectrum_after": sorted({ref(v) for v in m.spectrum}),
    }
    for key, value in expected.items():
        expect(summary[key] == value, f"transform summary {key} = {summary[key]!r}")


def matrix_op(m: Matrix, want: dict) -> Op:
    """One matrix checked end to end: `verify M --eps ...`, then `transform M f`."""
    n = m.d.shape[0]
    eps_args = [arg for e in m.eps for arg in ("--eps", repr(e))]

    def check(results: list[StepResult]) -> None:
        check_verify(m, want, results[0])
        check_transform(m, want, results[1])

    return Op(f"matrix n={n}", [["verify", str(m.path), *eps_args],
                                ["transform", str(m.path), m.transform]], check)


def _ultrametric(rng, n: int):
    space = random_ultrametric(n, int(rng.integers(2**63)))
    return list(space.labels), np.array(space.dist)


def _eps_pair(rng, d: np.ndarray) -> tuple[float, float]:
    levels = np.unique(d[np.triu_indices(d.shape[0], 1)])
    return float(levels[int(rng.integers(len(levels)))]), float(2.0 ** rng.uniform(-20.0, 22.0))


def build_verify_ultrametric(rng, workdir: Path, known: dict) -> Plan:
    preservers = known["transforms"]["preservers"]
    matrices = []
    for i, n in enumerate(VERIFY_SIZES):
        labels, d = _ultrametric(rng, n)
        path = workdir / f"ultrametric-{n}.json"
        _write_matrix(path, labels, d)
        # a fixed transform per size: output length, and so JSON cost, depends on f
        matrices.append(Matrix(path, d, labels, _eps_pair(rng, d),
                               preservers[i % len(preservers)]))
    want = known["verify"]["ultrametric"]
    ops = [matrix_op(m, want) for m in matrices]
    return Plan([ops], ops[0], 75.0)


def plant_rows(rng, n: int) -> list[int]:
    """Three planted rows for an n-point space, at 1/4 and 1/2 of [0, n-2]
    plus a seeded offset of at most one row, and the mirror of the first.
    The scan cost (~a * n^2) of each moves by at most ~1/(n/4) between seeds."""
    top = n - 2
    low, mid = (min(top, max(0, round(top * q) + int(rng.integers(-1, 2)))) for q in (0.25, 0.5))
    return [low, mid, top - low]


def build_verify_violated(rng, workdir: Path, known: dict) -> Plan:
    convex = known["transforms"]["convex"]
    matrices = []
    for n in VIOLATED_SIZES:
        for a in plant_rows(rng, n):
            b = int(rng.integers(a + 1, n))
            labels, d = _ultrametric(rng, n)
            d[a, b] = d[b, a] = PLANT_FACTOR * d.max()
            path = workdir / f"violated-{n}-{a}-{b}.json"
            _write_matrix(path, labels, d)
            matrices.append(Matrix(path, d, labels, _eps_pair(rng, d),
                                   convex[len(matrices) % len(convex)], planted=(a, b)))
    want = known["verify"]["violated"]
    ops = [matrix_op(m, want) for m in matrices]
    return Plan([ops], ops[0], 90.0)


# ---------------------------------------------------------------------------
# suite


def check_suite(seed: int, summary: Path, known: dict, results: list[StepResult]) -> None:
    want = known["suite"]
    result = results[0]
    if result.exc is not None:
        raise CheckFailed(f"suite: raised {result.exc!r}")
    expect(result.code == want["exit"], f"suite: exit {result.code}")
    lines = [f"[PASS] {name}" for name in want["criteria"]]
    lines.append(f"summary written to {summary}")
    expect(result.out.splitlines() == lines, f"suite stdout: {result.out!r}")
    doc = strict_json(summary.read_text())
    expect(doc["passed"] is True, "suite summary: passed is not true")
    config = doc["config"]
    expect(config["seed"] == seed, f"suite summary seed {config['seed']}")
    for key, value in want["config"].items():
        expect(config[key] == value, f"suite summary config {key} = {config[key]}")
    names = [r["name"] for r in doc["results"]]
    expect(names == want["criteria"], f"suite criteria {names}")
    expect(all(r["passed"] is True for r in doc["results"]), "suite: a criterion failed")


def suite_op(seed: int, workdir: Path, known: dict, label: str = "suite") -> Op:
    summary = workdir / "suite_summary.json"
    return Op(label, [["suite", "--seed", str(seed), "--out", str(summary)]],
              lambda results: check_suite(seed, summary, known, results))


def build_suite(rng, workdir: Path, known: dict, n_rounds: int = 64) -> Plan:
    rounds = [[suite_op(int(rng.integers(2**31)), workdir, known)] for _ in range(n_rounds)]
    # about six 4 s ops per run: no percentile has 10 samples beyond it, so the maximum
    return Plan(rounds, suite_op(int(rng.integers(2**31)), workdir, known, "warmup"), 100.0)


WORKLOADS = {
    "classify-catalog": build_classify_catalog,
    "verify-ultrametric": build_verify_ultrametric,
    "verify-violated": build_verify_violated,
    "suite": build_suite,
}
