"""Workload inputs, operations and output checks for the spincorr benchmark.

Every workload is a closed loop with one client: the next operation starts
only when the previous one has returned and been checked.  Inputs come from
the workload seed alone; the library only ever sees the generated speeds and
angles.

Speeds are drawn from fixed lattices (k / SCAN_LATTICE and k / VERIFY_LATTICE)
so that ``goldens.json`` can hold the seed-commit result for every speed any
seed can draw; the checks then compare against those values whatever the seed.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from spincorr import chsh, cli, closed_form, verification
from spincorr.closed_form import CorrelationModel
from spincorr.kinematics import Speed

GOLDENS_PATH = Path(__file__).resolve().parent / "goldens.json"

# scan: the 2 degree grid sets the search's peak memory (n^3 part arrays).
SCAN_GRID_STEP_DEG = 2.0
SCAN_LATTICE = 200            # scan speeds are k / 200 for k < SCAN_LATTICE_COUNT
SCAN_LATTICE_COUNT = 198      # keeps every speed in [0, 0.99)
SCAN_SPEEDS_PER_SEED = 60    # 120 searches: a run sees a third of the lattice, so seeds agree

VERIFY_LATTICE = 100          # fit speeds are k / 100, k in [0, 100)
VERIFY_OPS_PER_SEED = 8       # distinct fit-speed triples cycled through
VERIFY_SPEEDS_PER_OP = 3

CLI_OPS_PER_SEED = 48
CLI_SUBCOMMANDS = ("coeffs", "prob", "marginal", "chsh")
CLI_FORMATS = ("pretty", "json", "csv")
CLI_TIMEOUT_S = 120.0

# Tolerances for comparing outputs with the in-process or seed-commit values.
# A refactor that reorders floating-point arithmetic must still pass them.
ROUND_TRIP_TOL = 1e-12        # S re-evaluated at the reported angles
SCAN_NO_WORSE_TOL = 1e-9      # S may not exceed the seed-commit S by more
GOLDEN_TOL = 1e-9             # fit tables and cross-check deviations
CLI_REL_TOL = 1e-12           # JSON carries 15 significant digits

MODELS = (CorrelationModel.POLARIZED, CorrelationModel.UNPOLARIZED)


def load_goldens(path: Path = GOLDENS_PATH) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _close(value: float, expected: float, rel: float, scale: float | None = None) -> bool:
    """|value - expected| <= rel * scale, with scale defaulting to max(1, |expected|)."""
    if scale is None:
        scale = max(1.0, abs(expected))
    return math.isfinite(value) and abs(value - expected) <= rel * scale


def _vectors_close(values, expected, rel: float) -> bool:
    values, expected = list(values), list(expected)
    scale = max([1e-300] + [abs(e) for e in expected])
    return len(values) == len(expected) and all(
        _close(v, e, rel, scale) for v, e in zip(values, expected)
    )


# ----------------------------------------------------------------------
# scan: one op is one (model, speed) violation search
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ScanOp:
    model: CorrelationModel
    k: int

    @property
    def beta(self) -> float:
        return self.k / SCAN_LATTICE


class ScanWorkload:
    name = "scan"
    trace_pass_ops = 40     # a traced pass: 20 speeds x 2 models, about 260k spans

    def __init__(self, seed: int, goldens: dict):
        rng = random.Random(f"scan/{seed}")
        ks = rng.sample(range(SCAN_LATTICE_COUNT), SCAN_SPEEDS_PER_SEED)
        self.ops = [ScanOp(model, k) for k in ks for model in MODELS]
        self.settings = chsh.SearchSettings(grid_step_deg=SCAN_GRID_STEP_DEG)
        self.goldens = goldens["scan"]

    def run(self, op: ScanOp):
        return chsh.search_violation(op.model, Speed(op.beta), self.settings)

    def check(self, op: ScanOp, result) -> str | None:
        if result.model is not op.model or result.beta != op.beta:
            return f"{op}: result is for {result.model} at beta={result.beta!r}"
        again = chsh.s_value(op.model, Speed(op.beta), result.angles).s_value
        if not _close(again, result.s_value, ROUND_TRIP_TOL):
            return f"{op}: S={result.s_value!r} but s_value at its angles gives {again!r}"
        golden = self.goldens["S"][op.model.value][op.k]
        if not result.s_value <= golden + SCAN_NO_WORSE_TOL:
            return f"{op}: S={result.s_value!r} is worse than the seed-commit S={golden!r}"
        return None


# ----------------------------------------------------------------------
# verify: one op is one full verification battery
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyOp:
    ks: tuple[int, ...]

    @property
    def betas(self) -> tuple[float, ...]:
        return tuple(k / VERIFY_LATTICE for k in self.ks)


class VerifyWorkload:
    name = "verify"
    trace_pass_ops = 1      # one battery already makes about 90k spans

    def __init__(self, seed: int, goldens: dict):
        rng = random.Random(f"verify/{seed}")
        self.ops = [
            VerifyOp(tuple(rng.sample(range(VERIFY_LATTICE), VERIFY_SPEEDS_PER_OP)))
            for _ in range(VERIFY_OPS_PER_SEED)
        ]
        self.goldens = goldens["verify"]

    def run(self, op: VerifyOp):
        return verification.run_verification(fit_betas=op.betas)

    def check(self, op: VerifyOp, report) -> str | None:
        if not report.identities_pass:
            failing = [c.name for c in report.identities if not c.passed]
            return f"{op}: internal identities fail: {failing}"
        anchors = [a.s_computed for a in report.anchors]
        if not _vectors_close(anchors, self.goldens["anchors"], ROUND_TRIP_TOL):
            return f"{op}: anchor S {anchors} != seed-commit {self.goldens['anchors']}"
        if len(report.consistency) != 2 * len(op.ks) or len(report.cross_oracle) != len(op.ks):
            return f"{op}: expected one fit per model and one cross check per speed"
        for i, k in enumerate(op.ks):
            golden = self.goldens["tables"][k]
            for rep in report.consistency[2 * i : 2 * i + 2]:
                want = golden[rep.model.value]
                for field in ("fitted", "printed"):
                    if not _vectors_close(getattr(rep, field), want[field], GOLDEN_TOL):
                        return f"{op}: {rep.model.value} {field} at beta={rep.beta} differs"
                deviations = want["relative_deviation"]
                if len(rep.relative_deviation) != len(deviations) or not all(
                    _close(v, e, GOLDEN_TOL, 1.0) for v, e in zip(rep.relative_deviation, deviations)
                ):
                    return f"{op}: {rep.model.value} deviation table at beta={rep.beta} differs"
                if not _close(rep.scale, want["scale"], GOLDEN_TOL, abs(want["scale"])):
                    return f"{op}: {rep.model.value} fit scale at beta={rep.beta} differs"
            cross = report.cross_oracle[i]
            want = golden["cross"]
            if not _close(cross.scale, want["scale"], GOLDEN_TOL, abs(want["scale"])):
                return f"{op}: cross-check scale at beta={cross.beta} differs"
            if not _close(cross.max_rel_deviation, want["max_rel_deviation"], GOLDEN_TOL, 1.0):
                return f"{op}: cross-check deviation at beta={cross.beta} differs"
        return None


# ----------------------------------------------------------------------
# cli: one op is one `python -m spincorr` command
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CliOp:
    argv: tuple[str, ...]
    expected: tuple[tuple[str, object], ...]   # (output key, value) pairs to check

    @property
    def fmt(self) -> str:
        return self.argv[self.argv.index("--format") + 1]


@dataclass(frozen=True)
class CliResult:
    returncode: int
    stdout: str


def _expected_values(sub: str, fmt: str, model, beta: float, angles: dict) -> dict:
    """In-process evaluation, through the public API, of what a command prints."""
    speed = Speed(beta)
    if sub == "coeffs":
        cs = closed_form.coefficients(speed)
        return {"rho": cs.rho, "a": cs.a, "b": cs.b, "c": cs.c, "d": cs.d}
    if sub == "prob":
        chi1, chi2 = math.radians(angles["chi1"]), math.radians(angles["chi2"])
        prob = closed_form.joint_probability(model, speed, chi1, chi2)
        return {
            "P": prob.value,
            "in_range": prob.in_range,
            "marginal_1": float(closed_form.marginal(model, speed, 1, chi1)),
            "marginal_2": float(closed_form.marginal(model, speed, 2, chi2)),
        }
    if sub == "marginal":
        return {
            f"marginal_{i}": float(closed_form.marginal(model, speed, i, math.radians(angles[f"chi{i}"])))
            for i in (1, 2)
            if f"chi{i}" in angles
        }
    quad = chsh.AngleQuad.from_degrees(*(angles[k] for k in ("chi1", "chi2", "chi1p", "chi2p")))
    result = chsh.s_value(model, speed, quad)
    values = {"S": result.s_value, "violated": result.violated}
    if fmt != "csv":  # the CSV row carries S but not the six terms
        values.update(zip(chsh.TERM_NAMES, result.terms))
    return values


def _cli_op(rng: random.Random) -> CliOp:
    sub = rng.choice(CLI_SUBCOMMANDS)
    fmt = rng.choice(CLI_FORMATS)
    model = rng.choice(MODELS)
    beta = round(rng.uniform(0.0, 0.99), 6)
    deg = lambda: round(rng.uniform(0.0, 360.0), 3)
    if sub == "coeffs":
        angles = {}
    elif sub == "prob":
        angles = {"chi1": deg(), "chi2": deg()}
    elif sub == "marginal":
        angles = {key: deg() for key in rng.choice((("chi1",), ("chi2",), ("chi1", "chi2")))}
    else:
        angles = {key: deg() for key in ("chi1", "chi2", "chi1p", "chi2p")}
    argv = [sub]
    if sub != "coeffs":
        argv += ["--model", model.value]
    argv += ["--beta", repr(beta)]
    if sub == "chsh":
        argv += ["--angles", ",".join(repr(angles[k]) for k in ("chi1", "chi2", "chi1p", "chi2p"))]
    else:
        for key, value in angles.items():
            argv += [f"--{key}", repr(value)]
    argv += ["--format", fmt]
    expected = _expected_values(sub, fmt, model, beta, angles)
    return CliOp(tuple(argv), tuple(expected.items()))


def parse_cli_output(fmt: str, text: str) -> dict:
    """Flatten a command's stdout, in any of the three formats, into key -> value."""
    if fmt == "json":
        data = json.loads(text)
        data.update(data.pop("terms", {}))
        return data
    if fmt == "csv":
        lines = text.splitlines()
        if len(lines) != 2:
            raise ValueError(f"expected a header and one row, got {len(lines)} lines")
        header, row = lines[0].split(","), lines[1].split(",")
        if len(header) != len(row):
            raise ValueError("CSV header and row differ in length")
        return dict(zip(header, row))
    parsed = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if not sep:
            raise ValueError(f"unparsable line {line!r}")
        parsed[key] = ast.literal_eval(value)
    return parsed


def _as_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    if str(value).lower() in ("true", "false"):
        return str(value).lower() == "true"
    raise ValueError(f"not a boolean: {value!r}")


class CliWorkload:
    name = "cli"
    trace_pass_ops = None

    def __init__(self, seed: int, goldens: dict, root: Path | None = None, env: dict | None = None):
        rng = random.Random(f"cli/{seed}")
        self.ops = [_cli_op(rng) for _ in range(CLI_OPS_PER_SEED)]
        self.root = root
        self.env = env

    def run(self, op: CliOp) -> CliResult:
        proc = subprocess.run(
            [sys.executable, "-m", "spincorr", *op.argv],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=CLI_TIMEOUT_S,
        )
        return CliResult(proc.returncode, proc.stdout)

    def run_inprocess(self, op: CliOp) -> CliResult:
        """The same command through ``cli.main`` in this process, output captured."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
        return CliResult(code, out.getvalue())

    def check(self, op: CliOp, result: CliResult) -> str | None:
        if result.returncode != 0:
            return f"{' '.join(op.argv)}: exit code {result.returncode}"
        try:
            parsed = parse_cli_output(op.fmt, result.stdout)
            for key, want in op.expected:
                if key not in parsed:
                    return f"{' '.join(op.argv)}: output lacks {key!r}"
                got = parsed[key]
                if isinstance(want, bool):
                    ok = _as_bool(got) is want
                else:
                    ok = _close(float(got), want, CLI_REL_TOL, max(abs(want), 1e-3))
                if not ok:
                    return f"{' '.join(op.argv)}: {key} = {got!r}, in-process value {want!r}"
        except (ValueError, SyntaxError, TypeError) as exc:
            return f"{' '.join(op.argv)}: cannot parse output: {exc}"
        return None


WORKLOADS = {w.name: w for w in (ScanWorkload, VerifyWorkload, CliWorkload)}
