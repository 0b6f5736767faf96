"""Command-line front end.

Subcommands: coeffs, prob, marginal, chsh, scan, verify.  Angles are taken
in degrees at this boundary and converted once; everything downstream is
radians.  Data goes to stdout (or --out), diagnostics to stderr.  Exit
codes: 0 success, 1 domain error, 2 usage error.  This is the only module
that knows an output format: every JSON record, report dataclasses
included, goes through one walker (``_plain``), which emits numbers with
15 significant digits so round-trip identities are testable; scan rows are
also written here, as CSV or JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields, is_dataclass
from enum import Enum
from typing import Sequence

from .chsh import TERM_NAMES, AngleQuad, ChshResult, SearchSettings, beta_scan, s_value, violation_fraction
from .closed_form import CorrelationModel, coefficients, joint_probability, marginal
from .kinematics import Speed
from .oracle import DEFAULT_COEFF_TOLERANCE
from .verification import reference_for, run_verification


def _plain(obj):
    """JSON-ready copy of any record or report the CLI writes.

    Dataclasses become dicts in field order, enums their value, tuples
    lists, and floats snap to 15 significant digits for stable output.
    """
    if isinstance(obj, float):
        return float(f"{obj:.15g}")
    if isinstance(obj, Enum):
        return obj.value
    if is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def _dump_json(payload) -> str:
    return json.dumps(_plain(payload), indent=2) + "\n"


SCAN_CSV_COLUMNS = ("beta", "model", "chi1_deg", "chi2_deg", "chi1p_deg", "chi2p_deg", "S", "violated")


def scan_csv(results: Sequence[ChshResult]) -> str:
    """Render scan rows as CSV; floats use repr so parsing round-trips exactly."""
    lines = [",".join(SCAN_CSV_COLUMNS)]
    for r in results:
        degs = r.angles.degrees_mod_360()
        cells = [repr(r.beta), r.model.value]
        cells += [repr(a) for a in degs]
        cells += [repr(r.s_value), "true" if r.violated else "false"]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def scan_json_payload(results: Sequence[ChshResult]) -> list[dict]:
    """JSON mirror of the CSV rows, with the six per-term probabilities."""
    return [
        {
            "beta": r.beta,
            "model": r.model.value,
            "angles_deg": dict(zip(("chi1", "chi2", "chi1p", "chi2p"), r.angles.degrees_mod_360())),
            "terms": dict(zip(TERM_NAMES, r.terms)),
            "S": r.s_value,
            "violated": r.violated,
        }
        for r in results
    ]


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _parse_model(name: str) -> CorrelationModel:
    return CorrelationModel(name)


# Most speeds one scan accepts: a 1e-4 step across [0, 1].
MAX_SCAN_SPEEDS = 10_001


def _parse_beta_range(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"--beta-range expects lo:hi:step, got {spec!r}")
    lo, hi, step = (float(p) for p in parts)
    if not (0.0 <= lo <= 1.0 and 0.0 <= hi <= 1.0 and 0.0 < step < math.inf):
        raise ValueError(f"--beta-range needs bounds in [0, 1] and a finite step > 0, got {spec!r}")
    span = (hi - lo) / step + 1e-9   # inf for a tiny step, so bounded before floor()
    if span >= MAX_SCAN_SPEEDS:
        raise ValueError(f"--beta-range {spec!r} gives more than {MAX_SCAN_SPEEDS} speeds")
    values = [lo + i * step for i in range(math.floor(span) + 1)]
    values = [v for v in values if v <= hi + 1e-12]
    if not values:
        raise ValueError(f"--beta-range {spec!r} holds no speed: lo is above hi")
    return values


def _parse_angles(spec: str) -> tuple[float, float, float, float]:
    parts = spec.split(",")
    if len(parts) != 4:
        raise ValueError(f"--angles expects four comma-separated degrees, got {spec!r}")
    return tuple(float(p) for p in parts)


def _radians(flag: str, degrees: float) -> float:
    if not math.isfinite(degrees):
        raise ValueError(f"angle {flag} = {degrees!r} is not finite")
    return math.radians(degrees)


def _kv_lines(pairs) -> str:
    return "".join(f"{key} = {value!r}\n" for key, value in pairs)


def _emit_record(pairs, args) -> int:
    """Write one record of (name, value) pairs in the chosen format."""
    if args.format == "json":
        text = _dump_json(dict(pairs))
    elif args.format == "csv":
        cells = [repr(v) if isinstance(v, float) else str(v) for _, v in pairs]
        text = ",".join(k for k, _ in pairs) + "\n" + ",".join(cells) + "\n"
    else:
        text = _kv_lines(pairs)
    _emit(text, args.out)
    return 0


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def _cmd_coeffs(args) -> int:
    cs = coefficients(Speed(args.beta))
    pairs = [("beta", args.beta), ("rho", cs.rho), ("a", cs.a), ("b", cs.b), ("c", cs.c), ("d", cs.d)]
    return _emit_record(pairs, args)


def _cmd_prob(args) -> int:
    model = _parse_model(args.model)
    speed = Speed(args.beta)
    chi1 = _radians("--chi1", args.chi1)
    chi2 = _radians("--chi2", args.chi2)
    prob = joint_probability(model, speed, chi1, chi2)
    pairs = [
        ("model", model.value),
        ("beta", args.beta),
        ("chi1_deg", args.chi1),
        ("chi2_deg", args.chi2),
        ("P", prob.value),
        ("in_range", prob.in_range),
        ("marginal_1", float(marginal(model, speed, 1, chi1))),
        ("marginal_2", float(marginal(model, speed, 2, chi2))),
    ]
    return _emit_record(pairs, args)


def _cmd_marginal(args) -> int:
    model = _parse_model(args.model)
    speed = Speed(args.beta)
    if args.chi1 is None and args.chi2 is None:
        raise ValueError("marginal needs --chi1 and/or --chi2")
    pairs = [("model", model.value), ("beta", args.beta)]
    for which, chi in ((1, args.chi1), (2, args.chi2)):
        if chi is not None:
            value = float(marginal(model, speed, which, _radians(f"--chi{which}", chi)))
            pairs += [(f"chi{which}_deg", chi), (f"marginal_{which}", value)]
    return _emit_record(pairs, args)


def _cmd_chsh(args) -> int:
    model = _parse_model(args.model)
    speed = Speed(args.beta)
    angles_deg = _parse_angles(args.angles)
    result = s_value(model, speed, AngleQuad.from_degrees(*angles_deg))
    reference = reference_for(model, args.beta, angles_deg)
    payload = scan_json_payload([result])[0]
    if reference is not None:
        payload["S_reference"] = reference.s_reference
        payload["gap"] = abs(result.s_value - reference.s_reference)
    if args.format == "json":
        _emit(_dump_json(payload), args.out)
    elif args.format == "csv":
        _emit(scan_csv([result]), args.out)
        if reference is not None:
            print(f"reference: {reference.s_reference}", file=sys.stderr)
    else:
        pairs = [("model", model.value), ("beta", args.beta), ("angles_deg", tuple(angles_deg))]
        pairs += zip(TERM_NAMES, result.terms)
        pairs += [("S", result.s_value), ("violated", result.violated)]
        if reference is not None:
            pairs += [("reference", reference.s_reference), ("gap", payload["gap"])]
        _emit(_kv_lines(pairs), args.out)
    return 0


def _cmd_scan(args) -> int:
    model = _parse_model(args.model)
    if args.beta_range:
        betas = _parse_beta_range(args.beta_range)
    elif args.beta is not None:
        betas = [args.beta]
    else:
        raise ValueError("scan needs --beta or --beta-range")
    settings = SearchSettings(grid_step_deg=args.grid_step)
    results = beta_scan(model, [Speed(b) for b in betas], settings)
    if args.format == "json":
        _emit(_dump_json(scan_json_payload(results)), args.out)
    else:
        _emit(scan_csv(results), args.out)
    print(
        f"scan: {len(results)} speeds, violation fraction {violation_fraction(results):.3f}",
        file=sys.stderr,
    )
    return 0


def _render_verify_pretty(report) -> str:
    lines = ["== reference points =="]
    for anchor in report.anchors:
        lines.append(
            f"{anchor.model.value} beta={anchor.beta:g} angles_deg={anchor.angles_deg}: "
            f"S_computed = {anchor.s_computed!r}, S_reference = {anchor.s_reference!r}, "
            f"gap = {anchor.gap:.6f} (informational)"
        )
    lines.append("== internal identities ==")
    for check in report.identities:
        status = "pass" if check.passed else "FAIL"
        lines.append(
            f"[{status}] {check.name}: max error {check.max_error:.3e} "
            f"(tolerance {check.tolerance:.1e})"
        )
    lines.append("== oracle fit versus closed form (informational) ==")
    for rep in report.consistency:
        lines.append(
            f"{rep.model.value} beta={rep.beta:g}: scale={rep.scale:.6g} "
            f"residual={rep.residual:.3e} verdict={'agree' if rep.verdict else 'DISAGREE'}"
        )
        lines.append(f"  fitted/scale = {[f'{c / rep.scale:+.6f}' for c in rep.fitted]}")
        lines.append(f"  closed form  = {[f'{c:+.6f}' for c in rep.printed]}")
        lines.append(f"  rel. deviation = {[f'{d:.2e}' for d in rep.relative_deviation]}")
    lines.append("== cross check: trace expression vs spin average ==")
    for rep in report.cross_oracle:
        status = "agree" if rep.agree else "DISAGREE"
        lines.append(
            f"beta={rep.beta:g}: scale={rep.scale:.6g} "
            f"max rel deviation={rep.max_rel_deviation:.3e} [{status}]"
        )
    lines.append(f"identities {'PASS' if report.identities_pass else 'FAIL'}")
    return "\n".join(lines) + "\n"


def _cmd_verify(args) -> int:
    if not (math.isfinite(args.tolerance) and args.tolerance > 0.0):
        raise ValueError(f"--tolerance must be finite and > 0, got {args.tolerance!r}")
    report = run_verification(coeff_tolerance=args.tolerance)
    if args.format == "json":
        summary = {"identities_pass": report.identities_pass, "cross_oracle_agree": report.cross_oracle_agree}
        _emit(_dump_json({**vars(report), **summary}), args.out)
    else:
        _emit(_render_verify_pretty(report), args.out)
    if not report.identities_pass:
        print("verify: internal identity failure", file=sys.stderr)
        return 1
    if args.strict_cross_oracle and not report.cross_oracle_agree:
        print("verify: cross-oracle deviation above tolerance (strict mode)", file=sys.stderr)
        return 3
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spincorr",
        description="Spin-correlation probabilities and CHSH violation search "
        "for elastic electron-positron scattering at tree level.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("pretty", "json", "csv"), default="pretty")
        p.add_argument("--out", default=None, help="write data to this file instead of stdout")

    p = sub.add_parser("coeffs", help="speed-dependent weights of the polarized template")
    p.add_argument("--beta", type=float, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("prob", help="joint probability and both marginals")
    p.add_argument("--model", choices=("polarized", "unpolarized"), required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--chi1", type=float, required=True, help="degrees")
    p.add_argument("--chi2", type=float, required=True, help="degrees")
    add_common(p)
    p.set_defaults(func=_cmd_prob)

    p = sub.add_parser("marginal", help="single-spin probabilities")
    p.add_argument("--model", choices=("polarized", "unpolarized"), required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--chi1", type=float, default=None, help="degrees")
    p.add_argument("--chi2", type=float, default=None, help="degrees")
    add_common(p)
    p.set_defaults(func=_cmd_marginal)

    p = sub.add_parser("chsh", help="six-term CHSH combination at fixed angles")
    p.add_argument("--model", choices=("polarized", "unpolarized"), required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--angles", required=True, help="chi1,chi2,chi1p,chi2p in degrees")
    add_common(p)
    p.set_defaults(func=_cmd_chsh)

    p = sub.add_parser("scan", help="violation search over a range of speeds")
    p.add_argument("--model", choices=("polarized", "unpolarized"), required=True)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--beta-range", default=None,
                   help=f"lo:hi:step, at most {MAX_SCAN_SPEEDS} speeds; each speed costs one violation search")
    p.add_argument("--grid-step", type=float, default=5.0,
                   help="sample grid step in degrees; the search is exact, so S moves with it only at roundoff")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser(
        "verify",
        help="anchors, identity battery, oracle template weights (read from the polarized kernel "
        "and the unpolarized probe matrix, gated on a 24x24 grid), cross checks",
    )
    p.add_argument("--tolerance", type=float, default=DEFAULT_COEFF_TOLERANCE,
                   help="coefficient agreement tolerance for fit verdicts (finite, > 0)")
    p.add_argument("--strict-cross-oracle", action="store_true",
                   help="exit nonzero when the trace expression disagrees with the spin average")
    p.add_argument("--format", choices=("pretty", "json"), default="pretty")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
