"""In-process fuzz of the command line: any flag string gives an answer or one error line.

Hypothesis drives ``cli.main`` over ``coeffs``, ``prob``, ``marginal``,
``chsh``, single-speed ``scan`` and ``verify --tolerance``.  Every numeric
flag is drawn from all doubles (huge, subnormal, -0.0, nan and inf among
them), from the accepted speeds [0, 1], from a fixed list of edge spellings
(non-finite, overflowing, subnormal, negative zero, empty, non-numeric)
and from arbitrary short text.  Each value is passed as ``--flag=value``,
so a value that starts with a minus sign reaches the flag's parser instead
of reading as another option.  Whatever is drawn:

* ``main`` returns 0, 1 or 3, or argparse exits with status 2, and no other
  exception escapes;
* exit 1 writes exactly one line, an ``error:`` line, to stderr;
* ``--format json`` output parses as strict JSON (no NaN or Infinity);
* CSV output starts with the header of its record.

A multi-speed ``scan --beta-range`` is not drawn: it costs one violation
search per speed, up to 10 001 of them, and bounding that cost belongs to
the batched search, not to this test.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spincorr.cli import SCAN_CSV_COLUMNS, main

EDGE_SPELLINGS = (
    "nan", "-nan", "inf", "-inf", "1e309", "-1e309", "1e308", "-1.7976931348623157e308",
    "5e-324", "-5e-324", "2.2250738585072014e-308", "-0", "-0.0", "0", "1", "0.5",
    "", " ", "abc", "0x10", "1_000", "--", "1,2", "1e", "١",
)
numbers = st.one_of(
    st.floats().map(repr),
    st.floats(0.0, 1.0).map(repr),
    st.sampled_from(EDGE_SPELLINGS),
    st.text(max_size=6),
)
models = st.sampled_from(("polarized", "unpolarized"))
point_formats = st.sampled_from(("pretty", "json", "csv"))
# Steps that divide 360 degrees, the finest accepted one included.
grid_steps = st.one_of(numbers, st.sampled_from(("0.25", "2", "7.2", "30", "120", "360")))


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, f"{argv}: argparse exited with {exc.code!r}"
            return 2, out.getvalue(), err.getvalue()
    return code, out.getvalue(), err.getvalue()


def _check(argv: list[str], csv_header: str | None = None, allowed=(0, 1)) -> None:
    code, out, err = _run(argv)
    assert code in allowed + (2,), f"{argv}: exit {code!r}"
    if code == 1:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), f"{argv}: stderr {err!r}"
    if code not in (0, 3):
        return
    fmt = next(a.split("=", 1)[1] for a in argv if a.startswith("--format="))
    if fmt == "json":
        json.loads(out, parse_constant=_reject_constant)
    elif fmt == "csv":
        assert out.splitlines()[0] == csv_header, f"{argv}: {out!r}"


POINT_HEADERS = {
    "coeffs": "beta,rho,a,b,c,d",
    "prob": "model,beta,chi1_deg,chi2_deg,P,in_range,marginal_1,marginal_2",
    "chsh": ",".join(SCAN_CSV_COLUMNS),
}


@settings(max_examples=150, deadline=2000)
@given(
    command=st.sampled_from(("coeffs", "prob", "marginal", "chsh")),
    model=models,
    beta=numbers,
    chi1=st.none() | numbers,
    chi2=st.none() | numbers,
    angles=st.lists(numbers, min_size=0, max_size=5).map(",".join) | st.text(max_size=12),
    fmt=point_formats,
)
def test_point_commands(command, model, beta, chi1, chi2, angles, fmt):
    argv = [command, f"--beta={beta}", f"--format={fmt}"]
    header = POINT_HEADERS.get(command)
    if command != "coeffs":
        argv.append(f"--model={model}")
    if command == "chsh":
        argv.append(f"--angles={angles}")
    elif command == "prob":
        argv += [f"--chi{i}={'0' if chi is None else chi}" for i, chi in ((1, chi1), (2, chi2))]
    elif command == "marginal":
        header = "model,beta"
        for which, chi in ((1, chi1), (2, chi2)):
            if chi is not None:
                argv.append(f"--chi{which}={chi}")
                header += f",chi{which}_deg,marginal_{which}"
    _check(argv, header)


@settings(max_examples=40, deadline=2000)
@given(model=models, beta=numbers, step=grid_steps, fmt=st.sampled_from(("csv", "json")))
def test_single_speed_scan(model, beta, step, fmt):
    _check(["scan", f"--model={model}", f"--beta={beta}", f"--grid-step={step}", f"--format={fmt}"],
           ",".join(SCAN_CSV_COLUMNS))


@settings(max_examples=8, deadline=2000)
@given(tolerance=numbers, fmt=st.sampled_from(("pretty", "json")), strict=st.booleans())
def test_verify_tolerance(tolerance, fmt, strict):
    argv = ["verify", f"--tolerance={tolerance}", f"--format={fmt}"]
    _check(argv + ["--strict-cross-oracle"] * strict, allowed=(0, 1, 3))


@pytest.mark.parametrize(
    "argv",
    [
        ["prob", "--model=polarized", "--beta=nan", "--chi1=0", "--chi2=0", "--format=json"],
        ["chsh", "--model=polarized", "--beta=0.5", "--angles=1e309,0,0,0", "--format=csv"],
        ["scan", "--model=unpolarized", "--beta=0.5", "--grid-step=5e-324", "--format=json"],
        ["verify", "--tolerance=-0", "--format=json"],
    ],
)
def test_rejected_values_give_one_error_line(argv):
    code, out, err = _run(argv)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_dash_dash_value_is_a_usage_error():
    # argparse hands `--flag=--` over as an empty list; it used to reach
    # SearchSettings and escape as a TypeError.
    code, out, err = _run(["scan", "--model=polarized", "--beta=0.5", "--grid-step=--"])
    assert (code, out) == (2, "")
    assert "argument --grid-step: expected one argument" in err


def test_largest_double_stays_finite_in_json():
    # Snapping to 15 significant digits used to round it up to -Infinity.
    code, out, _ = _run(
        ["prob", "--model=polarized", "--beta=0", "--chi1=0", "--chi2=-1.7976931348623157e308", "--format=json"]
    )
    assert code == 0
    assert json.loads(out, parse_constant=_reject_constant)["chi2_deg"] == -1.7976931348623157e308
