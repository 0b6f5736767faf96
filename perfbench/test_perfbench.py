"""Tests of the benchmark itself: its checks, its inputs and its tracer."""

import dataclasses
import json

import pytest

import run as bench
import workloads as wl
from tracer import Tracer, layer_metrics
from spincorr import chsh, closed_form, oracle
from spincorr.closed_form import CorrelationModel
from spincorr.dirac import FourVector
from spincorr.kinematics import Speed


@pytest.fixture(scope="module")
def goldens():
    return wl.load_goldens()


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_seed_determines_inputs(goldens, name):
    make = wl.WORKLOADS[name]
    assert make(7, goldens).ops == make(7, goldens).ops
    assert make(7, goldens).ops != make(8, goldens).ops


def test_scan_check_rejects_corrupted_s(goldens):
    workload = wl.ScanWorkload(1, goldens)
    op = workload.ops[0]
    result = workload.run(op)
    assert workload.check(op, result) is None
    corrupted = dataclasses.replace(result, s_value=result.s_value - 1e-6)
    assert "s_value at its angles" in workload.check(op, corrupted)


def test_scan_check_rejects_s_worse_than_seed_commit(goldens):
    workload = wl.ScanWorkload(1, goldens)
    op = workload.ops[0]
    result = workload.run(op)
    workload.goldens = {"S": {op.model.value: {op.k: result.s_value - 1e-6}}}
    assert "worse than the seed-commit" in workload.check(op, result)


def test_cli_checks_pass_in_process_and_reject_wrong_values(goldens):
    workload = wl.CliWorkload(3, goldens)
    assert {op.fmt for op in workload.ops} == set(wl.CLI_FORMATS)
    for op in workload.ops:
        assert workload.check(op, workload.run_inprocess(op)) is None, op.argv

    op = next(op for op in workload.ops if op.fmt == "json")
    good = workload.run_inprocess(op)
    data = json.loads(good.stdout)
    key = op.expected[0][0]
    data[key] = (data[key] + 0.25) if not isinstance(data[key], bool) else not data[key]
    assert key in workload.check(op, wl.CliResult(0, json.dumps(data)))
    assert "exit code 1" in workload.check(op, wl.CliResult(1, good.stdout))
    assert "cannot parse" in workload.check(op, wl.CliResult(0, "not output"))


def test_cli_runs_as_a_child_process(goldens):
    workload = wl.CliWorkload(3, goldens, root=bench.ROOT, env=bench.child_env())
    op = workload.ops[0]
    assert workload.check(op, workload.run(op)) is None


def test_failed_and_raising_ops_are_counted():
    class Failing:
        def check(self, op, result):
            return None if result == op else f"{result} != {op}"

    outcome = bench.Outcome()
    outcome.record(Failing(), 1, lambda op: op)
    outcome.record(Failing(), 1, lambda op: op + 1)
    outcome.record(Failing(), 1, lambda op: 1 / 0)
    assert (outcome.attempted, outcome.failed) == (3, 2)
    assert "ZeroDivisionError" in outcome.reasons[-1]


def _library_outputs():
    settings = chsh.SearchSettings(grid_step_deg=30.0)
    cli_workload = wl.CliWorkload(5, {})
    return (
        chsh.search_violation(CorrelationModel.POLARIZED, Speed(0.7), settings),
        oracle.consistency_report(CorrelationModel.UNPOLARIZED, Speed(0.4)),
        oracle.cross_check_unpolarized(Speed(0.4), grid_n=3),
        cli_workload.run_inprocess(cli_workload.ops[0]),
    )


def test_tracer_leaves_results_bit_identical_and_restores_originals():
    joint, post_init = closed_form.joint, FourVector.__post_init__
    untraced = _library_outputs()
    with Tracer() as tracer:
        assert chsh.joint is closed_form.joint is not joint
        traced = _library_outputs()
    assert traced == untraced
    assert chsh.joint is closed_form.joint is joint
    assert FourVector.__post_init__ is post_init
    assert tracer.spans and tracer.fourvectors > 0

    metrics = layer_metrics(tracer.spans, tracer.fourvectors, passes=1)
    assert metrics["chsh.search_calls"] == 1
    assert metrics["chsh.objective_evals"] > 0
    assert metrics["chsh.grid_bytes_computed"] == 2 * 12**3 * 8
    assert metrics["oracle.fit_calls"] == 1
    assert metrics["oracle.points"] == 2 * 9 + oracle.FIT_SAMPLE_COUNT + oracle.VALIDATION_GRID_N**2
    assert metrics["closed_form.scalar_calls"] > 0 and metrics["dirac.calls"] > 0


def test_scipy_import_is_read_from_outermost_entries():
    report = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |       scipy._lib",
        "import time:        20 |         30 |     scipy",
        "import time:         5 |          5 |       numpy.linalg",
        "import time:        40 |         45 |     scipy.optimize",
        "import time:       100 |        175 |   spincorr.chsh",
        "import time:         7 |          7 |   scipy.special",
        "import time:         1 |        183 | spincorr",
    ])
    assert bench.scipy_import_seconds(report) == pytest.approx((30 + 45 + 7) / 1e6)


def test_tail_keeps_ten_samples_beyond_it():
    value, percentile = bench.tail([float(i) for i in range(1, 31)])
    assert value == 20.0
    assert percentile == pytest.approx(100 * 20 / 30)
