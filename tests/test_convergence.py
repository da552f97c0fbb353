"""Tests for sweeps, order fitting, Richardson extrapolation, serialization."""

import json
import math
import re

import pytest

import trigzeta as tz
from trigzeta import convergence
from trigzeta.errors import DomainError, InsufficientDataError

COT01 = tz.TrigSumSpec(tz.TrigKind.COT, 0, 1)
CSC00 = tz.TrigSumSpec(tz.TrigKind.CSC, 0, 0)


def synthetic_series(power: float, q0: int = 8, steps: int = 8, c: float = 1.0):
    """Records with abs_error exactly c/q^power around a fake reference."""
    reference = tz.ZetaReference(value=complex(1.5), method="dirichlet", error_bound=0.0)
    records = []
    for k in range(steps):
        q = q0 * 2**k
        err = c / q**power
        records.append(tz.SweepRecord(q=q, estimate=complex(1.5 + err), abs_error=err))
    return tz.ConvergenceSeries(tuple(records), reference, None, None)


class TestQSchedule:
    def test_values(self):
        assert tz.QSchedule(10, 2, 4).q_values() == [10, 20, 40, 80]
        assert list(tz.QSchedule(3, 3, 3)) == [3, 9, 27]

    def test_defaults_reach_10240(self):
        assert tz.QSchedule().q_values()[-1] == 10240

    @pytest.mark.parametrize("kwargs", [
        {"q0": 0}, {"factor": 1}, {"steps": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            tz.QSchedule(**kwargs)


class TestRunSweep:
    def test_cot_errors_strictly_decreasing(self):
        series = tz.run_sweep(COT01, 2, tz.QSchedule(10, 2, 11))
        errors = [r.abs_error for r in series.records]
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert errors[-1] < 5e-4
        assert len(series.records) == 11

    def test_csc_fourth_power(self):
        series = tz.run_sweep(CSC00, 4, tz.QSchedule(10, 2, 8))
        errors = [r.abs_error for r in series.records]
        assert all(b < a for a, b in zip(errors, errors[1:]))

    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            tz.run_sweep(COT01, 1.0, tz.QSchedule(10, 2, 4))

    def test_inadmissible_schedule(self):
        with pytest.raises(DomainError):
            tz.run_sweep(CSC00, 2, tz.QSchedule(1, 2, 4))  # q=1 bad for n=0

    def test_errors_use_stored_reference(self):
        series = tz.run_sweep(COT01, 3, tz.QSchedule(10, 2, 5))
        for r in series.records:
            assert r.abs_error == abs(r.estimate - series.reference.value)


class TestEmpiricalOrder:
    def test_recovers_first_order(self):
        fit = tz.empirical_order(synthetic_series(1.0))
        assert abs(fit.order - 1.0) < 1e-6
        assert fit.residual < 1e-9

    def test_recovers_second_order(self):
        fit = tz.empirical_order(synthetic_series(2.0))
        assert abs(fit.order - 2.0) < 1e-6

    def test_real_sweep_is_first_order(self):
        series = tz.run_sweep(COT01, 2, tz.QSchedule())
        assert series.fitted_order is not None
        assert 0.8 <= series.fitted_order <= 1.2

    def test_insufficient_data(self):
        short = synthetic_series(1.0, steps=3)
        with pytest.raises(InsufficientDataError):
            tz.empirical_order(short)

    def test_zero_errors_do_not_count(self):
        reference = tz.ZetaReference(complex(1.0), "dirichlet", 0.0)
        records = tuple(
            tz.SweepRecord(q=2**k, estimate=complex(1.0), abs_error=0.0)
            for k in range(1, 7)
        )
        with pytest.raises(InsufficientDataError):
            tz.empirical_order(tz.ConvergenceSeries(records, reference, None, None))


class TestRichardson:
    def test_exact_elimination_of_pure_first_order(self):
        # L = 1.5, c = 1, q powers of two: all arithmetic exact
        series = synthetic_series(1.0, q0=4, steps=2)
        accelerated = tz.richardson_accelerate(series, 1.0)
        assert accelerated == complex(1.5)

    def test_real_sweep_improves(self):
        series = tz.run_sweep(COT01, 2, tz.QSchedule(10, 2, 8))
        accelerated = tz.richardson_accelerate(series, series.fitted_order)
        ref = series.reference.value
        assert abs(accelerated - ref) < abs(series.records[-1].estimate - ref)

    @pytest.mark.parametrize(
        "spec,s",
        [(COT01, 2), (CSC00, 4), (COT01, 2.5 + 1.3j)],
    )
    def test_never_worsens_much(self, spec, s):
        # guard against a misfit order: at most 10x the raw error
        series = tz.run_sweep(spec, s, tz.QSchedule(10, 2, 8))
        accelerated = tz.richardson_accelerate(series, series.fitted_order)
        ref = series.reference.value
        assert abs(accelerated - ref) <= 10.0 * series.records[-1].abs_error

    def test_insufficient_records(self):
        series = synthetic_series(1.0, steps=1)
        with pytest.raises(InsufficientDataError):
            tz.richardson_accelerate(series, 1.0)

    def test_bad_order(self):
        series = synthetic_series(1.0)
        with pytest.raises(DomainError):
            tz.richardson_accelerate(series, 0.0)


class TestSerialization:
    def test_csv_shape(self):
        series = tz.run_sweep(COT01, 2, tz.QSchedule(10, 2, 4))
        text = convergence.to_csv(series)
        lines = text.splitlines()
        assert lines[0] == "q,re_estimate,im_estimate,abs_error,rel_error"
        assert len(lines) == 5
        assert text.endswith("\n")

    def test_csv_round_trips_records(self):
        series = tz.run_sweep(COT01, 2.5 + 1.3j, tz.QSchedule(10, 2, 5))
        parsed = convergence.from_csv(convergence.to_csv(series))
        assert parsed == series.records

    def test_json_round_trips_everything(self):
        series = tz.run_sweep(CSC00, 3, tz.QSchedule(10, 2, 6))
        assert convergence.from_json(convergence.to_json(series)) == series

    def test_json_round_trips_unfitted_series(self):
        series = synthetic_series(1.0, steps=3)  # too short for a fit
        assert convergence.from_json(convergence.to_json(series)) == series

    def test_bad_csv_header(self):
        with pytest.raises(DomainError):
            convergence.from_csv("nope\n1,2,3,4,5\n")

    @pytest.mark.parametrize(
        "row",
        ["16,1.5,0.0,0.25", "16,1.5,0.0,0.25,0.1,7", "1.5,1.5,0.0,0.25,0.1", "16,x,0.0,0.25,0.1"],
    )
    def test_bad_csv_row_names_the_row(self, row):
        text = convergence.to_csv(synthetic_series(1.0, steps=2)) + row + "\n"
        with pytest.raises(DomainError, match=re.escape(repr(row))):
            convergence.from_csv(text)

    @pytest.mark.parametrize(
        "edit,named",
        [
            (lambda p: "", "line 1"),
            (lambda p: "nope", "line 1"),
            (lambda p: '{"records": [}', "line 1"),
            (lambda p: {}, "'records'"),
            (lambda p: [1], "'records'"),
            (lambda p: {**p, "records": 5}, "'records'"),
            (lambda p: {**p, "records": [{**p["records"][0], "q": 1.5}]}, "'q'"),
            (lambda p: {**p, "records": ["q"]}, "'q'"),
            (lambda p: {**p, "records": [{**p["records"][0], "abs_error": None}]}, "'abs_error'"),
            (lambda p: {**p, "reference": {**p["reference"], "re_value": "x"}}, "'re_value'"),
            (lambda p: {k: v for k, v in p.items() if k != "reference"}, "'reference'"),
            (lambda p: {**p, "fit_residual": [1.0]}, "'fit_residual'"),
        ],
    )
    def test_bad_json_names_the_line_or_key(self, edit, named):
        # an edit returns the payload to write, or text that is not JSON
        edited = edit(json.loads(convergence.to_json(synthetic_series(1.0, steps=2))))
        text = edited if isinstance(edited, str) else json.dumps(edited)
        with pytest.raises(DomainError, match=named):
            convergence.from_json(text)

    def test_seventeen_digit_floats_round_trip(self):
        x = 1.6449340668482264
        assert float(format(x, ".17g")) == x
        assert float(format(math.pi / 3, ".17g")) == math.pi / 3
