"""Tests for the command-line front end: parsing, execution, determinism."""

import contextlib
import dataclasses
import importlib
import io
import json
import os
import stat
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trigzeta as tz
from trigzeta import cli, io_utils, oracle, tannery, trig_sums
from trigzeta.errors import DomainError, UnsupportedRangeError, UsageError

_SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return run_python("-m", "trigzeta", *args)


class TestParseComplex:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("2", 2 + 0j),
            ("2.5", 2.5 + 0j),
            ("-1.5", -1.5 + 0j),
            ("2.5+1.3i", 2.5 + 1.3j),
            ("3-0.5i", 3 - 0.5j),
            ("1e2", 100 + 0j),
            ("2.5+1e-3i", 2.5 + 0.001j),
            (".5+.25i", 0.5 + 0.25j),
        ],
    )
    def test_accepted(self, text, expected):
        assert cli.parse_complex(text) == expected

    @pytest.mark.parametrize("text", ["", "i", "2.5 + 1.3i", "1.3i", "2+i", "abc", "2,5"])
    def test_rejected(self, text):
        with pytest.raises(UsageError):
            cli.parse_complex(text)

    @pytest.mark.parametrize("text", ["1e400", "-1e400", "2+1e400i", "1e999-1e999i"])
    def test_non_finite_rejected(self, text):
        with pytest.raises(UsageError, match="not finite"):
            cli.parse_complex(text)


class TestParseArgs:
    def test_eval_with_catalog_id(self):
        config = cli.parse_args(["eval", "--s", "2", "--rep", "E28", "--q", "1000"])
        assert config.command == "eval"
        assert config.s == 2 + 0j
        assert config.spec == tz.TrigSumSpec(tz.TrigKind.COT, 0, 1)
        assert config.q == 1000

    def test_converge_with_explicit_spec(self):
        config = cli.parse_args(
            "converge --s 2.5+1.3i --kind csc --m 0 --n 0 --q0 10 --factor 2 "
            "--steps 11 --output csv".split()
        )
        assert config.command == "converge"
        assert config.spec == tz.TrigSumSpec(tz.TrigKind.CSC, 0, 0)
        assert config.schedule == tz.QSchedule(10, 2, 11)
        assert config.output == "csv"

    def test_pole_exponent_is_a_usage_error(self):
        with pytest.raises(UsageError, match="Re\\(s\\) > 1"):
            cli.parse_args(["eval", "--s", "1", "--rep", "E28", "--q", "10"])

    def test_unknown_flag(self):
        with pytest.raises(UsageError):
            cli.parse_args(["eval", "--s", "2", "--rep", "E28", "--q", "10", "--bogus"])

    def test_unknown_catalog_id(self):
        with pytest.raises(DomainError, match="unknown catalog id"):
            cli.parse_args(["eval", "--s", "2", "--rep", "E99", "--q", "10"])

    def test_rep_conflicts_with_explicit(self):
        with pytest.raises(UsageError, match="mutually exclusive"):
            cli.parse_args(
                ["eval", "--s", "2", "--rep", "E28", "--kind", "cot", "--m", "0",
                 "--n", "1", "--q", "10"]
            )

    def test_partial_explicit_spec(self):
        with pytest.raises(UsageError):
            cli.parse_args(["eval", "--s", "2", "--kind", "cot", "--q", "10"])

    def test_inadmissible_q(self):
        with pytest.raises(DomainError, match="inadmissible"):
            cli.parse_args(["eval", "--s", "2", "--kind", "cot", "--m", "0",
                            "--n", "0", "--q", "1"])

    def test_library_refuses_a_negative_shift_and_an_inadmissible_q0(self):
        with pytest.raises(DomainError, match="shifts must be nonnegative"):
            cli.parse_args(["eval", "--s", "2", "--kind", "cot", "--m", "-1",
                            "--n", "0", "--q", "10"])
        with pytest.raises(DomainError, match="inadmissible"):
            cli.parse_args(["converge", "--s", "2", "--kind", "cot", "--m", "0",
                            "--n", "0", "--q0", "1"])

    def test_suite_choices(self):
        config = cli.parse_args(["verify", "--suite", "bernoulli"])
        assert config.suite == "bernoulli"
        with pytest.raises(UsageError):
            cli.parse_args(["verify", "--suite", "everything"])

    def test_s_only_for_tannery_suite(self):
        with pytest.raises(UsageError):
            cli.parse_args(["verify", "--suite", "cross", "--s", "2"])

    def test_eval_term_budget(self):
        cli.parse_args(["eval", "--s", "2", "--rep", "E28", "--q", str(cli.TERM_BUDGET)])
        with pytest.raises(UsageError, match="terms"):
            cli.parse_args(["eval", "--s", "2", "--rep", "E28", "--q", str(cli.TERM_BUDGET + 1)])

    @pytest.mark.parametrize("steps", ["80", "1000000000"])
    def test_converge_term_budget(self, steps):
        with pytest.raises(UsageError, match="terms"):
            cli.parse_args(["converge", "--s", "2", "--rep", "E28", "--steps", steps])

    def test_oracle_domain(self):
        with pytest.raises(UsageError):
            cli.parse_args(["oracle", "--s", "1"])
        with pytest.raises(UsageError):
            cli.parse_args(["oracle", "--s", "-2"])


class TestExecution:
    def test_oracle_stdout(self):
        result = run_cli("oracle", "--s", "2")
        assert result.returncode == 0
        assert "1.6449340668" in result.stdout
        assert "method = borwein" in result.stdout
        assert "error_bound" in result.stdout

    def test_eval_reports_error_against_oracle(self):
        result = run_cli("eval", "--s", "2", "--rep", "E28", "--q", "1000")
        assert result.returncode == 0
        assert "value = 1.644" in result.stdout
        assert "abs_error" in result.stdout

    def test_eval_json(self):
        result = run_cli("eval", "--s", "2", "--rep", "E28", "--q", "100",
                         "--output", "json")
        payload = json.loads(result.stdout)
        assert payload["q"] == 100
        assert payload["term_count"] == 100
        assert 0.0 < payload["rounding_bound"] < 1e-13
        assert payload["reference"]["method"] == "borwein"

    def test_usage_error_exit_one(self):
        result = run_cli("eval", "--s", "1", "--rep", "E28", "--q", "10")
        assert result.returncode == 1
        assert result.stderr.startswith("error: ")
        assert "Re(s) > 1" in result.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ("eval", "--s", "1e400", "--rep", "E28", "--q", "10"),
            ("eval", "--s", "2+1e300i", "--rep", "E28", "--q", "10"),
            ("oracle", "--s", "1e400"),
            # the first zero: the cross-check allowance exceeds |zeta|
            ("oracle", "--s", "0.5+14.134725141734693i"),
            # sums and dominating bounds that overflow binary64
            ("eval", "--s", "1e300", "--rep", "E28", "--q", "10"),
            ("converge", "--s", "1e300", "--rep", "E28"),
            # terms of +inf and -inf in one block
            ("eval", "--s", "1000+1i", "--kind", "cot", "--m", "0", "--n", "10", "--q", "1"),
            # pi^700 overflows: the csc bound at p = 1
            ("verify", "--suite", "tannery", "--s", "700"),
            ("verify", "--suite", "tannery", "--s", "1e300"),
            # unknown catalog ids
            ("eval", "--s", "2", "--rep", "E99", "--q", "10"),
            ("converge", "--s", "2", "--rep", "E99"),
        ],
    )
    def test_bad_s_one_error_line(self, args):
        result = run_cli(*args)
        assert result.returncode == 1
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_bound_covers_the_error_at_large_t(self):
        # a flat 4 eps rounding floor reported 9.0e-11 here, against an
        # error of 1.0e-8; the value is mpmath's zeta(3+1e9i) at 40 digits
        exact = 1.1041450455338644 - 0.11847658595449222j
        status, out, _ = run_main(["oracle", "--s", "3+1e9i", "--output", "json"])
        assert status == 0
        payload = json.loads(out)
        value = complex(payload["re_value"], payload["im_value"])
        assert abs(value - exact) <= payload["error_bound"]

    def test_vacuous_floor_refused(self):
        # at 3+1e13i the floors alone put the cross-check allowance above
        # |zeta|
        for argv in [("oracle", "--s", "3+1e13i"), ("eval", "--s", "3+1e13i", "--rep", "E28", "--q", "10")]:
            result = run_cli(*argv)
            assert result.returncode == 1
            assert result.stdout == ""
            lines = result.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
            assert "allowance" in lines[0]

    def test_vacuous_floor_refused_before_summing(self, monkeypatch):
        # each route's scale is at least 1, so the two floors alone put the
        # allowance above zeta(3) >= |zeta| before anything is summed
        def no_sum(*args):
            raise AssertionError("summed before refusing")

        monkeypatch.setattr(oracle, "power_sum", no_sum)
        monkeypatch.setattr(oracle, "exact_sum", no_sum)
        with pytest.raises(UnsupportedRangeError, match="allowance"):
            tz.reference_zeta(3 + 1e13j)
        status, out, err = run_main(["oracle", "--s", "3+1e13i"])
        assert (status, out) == (1, "")
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "allowance" in lines[0]

    def test_import_leaves_mpmath_out(self):
        # and numpy: each public name, and each module by its name, loads
        # on first use
        code = (
            "import sys, trigzeta; "
            "print('mpmath' in sys.modules, 'numpy' in sys.modules, trigzeta.tannery.__name__)"
        )
        result = run_python("-c", code)
        assert result.stdout == "False False trigzeta.tannery\n"

    def test_bernoulli_suite_runs_without_mpmath(self):
        # None in sys.modules makes every `import mpmath` raise ImportError
        code = (
            "import sys; sys.modules['mpmath'] = None; from trigzeta import cli; "
            "sys.exit(cli.main(['verify', '--suite', 'bernoulli']))"
        )
        result = run_python("-c", code)
        assert result.returncode == 0, result.stderr
        assert result.stdout.endswith("suite bernoulli: all checks passed\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--s", "1e400", "--rep", "E28", "--q", "10"],
            ["eval", "--s", "2", "--rep", "E28", "--q", "10", "--bogus"],
            ["verify", "--suite", "specializations", "--s", "2"],
            ["oracle"],
        ],
    )
    def test_bad_argv_refused_without_numpy(self, argv):
        # None in sys.modules makes every `import numpy` raise ImportError
        code = (
            "import sys; sys.modules['numpy'] = None; from trigzeta import cli; "
            f"sys.exit(cli.main({argv!r}))"
        )
        result = run_python("-c", code)
        assert (result.returncode, result.stdout) == (1, "")
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr

    def test_strip_oracle_leaves_mpmath_out(self):
        # Borwein's truncation bound takes ln|Gamma(s)| from Stirling's series
        code = (
            "import sys; from trigzeta import cli; "
            "status = cli.main(['oracle', '--s', '0.5+18i']); "
            "print(status, 'mpmath' in sys.modules)"
        )
        result = run_python("-c", code)
        assert result.stdout.splitlines()[-1] == "0 False"

    def test_oversized_schedule_refused_quickly(self):
        t0 = time.perf_counter()
        result = run_cli("converge", "--s", "2", "--rep", "E28", "--steps", "80")
        assert time.perf_counter() - t0 < 5.0
        assert result.returncode == 1
        assert result.stderr.startswith("error: ")

    def test_verify_bernoulli_green(self):
        result = run_cli("verify", "--suite", "bernoulli")
        assert result.returncode == 0
        assert "all checks passed" in result.stdout

    def test_verify_tannery_negative_control(self):
        result = run_cli("verify", "--suite", "tannery", "--s", "1")
        assert result.returncode == 2
        assert result.stderr.startswith("error: ")
        assert "condition (ii)" in result.stderr

    def test_verify_tannery_default_green(self):
        result = run_cli("verify", "--suite", "tannery")
        assert result.returncode == 0

    @pytest.mark.parametrize("s,status", [("2", 0), ("1", 2)])
    def test_verify_tannery_block_per_instance(self, s, status):
        # each shape prints instance=, then passed= (both conditions passed),
        # then its condition (i) and (ii) reports' lines
        code, out, err = run_main(["verify", "--suite", "tannery", "--s", s])
        assert code == status
        lines = out.splitlines()
        if status == 0:
            assert err == "" and lines.pop() == "suite tannery: all checks passed"
        else:
            assert err.startswith("error: verify suite tannery: 5 check(s) failed: ")
            assert len(err.splitlines()) == 1
        starts = [k for k, line in enumerate(lines) if line.startswith("instance=")]
        blocks = [lines[a:b] for a, b in zip(starts, [*starts[1:], len(lines)])]
        specs = map(trig_sums.classical_form, ("E28", "E29", "E30", "E31", "E32"))
        names = [tannery.zeta_trig_instance(c.kind, c.m, c.n, float(s)).name for c in specs]
        assert starts[0] == 0 and [block[0] for block in blocks] == [f"instance={n}" for n in names]
        keys = [
            f"{prefix}.{f.name}"
            for prefix, report in (("condition_i", tz.ConditionIReport),
                                   ("condition_ii", tz.ConditionIIReport))
            for f in dataclasses.fields(report)
        ]
        for block in blocks:
            kv = dict(line.split("=", 1) for line in block[2:])
            assert list(kv) == keys
            passed = kv["condition_i.passed"] == kv["condition_ii.passed"] == "true"
            assert passed is (status == 0)
            assert block[1] == f"passed={str(passed).lower()}"

    @pytest.mark.parametrize("s,methods", [
        ("0.5", ["em_bernoulli", "borwein"]),
        ("3", ["borwein", "euler_maclaurin"]),
    ])
    def test_failed_reference_cross_check_exits_2(self, monkeypatch, s, methods):
        # Borwein's series off by 1e-6, far above the allowance, in the
        # strip and at Re(s) > 1, where it is the reported route
        borwein, routes, pair = oracle.zeta_borwein, oracle._reference_routes, []

        def borwein_off(s, n):
            ref = borwein(s, n)
            return dataclasses.replace(ref, value=ref.value + 1e-6)

        def recorded(s):
            pair[:] = routes(s)
            return tuple(pair)

        monkeypatch.setattr(oracle, "zeta_borwein", borwein_off)
        monkeypatch.setattr(oracle, "_reference_routes", recorded)
        tz.reference_zeta.cache_clear()
        status, out, err = run_main(["oracle", "--s", s])
        assert (status, out) == (2, "")
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: reference cross-check failed")
        assert [ref.method for ref in pair] == methods
        for ref in pair:
            assert f"{ref.method} = {ref.value} " in lines[0]

    @pytest.mark.parametrize("s", ["20", "37", "300"])
    def test_verify_tannery_large_s_green(self, s):
        # the schedule runs to q >= 1000 s, past the p = 1 deviation s/(2q)
        status, out, err = run_main(["verify", "--suite", "tannery", "--s", s])
        assert (status, err) == (0, "")
        assert out.endswith("suite tannery: all checks passed\n")


class TestDeterminismAndFiles:
    def test_converge_csv_byte_identical(self):
        args = ("converge", "--s", "2", "--rep", "E28", "--q0", "10",
                "--factor", "2", "--steps", "6", "--output", "csv")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout.startswith("q,re_estimate,im_estimate,abs_error,rel_error\n")

    def test_converge_json_byte_identical(self):
        args = ("converge", "--s", "2.5+1.3i", "--kind", "csc", "--m", "0",
                "--n", "1", "--q0", "10", "--factor", "2", "--steps", "5",
                "--output", "json")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout
        json.loads(first.stdout)  # well-formed

    @pytest.mark.parametrize(
        "args",
        [
            ("converge", "--s", "2", "--rep", "E30", "--q0", "16",
             "--factor", "2", "--steps", "5", "--output", "csv"),
            ("eval", "--s", "2", "--rep", "E28", "--q", "1000"),
            ("eval", "--s", "2.5+1.3i", "--rep", "E31", "--q", "500", "--output", "csv"),
            ("eval", "--s", "3", "--rep", "E30", "--q", "200", "--output", "json"),
            ("oracle", "--s", "2"),
            ("oracle", "--s", "2", "--output", "csv"),
            ("oracle", "--s", "2.5+1.3i", "--output", "json"),
        ],
    )
    def test_out_file_matches_stdout(self, tmp_path, args):
        out = tmp_path / "result.txt"
        piped = run_cli(*args)
        written = run_cli(*args, "--out", str(out))
        assert written.returncode == 0
        assert written.stdout == ""
        assert out.read_text() == piped.stdout

    def test_no_partial_file_on_failure(self, tmp_path):
        # unwritable directory for the temp file: parent does not exist;
        # the one error line names the --out path, not the temp file's
        # random name, so two runs print the same bytes
        missing = tmp_path / "nope" / "sweep.csv"
        argv = ["converge", "--s", "2", "--rep", "E28", "--q0", "10", "--factor", "2",
                "--steps", "4", "--output", "csv", "--out", str(missing)]
        first, second = run_cli(*argv), run_cli(*argv)
        assert first.returncode == 1 and first.stdout == ""
        assert first.stderr == f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"
        assert (second.returncode, second.stdout, second.stderr) == (1, "", first.stderr)
        assert list(tmp_path.iterdir()) == []

    def test_new_out_file_gets_the_mode_of_a_plain_write(self, tmp_path):
        out = tmp_path / "oracle.csv"
        umask = os.umask(0o022)
        try:
            status, stdout, _ = run_main(["oracle", "--s", "2", "--output", "csv",
                                          "--out", str(out)])
        finally:
            os.umask(umask)
        assert (status, stdout) == (0, "")
        assert stat.S_IMODE(out.stat().st_mode) == 0o644

    def test_existing_out_file_keeps_its_mode(self, tmp_path):
        out = tmp_path / "result.txt"
        out.write_text("old\n")
        out.chmod(0o640)
        umask = os.umask(0o022)
        try:
            io_utils.write_text_atomic(out, "new\n")
        finally:
            os.umask(umask)
        assert out.read_text() == "new\n"
        assert stat.S_IMODE(out.stat().st_mode) == 0o640

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        out = tmp_path / "result.txt"
        out.write_text("old\n")

        def no_rename(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", no_rename)
        with pytest.raises(OSError, match="rename refused"):
            io_utils.write_text_atomic(out, "new\n")
        assert list(tmp_path.iterdir()) == [out]
        assert out.read_text() == "old\n"

    def test_out_through_a_link_writes_its_target(self, tmp_path):
        # as open(path, "w") does: the link stays, its target gets the
        # bytes and keeps its mode
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("old\n")
        target.chmod(0o640)
        link.symlink_to(target.name)
        argv = ["oracle", "--s", "2", "--output", "csv"]
        status, stdout, _ = run_main([*argv, "--out", str(link)])
        assert (status, stdout) == (0, "")
        assert link.is_symlink() and os.readlink(link) == target.name
        assert target.read_text() == run_main(argv)[1]
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "target.csv"]

    def test_out_through_a_dangling_link_creates_its_target(self, tmp_path):
        link, target = tmp_path / "link.csv", tmp_path / "new.csv"
        link.symlink_to(target.name)
        umask = os.umask(0o022)
        try:
            io_utils.write_text_atomic(link, "new\n")
        finally:
            os.umask(umask)
        assert link.is_symlink() and target.read_text() == "new\n"
        assert stat.S_IMODE(target.stat().st_mode) == 0o644

    def test_out_through_a_loop_of_links_fails(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.symlink_to("b")
        b.symlink_to("a")
        status, stdout, err = run_main(["oracle", "--s", "2", "--out", str(a)])
        assert (status, stdout) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert a.is_symlink() and b.is_symlink()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b"]


def run_main(argv: list[str]) -> tuple[int, str, str]:
    """cli.main in process: (status, stdout, stderr), with every warning
    written to stderr as Python would print it."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv)
    for w in caught:
        err.write(f"{w.category.__name__}: {w.message}\n")
    return status, out.getvalue(), err.getvalue()


#: The public names, by the module that defines them.
_PUBLIC = {
    "convergence": ["ConvergenceSeries", "OrderFit", "QSchedule", "SweepRecord",
                    "empirical_order", "richardson_accelerate", "run_sweep"],
    "errors": ["CrossCheckError", "DomainError", "InsufficientDataError",
               "UnsupportedRangeError", "UsageError"],
    "oracle": ["ZetaReference", "bernoulli_numbers", "cross_routes", "reference_zeta",
               "sieve_primes", "zeta_borwein", "zeta_dirichlet", "zeta_em_bernoulli", "zeta_eta",
               "zeta_euler_maclaurin", "zeta_euler_product", "zeta_even"],
    "tannery": ["ConditionIIReport", "ConditionIReport", "ExchangeResult", "TanneryInstance",
                "c_bound", "exp_instance", "exp_limit", "gamma_limit", "tannery_exchange",
                "term_bound", "verify_condition_i", "verify_condition_ii", "zeta_trig_instance"],
    "trig_sums": ["CATALOG_IDS", "SumEvaluation", "TrigKind", "TrigSumSpec", "classical_form",
                  "finite_trig_sum", "term", "upper_index"],
}


def test_namespace_resolves_each_name_to_its_module():
    names = sorted(name for group in _PUBLIC.values() for name in group)
    assert tz.__all__ == names
    for module, group in _PUBLIC.items():
        defining = importlib.import_module(f"trigzeta.{module}")
        for name in group:
            assert getattr(tz, name) is getattr(defining, name), name
    star: dict[str, object] = {}
    exec("from trigzeta import *", star)
    assert all(star[name] is getattr(tz, name) for name in names)
    assert set(names) <= set(dir(tz))
    with pytest.raises(AttributeError, match="no_such_name"):
        tz.no_such_name


def test_reference_object_is_shared():
    """eval, converge and oracle write one reference object, key for key."""
    s = ["--s", "2.5+1.3i"]
    outputs = [
        run_main(["eval", *s, "--rep", "E28", "--q", "100", "--output", "json"]),
        run_main(["converge", *s, "--rep", "E28", "--steps", "4", "--output", "json"]),
        run_main(["oracle", *s, "--output", "json"]),
    ]
    assert [status for status, _, _ in outputs] == [0, 0, 0]
    eval_json, converge_json, oracle_json = (json.loads(out) for _, out, _ in outputs)
    want = list(tz.reference_zeta(2.5 + 1.3j).to_dict().items())
    assert list(eval_json["reference"].items()) == want
    assert list(converge_json["reference"].items()) == want
    assert list(oracle_json.items())[-4:] == want


def _wrong_zeta_even(monkeypatch) -> tuple[str, str]:
    right = oracle.zeta_even

    def wrong(n):
        ref = right(n)
        return dataclasses.replace(ref, value=ref.value + 1e-9) if n == 3 else ref

    monkeypatch.setattr(oracle, "zeta_even", wrong)
    return "bernoulli n=3:", "zeta_even(3) vs dirichlet gap"


def _wrong_cross_route(monkeypatch) -> tuple[str, str]:
    def routes(s):
        off = 1e-3 if s == 2.5 + 1.3j else 0.0
        return [oracle.ZetaReference(1.0 + 0j, "first", 1e-9),
                oracle.ZetaReference(1.0 + off + 0j, "second", 1e-9)]

    monkeypatch.setattr(oracle, "cross_routes", routes)
    return "cross s=2.5+1.3i: |first - second|", "s=2.5+1.3i first vs second: 1.000e-03 >"


def _wrong_specialization(monkeypatch) -> tuple[str, str]:
    right, calls = trig_sums.finite_trig_sum, []
    nth = trig_sums.CATALOG_IDS.index("E14") + 1  # the suite sums in catalog order

    def wrong(spec, q, s):
        ev = right(spec, q, s)
        calls.append(spec)
        return dataclasses.replace(ev, value=2.0 * ev.value) if len(calls) == nth else ev

    monkeypatch.setattr(trig_sums, "finite_trig_sum", wrong)
    return "specialization E14 ", "E14: rel err"


@pytest.mark.parametrize(
    "suite,wrong",
    [("bernoulli", _wrong_zeta_even), ("cross", _wrong_cross_route),
     ("specializations", _wrong_specialization)],
)
def test_one_wrong_value_fails_the_suite(monkeypatch, suite, wrong):
    """A wrong value prints one FAIL line, exits 2 and names that check
    in the one error line."""
    line, failure = wrong(monkeypatch)
    status, out, err = run_main(["verify", "--suite", suite])
    assert status == 2
    failed = [row for row in out.splitlines() if not row.endswith(" ok")]
    assert len(failed) == 1 and failed[0].startswith(line) and failed[0].endswith(" FAIL")
    assert err.startswith(f"error: verify suite {suite}: 1 check(s) failed: {failure}")
    assert len(err.splitlines()) == 1


def test_cross_suite_checks_each_route_against_the_tightest(monkeypatch):
    """Each other route once, against the route with the smallest bound
    (the last on a tie), in cross_routes order."""
    def routes(s):
        return [oracle.ZetaReference(1.0 + 0j, method, bound)
                for method, bound in (("loose", 1e-6), ("tied", 1e-9), ("tight", 1e-9))]

    monkeypatch.setattr(oracle, "cross_routes", routes)
    status, out, _ = run_main(["verify", "--suite", "cross"])
    lines = out.splitlines()
    assert status == 0 and len(lines) == 2 * len(cli._CROSS_S) + 1
    pairs = [line.split(": ", 1)[1].split(" = ")[0] for line in lines[:-1]]
    assert pairs == ["|loose - tight|", "|tied - tight|"] * len(cli._CROSS_S)


def test_eval_csv_is_to_csv_of_one_record():
    status, out, _ = run_main(["eval", "--s", "2.5+1.3i", "--rep", "E31", "--q", "500",
                               "--output", "csv"])
    assert status == 0
    s = 2.5 + 1.3j
    ev = tz.finite_trig_sum(tz.classical_form("E31"), 500, s)
    ref = tz.reference_zeta(s)
    record = tz.SweepRecord(q=500, estimate=ev.value, abs_error=abs(ev.value - ref.value))
    assert out == tz.convergence.to_csv(tz.ConvergenceSeries((record,), ref, None, None))


def _literal(re: float, im: float) -> str:
    if im == 0.0:
        return repr(re)
    return f"{re!r}{'-' if im < 0 else '+'}{abs(im)!r}i"


_S_LITERALS = st.one_of(
    # huge, tiny, non-finite, negative and malformed
    st.sampled_from([
        "1e300", "-1e300", "1e400", "inf", "nan", "-2", "0", "1", "1e-300", "5e-324",
        "400", "2+1e300i", "1e300+1e300i", "0.5+1e300i", "0.5+5000i", "abc", "", "2+i",
        "1.2.3", "2,5", "--1",
    ]),
    # the critical strip, and 1 < Re(s) <= 1.45, where the reference takes
    # the Euler-Maclaurin-Bernoulli route (1.45 < Re(s) < 2 stays out: a cold
    # floor-function reference there costs up to 0.4 s)
    st.builds(_literal, st.floats(0.001, 1.0), st.floats(-40.0, 40.0)),
    st.builds(_literal, st.floats(1.0, 1.45, exclude_min=True), st.floats(-40.0, 40.0)),
    st.builds(_literal, st.floats(2.0, 60.0), st.one_of(st.just(0.0), st.floats(-30.0, 30.0))),
)
_OUTPUT = st.sampled_from([[], ["--output", "csv"], ["--output", "json"]])


@st.composite
def _argv(draw) -> list[str]:
    s = draw(_S_LITERALS)
    command = draw(st.sampled_from(["eval", "converge", "oracle", "verify"]))
    if command == "verify":
        return ["verify", "--suite", "tannery", "--s", s]
    if command == "oracle":
        return ["oracle", "--s", s, *draw(_OUTPUT)]
    # a negative shift and an inadmissible q or q0 reach the library's refusal
    rep = draw(st.one_of(
        st.builds(lambda cid: ["--rep", cid], st.sampled_from((*tz.CATALOG_IDS, "E99", "e28", ""))),
        st.builds(lambda kind, m, n: ["--kind", kind, "--m", str(m), "--n", str(n)],
                  st.sampled_from(["cot", "csc"]), st.integers(-2, 3), st.integers(-2, 3)),
    ))
    small = st.sampled_from([-1, 0, 1, 2])
    if command == "eval":
        q = draw(st.one_of(small, st.integers(-2, 1000)))
        return ["eval", "--s", s, *rep, "--q", str(q), *draw(_OUTPUT)]
    # q0 * 2^(steps-1) <= 1000
    steps = draw(st.integers(1, 4))
    q0 = draw(st.one_of(small, st.integers(0, 1000 >> (steps - 1))))
    return ["converge", "--s", s, *rep, "--q0", str(q0), "--steps", str(steps), *draw(_OUTPUT)]


@settings(max_examples=50, deadline=None)
@given(_argv())
@example(["eval", "--s", "1e300", "--rep", "E28", "--q", "10"])
@example(["converge", "--s", "1e300", "--rep", "E28", "--q0", "10", "--steps", "3"])
@example(["verify", "--suite", "tannery", "--s", "400"])
@example(["verify", "--suite", "tannery", "--s", "1e300"])
@example(["oracle", "--s", "0.5+14.134725141734693i"])
@example(["eval", "--s", "2", "--rep", "E99", "--q", "10"])
@example(["eval", "--s", "2", "--kind", "cot", "--m", "-1", "--n", "0", "--q", "10"])
@example(["converge", "--s", "2", "--kind", "cot", "--m", "0", "--n", "0", "--q0", "1"])
def test_any_argv_exits_cleanly(argv):
    status, _, err = run_main(argv)
    assert status in (0, 1, 2)
    if status == 0:
        assert err == ""
    else:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
