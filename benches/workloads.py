"""The four benchmark workloads.

Each workload turns (seed, k) into the inputs of its k-th operation,
performs the operation through trigzeta's public functions, and checks
the outputs afterwards, outside the timed region, with :mod:`checks`.
Operation 0 of every run uses the base inputs (offset zero, the same
for every seed); ``accuracy_digits`` is taken from it, so that figure
repeats exactly.  Operations k >= 1 use inputs drawn from the seed.

Every operation of a workload does the same work: where calls of
different cost are mixed, one operation is one pass over a fixed
bundle (``cli-commands`` keeps its list of similar-cost commands and
runs whole rounds of it).
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import checks
import tracing
from checks import SHAPES, SHAPE_IDS
from cli_child import MARK

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _rng(seed: int, k: int) -> random.Random:
    return random.Random(f"{seed}:{k}")


def cold_offset(seed: int, k: int) -> float:
    """Per-operation shift of a panel point: 0 for operation 0, else
    1e-6 (j + u) with u in [0.01, 1) drawn from the seed, j = k - 1 for
    timed operations k >= 1 and j = k for warm-up operations k <= -1.
    No two operations of a run ask the oracle for the same s."""
    if k == 0:
        return 0.0
    j = k - 1 if k > 0 else k
    return 1e-6 * (j + random.Random(f"offset:{seed}").uniform(0.01, 1.0))


def region(s: complex) -> str:
    """The oracle's s-region, as the per-layer metrics name them."""
    if s.real < 1.0:
        return "critical_strip"
    if s.imag != 0.0:
        return "complex"
    if s.real < 1.2:
        return "sigma_near_1"
    if s.real <= 2.0:
        return "sigma_1_to_2"
    return "sigma_above_2"


def _spec(tz, shape):
    kind, m, n = shape
    return tz.TrigSumSpec(tz.TrigKind(kind), m, n)


@dataclass
class Workload:
    name: str
    #: ops per round; a run attempts whole rounds only
    round_size: int = 1
    #: fewest operations a run completes, however short
    min_ops: int = 2
    #: untimed operations (k = -1, -2, ...) run before the timed loop
    warmup_ops: int = 0

    def tables(self, tz):
        """What the workload builds once, during set-up."""
        return None

    def inputs(self, seed: int, k: int):
        raise NotImplementedError

    def operate(self, tz, tables, inp, tr):
        raise NotImplementedError

    def check(self, tz, tables, runs: list) -> list[str]:
        """Check every (inputs, outputs) pair of the run."""
        raise NotImplementedError

    def accuracy(self, runs: list) -> float:
        raise NotImplementedError

    def failed(self, inp, out) -> bool:
        """True for an operation that failed instead of producing output."""
        return False

    def check_cache(self, hits: int, misses: int) -> list[str]:
        """Check reference_zeta's cache counts over the timed loop."""
        return []


# ------------------------------------------------------------ sums-bulk

SUMS_Q = 100_000


@dataclass
class SumsBulk(Workload):
    """Large-q finite sums: the kernel and summation do the work."""

    name: str = "sums-bulk"

    def tables(self, tz):
        return [_spec(tz, shape) for shape in SHAPES]

    def inputs(self, seed, k):
        if k == 0:
            return {"q": SUMS_Q, "real": 2.5, "complex": 2.5 + 1.3j}
        rng = _rng(seed, k)
        return {
            "q": SUMS_Q,
            "real": rng.uniform(2.2, 3.8),
            "complex": complex(rng.uniform(2.2, 3.8), rng.uniform(0.5, 15.0)),
        }

    def operate(self, tz, specs, inp, tr):
        q = inp["q"]
        out = {}
        for shape, spec in zip(SHAPES, specs):
            for label in ("real", "complex", 2.0, 4.0):
                s = inp[label] if isinstance(label, str) else label
                with tr.span("trig_sums.finite_trig_sum", complex=isinstance(s, complex)) as sp:
                    ev = tz.finite_trig_sum(spec, q, s)
                    sp["terms"] = ev.term_count
                out[shape, label] = ev.value
        return out

    def check(self, tz, specs, runs):
        failures = []
        for k, (inp, out) in enumerate(runs):
            q = inp["q"]
            zeta = {label: checks.mp_zeta(inp[label]) for label in ("real", "complex")}
            for shape, spec in zip(SHAPES, specs):
                for s in (2, 4):
                    failures += checks.check_closed_form(shape, q, s, out[shape, float(s)])
                failures += checks.check_real_positive(shape, q, inp["real"], out[shape, "real"])
                for label in ("real", "complex"):
                    failures += checks.check_limit(shape, q, inp[label], out[shape, label], zeta[label])
                if k in (0, len(runs) - 1):
                    s = inp["complex"]
                    conj = tz.finite_trig_sum(spec, q, s.conjugate()).value
                    failures += checks.check_conjugate(shape, q, s, out[shape, "complex"], conj)
        return failures

    def accuracy(self, runs):
        inp, out = runs[0]
        return min(
            checks.digits(out[shape, float(s)], complex(checks.closed_form(shape, inp["q"], s)))
            for shape in SHAPES
            for s in (2, 4)
        )


# ---------------------------------------------------------- oracle-cold

#: One point per oracle s-region.  Complex s with sigma <= 2 costs about
#: 4 s a call and stays out.
ORACLE_PANEL = (1.05, 1.5, 3.7, 3.0 + 2.0j, 0.5 + 18.0j)


@dataclass
class OracleCold(Workload):
    """reference_zeta once per s-region, each at an s never seen before."""

    name: str = "oracle-cold"
    # page faults per operation settle after three operations
    warmup_ops: int = 3

    def inputs(self, seed, k):
        d = cold_offset(seed, k)
        return [complex(s) + d for s in ORACLE_PANEL]

    def operate(self, tz, tables, points, tr):
        out = []
        for s in points:
            with tr.span("oracle.reference_zeta", region=region(s)):
                out.append(tz.reference_zeta(s))
        return out

    def check(self, tz, tables, runs):
        failures = []
        for points, refs in runs:
            for s, ref in zip(points, refs):
                failures += checks.check_reference(s, ref.value, ref.error_bound, checks.mp_zeta(s))
        return failures

    def check_cache(self, hits, misses):
        if hits:
            return [f"the cold oracle was answered from its cache {hits} times"]
        return []

    def accuracy(self, runs):
        points, refs = runs[0]
        return min(checks.digits(r.value, checks.mp_zeta(s)) for s, r in zip(points, refs))


# ------------------------------------------------------------ lab-sweep

#: 1 < sigma < 2, real sigma > 2, complex.
LAB_PANEL = (1.5, 2.7, 2.5 + 1.3j)
TANNERY_Q = (10, 100, 1000, 10000)


@dataclass
class LabSweep(Workload):
    """The reproduction loop: sweeps, fits, emitters and Tannery checks."""

    name: str = "lab-sweep"
    # page faults per operation fall by three quarters over four operations
    warmup_ops: int = 4

    def tables(self, tz):
        sched = tz.QSchedule()
        return {"specs": [_spec(tz, shape) for shape in SHAPES], "sched": sched, "qs": sched.q_values()}

    def inputs(self, seed, k):
        d = cold_offset(seed, k)
        return [complex(s) + d for s in LAB_PANEL]

    def operate(self, tz, tables, points, tr):
        from trigzeta import convergence

        qs = tables["qs"]
        out = {"points": [], "control": []}
        for s in points:
            with tr.span("oracle.reference_zeta", region=region(s)):
                ref = tz.reference_zeta(s)
            per_shape = []
            for shape, spec in zip(SHAPES, tables["specs"]):
                with tr.span("convergence.run_sweep"):
                    series = tz.run_sweep(spec, s, tables["sched"])
                with tr.span("convergence.fit"):
                    fit = tz.empirical_order(series)
                    accelerated = tz.richardson_accelerate(series, fit.order)
                with tr.span("convergence.emit"):
                    csv_text = convergence.to_csv(series)
                    json_text = convergence.to_json(series)
                item = {"series": series, "fit": fit, "accelerated": accelerated,
                        "csv": csv_text, "json": json_text}
                if s.imag == 0.0:
                    inst = tz.zeta_trig_instance(tz.TrigKind(shape[0]), shape[1], shape[2], s.real)
                    with tr.span("tannery.verify_condition_i"):
                        item["cond_i"] = tz.verify_condition_i(inst, 5, TANNERY_Q, 1e-3)
                    with tr.span("tannery.verify_condition_ii"):
                        item["cond_ii"] = tz.verify_condition_ii(inst, 1000, 1000)
                    terms = inst.alpha(qs[-1])
                    with tr.span("tannery.tannery_exchange", indices=terms + 1):
                        item["exchange"] = tz.tannery_exchange(inst, qs, terms)
                per_shape.append(item)
            out["points"].append({"s": s, "ref": ref, "shapes": per_shape})
        for kind, m, n in SHAPES:
            inst = tz.zeta_trig_instance(tz.TrigKind(kind), m, n, 1.0)
            with tr.span("tannery.verify_condition_ii"):
                out["control"].append(tz.verify_condition_ii(inst, 1000, 1000))
        return out

    def check(self, tz, tables, runs):
        from trigzeta import convergence

        failures = []
        for _, out in runs:
            for point in out["points"]:
                s, ref = point["s"], point["ref"]
                zeta = checks.mp_zeta(s)
                failures += checks.check_reference(s, ref.value, ref.error_bound, zeta)
                for shape, item in zip(SHAPES, point["shapes"]):
                    label = f"{shape} s={s}"
                    series = item["series"]
                    records = series.records
                    failures += checks.check_shrinks(label, records[0].estimate, records[-1].estimate, zeta)
                    if convergence.from_json(item["json"]) != series:
                        failures.append(f"{label}: from_json(to_json(series)) differs from the series")
                    if convergence.from_csv(item["csv"]) != records:
                        failures.append(f"{label}: from_csv(to_csv(series)) differs from the records")
                    if item["fit"].order != series.fitted_order:
                        failures.append(f"{label}: empirical_order disagrees with run_sweep's fit")
                    if s.imag == 0.0:
                        if not (item["cond_i"].passed and item["cond_ii"].passed):
                            failures.append(f"{label}: a Tannery condition failed for s > 1")
                        failures += checks.check_ulps(
                            f"{label} tannery_exchange lhs vs finite_trig_sum",
                            item["exchange"].lhs, records[-1].estimate)
            for shape, report in zip(SHAPES, out["control"]):
                if report.passed or report.series_converges:
                    failures.append(f"{shape} s=1: the negative control passed condition (ii)")
        return failures

    def check_cache(self, hits, misses):
        # one miss for the fresh s, then one hit per shape's run_sweep
        if hits != len(SHAPES) * misses:
            return [f"reference_zeta cache: {hits} hits for {misses} misses, want {len(SHAPES)} per miss"]
        return []

    def accuracy(self, runs):
        _, out = runs[0]
        found = []
        for point in out["points"]:
            zeta = checks.mp_zeta(point["s"])
            found.append(checks.digits(point["ref"].value, zeta))
            found += [checks.digits(item["accelerated"], zeta) for item in point["shapes"]]
        return min(found)


# --------------------------------------------------------- cli-commands

_FAILING = (
    # parse_complex accepts a non-finite s: prints value = nan, exits 0
    ("bad-input", ("eval", "--s", "1e400", "--rep", "E28", "--q", "10")),
    # OverflowError traceback from the oracle's cutoff choice
    ("bad-input", ("eval", "--s", "2+1e300i", "--rep", "E28", "--q", "10")),
)


def _fmt_s(s: complex) -> str:
    if s.imag == 0.0:
        return f"{s.real:.6f}"
    return f"{s.real:.6f}{s.imag:+.6f}i"


def cli_round(seed: int, base: bool) -> list[tuple[str, tuple[str, ...]]]:
    """The fixed command list of one round, with seeded arguments."""
    if base:
        a, b, c, d, e = 2.0, 2.5 + 1.3j, 3.0, 2.5, 3.0
        q1, q2, q3 = 1000, 500, 200
    else:
        rng = random.Random(f"cli:{seed}")
        a, c, d, e = (rng.uniform(2.2, 3.8) for _ in range(4))
        b = complex(rng.uniform(2.2, 3.8), rng.uniform(0.5, 15.0))
        q1, q2, q3 = rng.randint(800, 1200), rng.randint(400, 600), rng.randint(150, 250)
    return [
        ("eval-text", ("eval", "--s", _fmt_s(complex(a)), "--rep", "E28", "--q", str(q1))),
        ("eval-csv", ("eval", "--s", _fmt_s(b), "--rep", "E31", "--q", str(q2), "--output", "csv")),
        ("eval-json", ("eval", "--s", _fmt_s(complex(c)), "--rep", "E30", "--q", str(q3), "--output", "json")),
        ("converge-csv", ("converge", "--s", _fmt_s(complex(d)), "--rep", "E29", "--output", "csv")),
        ("oracle", ("oracle", "--s", _fmt_s(complex(e)))),
        ("verify-ok", ("verify", "--suite", "tannery")),
        ("verify-ok", ("verify", "--suite", "specializations")),
        ("verify-fail", ("verify", "--suite", "tannery", "--s", "1")),
        *_FAILING,
    ]


_ROUND_SIZE = len(cli_round(0, True))


def parse_complex_out(text: str) -> complex:
    """Inverse of the CLI's RE / RE+IMi / RE-IMi rendering."""
    text = text.strip()
    if not text.endswith("i"):
        return complex(float(text), 0.0)
    m = re.fullmatch(r"(.+?[0-9.])([+-])([^+-].*)i", text)
    if m is None:
        raise ValueError(f"not a complex literal: {text!r}")
    sign = -1.0 if m.group(2) == "-" else 1.0
    return complex(float(m.group(1)), sign * float(m.group(3)))


def _field(stdout: str, key: str) -> str:
    for line in stdout.splitlines():
        if line.startswith(key + " = "):
            return line[len(key) + 3:]
    raise ValueError(f"no '{key} = ' line")


_REF_RE = re.compile(r"(\S+) \((\w+), error_bound (\S+)\)")


@dataclass
class CliResult:
    returncode: int
    stdout: str
    stderr: str


@dataclass
class CliCommands(Workload):
    """One ``python -m trigzeta`` child at a time, in whole rounds."""

    name: str = "cli-commands"
    round_size: int = _ROUND_SIZE
    #: round 0 is the base list; rounds 1 and 2 repeat the seeded list,
    #: so every argv runs at least twice
    min_ops: int = 3 * _ROUND_SIZE

    def inputs(self, seed, k):
        return cli_round(seed, k < self.round_size)[k % self.round_size]

    def operate(self, tz, tables, inp, tr):
        _, argv = inp
        if isinstance(tr, tracing.Tracer):
            cmd = [sys.executable, str(HERE / "cli_child.py"), *argv]
        else:
            cmd = [sys.executable, "-m", "trigzeta", *argv]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with tr.span("cli.process") as sp:
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=HERE.parent, timeout=120)
        stderr_lines = []
        for line in proc.stderr.splitlines(keepends=True):
            if line.startswith(MARK):
                sp.update(json.loads(line[len(MARK):]))
            else:
                stderr_lines.append(line)
        return CliResult(proc.returncode, proc.stdout, "".join(stderr_lines))

    def failed(self, inp, out):
        """A bad input fails unless it ends in exit 1 and one error line."""
        kind, argv = inp
        return kind == "bad-input" and bool(checks.check_exit(" ".join(argv), out.returncode, out.stderr, 1))

    def check(self, tz, tables, runs):
        failures = []
        by_argv: dict[tuple, CliResult] = {}
        for (kind, argv), out in runs:
            label = " ".join(argv)
            previous = by_argv.setdefault(argv, out)
            if (previous.returncode, previous.stdout, previous.stderr) != (out.returncode, out.stdout, out.stderr):
                failures.append(f"{label}: repeated argv gave different output")
            if kind == "bad-input":
                continue
            want = 2 if kind == "verify-fail" else 0
            exit_failures = checks.check_exit(label, out.returncode, out.stderr, want)
            failures += exit_failures
            if exit_failures:
                continue
            try:
                failures += self._check_output(kind, argv, out)
            except (ValueError, KeyError, IndexError) as exc:
                failures.append(f"{label}: cannot read the output: {exc}")
        return failures

    @staticmethod
    def _values(kind, argv, out):
        """(shape, q, s, value) of an eval, and (s, ref, bound) pairs printed."""
        args = dict(zip(argv[1::2], argv[2::2]))
        s = parse_complex_out(args["--s"])
        evals, refs = [], []
        if kind.startswith("eval"):
            shape, q = SHAPE_IDS[args["--rep"]], int(args["--q"])
            if kind == "eval-text":
                value = parse_complex_out(_field(out.stdout, "value"))
                m = _REF_RE.fullmatch(_field(out.stdout, "reference"))
                refs.append((s, parse_complex_out(m.group(1)), float(m.group(3))))
            elif kind == "eval-csv":
                row = out.stdout.splitlines()[1].split(",")
                value = complex(float(row[1]), float(row[2]))
            else:
                payload = json.loads(out.stdout)
                value = complex(payload["re_value"], payload["im_value"])
                ref = payload["reference"]
                refs.append((s, complex(ref["re_value"], ref["im_value"]), ref["error_bound"]))
            evals.append((shape, q, s, value))
        elif kind == "oracle":
            refs.append((s, parse_complex_out(_field(out.stdout, "zeta")), float(_field(out.stdout, "error_bound"))))
        return evals, refs

    def _check_output(self, kind, argv, out):
        label = " ".join(argv)
        failures = []
        if kind == "verify-ok":
            if not out.stdout.rstrip().endswith("all checks passed"):
                failures.append(f"{label}: no 'all checks passed' line")
            return failures
        if kind == "verify-fail":
            if "condition_ii.series_converges=false" not in out.stdout:
                failures.append(f"{label}: the s = 1 bound series was not reported divergent")
            return failures
        evals, refs = self._values(kind, argv, out)
        for shape, q, s, value in evals:
            failures += checks.check_transcription(shape, q, s, value, checks.transcription(shape, q, s))
        for s, value, bound in refs:
            failures += checks.check_reference(s, value, bound, checks.mp_zeta(s))
        if kind == "converge-csv":
            failures += self._check_converge(argv, out)
        return failures

    @staticmethod
    def _check_converge(argv, out):
        args = dict(zip(argv[1::2], argv[2::2]))
        label = " ".join(argv)
        s = parse_complex_out(args["--s"])
        shape = SHAPE_IDS[args["--rep"]]
        lines = out.stdout.splitlines()
        if lines[0] != "q,re_estimate,im_estimate,abs_error,rel_error":
            return [f"{label}: bad CSV header"]
        rows = [ln.split(",") for ln in lines[1:]]
        qs = [int(r[0]) for r in rows]
        if qs != [10 * 2**k for k in range(11)]:
            return [f"{label}: schedule {qs} is not the default one"]
        failures = []
        zeta = checks.mp_zeta(s)
        estimates = [complex(float(r[1]), float(r[2])) for r in rows]
        failures += checks.check_shrinks(label, estimates[0], estimates[-1], zeta)
        for q, est in zip(qs[:4], estimates[:4]):
            failures += checks.check_transcription(shape, q, s, est, checks.transcription(shape, q, s))
        return failures

    def accuracy(self, runs):
        found = []
        for (kind, argv), out in runs[: self.round_size]:
            if kind not in ("eval-text", "eval-csv", "eval-json", "oracle"):
                continue
            evals, refs = self._values(kind, argv, out)
            for shape, q, s, value in evals:
                found.append(checks.digits(value, checks.transcription(shape, q, s)[0]))
            for s, value, _ in refs:
                found.append(checks.digits(value, checks.mp_zeta(s)))
        return min(found)


WORKLOADS = {w.name: w for w in (SumsBulk(), OracleCold(), LabSweep(), CliCommands())}
