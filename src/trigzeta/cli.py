"""Command-line front end.

Commands:

* ``eval``     -- one finite-sum evaluation at a given q, with the
  oracle error when a reference is available.
* ``converge`` -- sweep a q-schedule and emit text/CSV/JSON.
* ``verify``   -- run a named verification suite; exits 2 on failure.
* ``oracle``   -- print the cross-checked reference value for s.

Exit status: 0 success, 1 domain/usage error, 2 verification failure.
Every error path writes one ``error: ...`` line to stderr.  Output is
deterministic: identical argv yields byte-identical CSV/JSON.  Complex
literals are written RE, RE+IMi or RE-IMi with no spaces (e.g. ``2``,
``2.5+1.3i``).

Every flag is validated before anything is computed.  ``verify`` prints
one line per check, then ``suite NAME: all checks passed`` or one
``error:`` line that counts the failed checks and names the first.

A command imports only the modules it runs, when it first needs them.
Bad flags and a bad ``--s`` literal are refused before numpy is
imported.
"""

from __future__ import annotations

import argparse
import itertools
import math
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator

from .errors import (
    CrossCheckError,
    DomainError,
    InsufficientDataError,
    UnsupportedRangeError,
    UsageError,
)
from .io_utils import float_text, json_text, write_text_atomic

if TYPE_CHECKING:
    from .oracle import ZetaReference
    from .trig_sums import TrigSumSpec

_COMPLEX_RE = re.compile(
    r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"(?:([+-])((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i)?$"
)

#: Most terms one command may sum: the upper_index of an ``eval`` q, or
#: the total over a ``converge`` schedule.  10^8 terms take seconds,
#: not hours; larger requests are usage errors.
TERM_BUDGET = 10**8


def parse_complex(text: str) -> complex:
    """Parse RE, RE+IMi or RE-IMi (no spaces); both parts must be finite."""
    match = _COMPLEX_RE.match(text)
    if match is None:
        raise UsageError(
            f"cannot parse complex literal {text!r}; expected RE, RE+IMi or RE-IMi"
        )
    re_part, sign, im_part = match.groups()
    imag = 0.0 if im_part is None else float(im_part) * (-1.0 if sign == "-" else 1.0)
    real = float(re_part)
    if not (math.isfinite(real) and math.isfinite(imag)):
        raise UsageError(f"complex literal {text!r} is not finite in binary64")
    return complex(real, imag)


def _fmt_complex(z: complex) -> str:
    if z.imag == 0.0:
        return float_text(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{float_text(z.real)}{sign}{float_text(abs(z.imag))}i"


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through UsageError
    # so the CLI's documented status 1 applies instead.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="trigzeta", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_rep_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--rep", help="catalog id (e.g. E28)")
        p.add_argument("--kind", choices=["cot", "csc"], help="explicit kind")
        p.add_argument("--m", type=int, help="prefactor shift")
        p.add_argument("--n", type=int, help="angle shift")

    def add_output_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output", choices=["text", "csv", "json"], default="text")
        p.add_argument("--out", help="write output to this file (atomically)")

    p_eval = sub.add_parser("eval", help="evaluate the finite sum at one q")
    p_eval.add_argument("--s", required=True)
    add_rep_flags(p_eval)
    p_eval.add_argument("--q", type=int, required=True)
    add_output_flags(p_eval)

    p_conv = sub.add_parser("converge", help="sweep a q schedule")
    p_conv.add_argument("--s", required=True)
    add_rep_flags(p_conv)
    p_conv.add_argument("--q0", type=int, default=10)
    p_conv.add_argument("--factor", type=int, default=2)
    p_conv.add_argument("--steps", type=int, default=11)
    add_output_flags(p_conv)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True, choices=_SUITES)
    p_verify.add_argument("--s", help="exponent for the tannery suite")

    p_oracle = sub.add_parser("oracle", help="print the reference value")
    p_oracle.add_argument("--s", required=True)
    add_output_flags(p_oracle)

    return parser


def _resolve_spec(ns: argparse.Namespace) -> tuple[TrigSumSpec, str]:
    from . import trig_sums

    explicit = [ns.kind, ns.m, ns.n]
    if ns.rep is not None:
        if any(v is not None for v in explicit):
            raise UsageError("--rep and --kind/--m/--n are mutually exclusive")
        return trig_sums.classical_form(ns.rep), ns.rep
    if any(v is None for v in explicit):
        raise UsageError("need either --rep or all of --kind/--m/--n")
    if ns.m < 0 or ns.n < 0:
        raise UsageError(f"--m and --n must be nonnegative, got m={ns.m} n={ns.n}")
    spec = trig_sums.TrigSumSpec(trig_sums.TrigKind(ns.kind), ns.m, ns.n)
    return spec, f"{ns.kind}(m={ns.m},n={ns.n})"


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse and fully validate; no computation happens here.

    Returns the argparse namespace with ``s`` parsed to a complex (None
    when ``verify`` has no --s).  For ``eval`` and ``converge`` it also
    carries the resolved ``spec`` and its ``rep_label``, and for
    ``converge`` the q ``schedule``.

    Raises:
        UsageError: for bad flags, literals or flag combinations.
        DomainError: for an unknown catalog id or a bad q-schedule.
    """
    ns = _build_parser().parse_args(argv)
    ns.s = None if ns.s is None else parse_complex(ns.s)

    if ns.command == "verify":
        if ns.s is not None and ns.suite != "tannery":
            raise UsageError("--s applies to the tannery suite only")
        return ns

    if ns.command == "oracle":
        if not ns.s.real > 0.0 or ns.s == 1:
            raise UsageError(
                f"oracle needs Re(s) > 0 and s != 1, got s={_fmt_complex(ns.s)}"
            )
        return ns

    from . import trig_sums

    ns.spec, ns.rep_label = _resolve_spec(ns)
    if not ns.s.real > 1.0:
        raise UsageError(
            f"the limit representations need Re(s) > 1, got s={_fmt_complex(ns.s)}"
        )

    if ns.command == "eval":
        if not ns.spec.is_admissible(ns.q):
            raise UsageError(
                f"q={ns.q} inadmissible for n={ns.spec.n} (requires q >= {ns.spec.min_q()})"
            )
        if trig_sums.upper_index(ns.q, ns.spec.n) > TERM_BUDGET:
            raise UsageError(f"q={ns.q} sums more than {TERM_BUDGET} terms")
        return ns

    from . import convergence

    ns.schedule = convergence.QSchedule(q0=ns.q0, factor=ns.factor, steps=ns.steps)
    if not ns.spec.is_admissible(ns.q0):
        raise UsageError(
            f"q0={ns.q0} inadmissible for n={ns.spec.n} (requires q >= {ns.spec.min_q()})"
        )
    # step by step, so a huge --steps stops at the first point over budget
    total, q = 0, ns.q0
    for _ in range(ns.steps):
        total += trig_sums.upper_index(q, ns.spec.n)
        if total > TERM_BUDGET:
            raise UsageError(f"the schedule sums more than {TERM_BUDGET} terms")
        q *= ns.factor
    return ns


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        write_text_atomic(Path(out), text)


def _reference_line(ref: ZetaReference) -> str:
    return (
        f"reference = {_fmt_complex(ref.value)} "
        f"({ref.method}, error_bound {float_text(ref.error_bound)})"
    )


def _run_eval(args: argparse.Namespace) -> int:
    from . import oracle, trig_sums

    ev = trig_sums.finite_trig_sum(args.spec, args.q, args.s)
    ref = oracle.reference_zeta(args.s)
    abs_error = abs(ev.value - ref.value)
    if args.output == "csv":
        from . import convergence

        record = convergence.SweepRecord(q=ev.q, estimate=ev.value, abs_error=abs_error)
        text = convergence.to_csv(convergence.ConvergenceSeries((record,), ref, None, None))
    elif args.output == "json":
        text = json_text(
            {
                "s_re": args.s.real,
                "s_im": args.s.imag,
                "representation": args.rep_label,
                "q": ev.q,
                "term_count": ev.term_count,
                "re_value": ev.value.real,
                "im_value": ev.value.imag,
                "rounding_bound": ev.rounding_bound,
                "reference": ref.to_dict(),
                "abs_error": abs_error,
            }
        )
    else:
        text = (
            f"s = {_fmt_complex(args.s)}\n"
            f"representation = {args.rep_label}\n"
            f"q = {ev.q}\n"
            f"term_count = {ev.term_count}\n"
            f"value = {_fmt_complex(ev.value)}\n"
            f"{_reference_line(ref)}\n"
            f"abs_error = {float_text(abs_error)}\n"
        )
    _emit(text, args.out)
    return 0


def _run_converge(args: argparse.Namespace) -> int:
    from . import convergence

    series = convergence.run_sweep(args.spec, args.s, args.schedule)
    if args.output == "csv":
        text = convergence.to_csv(series)
    elif args.output == "json":
        text = convergence.to_json(series)
    else:
        lines = [
            f"s = {_fmt_complex(args.s)}",
            f"representation = {args.rep_label}",
            _reference_line(series.reference),
            f"{'q':>10}  {'estimate':>24}  {'abs_error':>12}",
        ]
        for r in series.records:
            lines.append(
                f"{r.q:>10}  {_fmt_complex(r.estimate):>24}  {r.abs_error:>12.6e}"
            )
        if series.fitted_order is not None:
            lines.append(
                f"fitted_order = {float_text(series.fitted_order)} "
                f"(empirical; fit residual {float_text(series.fit_residual or 0.0)})"
            )
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def _run_oracle(args: argparse.Namespace) -> int:
    from . import oracle

    ref = oracle.reference_zeta(args.s)
    if args.output == "json":
        text = json_text({"s_re": args.s.real, "s_im": args.s.imag, **ref.to_dict()})
    elif args.output == "csv":
        text = (
            "s,re_value,im_value,method,error_bound\n"
            f"{_fmt_complex(args.s)},{float_text(ref.value.real)},"
            f"{float_text(ref.value.imag)},{ref.method},{float_text(ref.error_bound)}\n"
        )
    else:
        text = (
            f"s = {_fmt_complex(args.s)}\n"
            f"zeta = {_fmt_complex(ref.value)}\n"
            f"method = {ref.method}\n"
            f"error_bound = {float_text(ref.error_bound)}\n"
        )
    _emit(text, args.out)
    return 0


# ----------------------------- verify suites -----------------------------

#: One check of a suite: its printed line, and its failure or None.
_Check = tuple[str, str | None]


def _check(ok: bool, line: str, failure: str) -> _Check:
    return f"{line} {'ok' if ok else 'FAIL'}", None if ok else failure


def _suite_bernoulli(_s: complex | None) -> Iterator[_Check]:
    from . import oracle

    for n in range(1, 6):
        even = oracle.zeta_even(n)
        ref = oracle.zeta_dirichlet(complex(2 * n), 1_000_000)
        gap = abs(even.value - ref.value)
        yield _check(
            gap <= ref.error_bound,
            f"bernoulli n={n}: |zeta_even - dirichlet| = {gap:.3e} "
            f"(bound {ref.error_bound:.3e})",
            f"zeta_even({n}) vs dirichlet gap {gap:.3e} > {ref.error_bound:.3e}",
        )


#: Re(s) > 1 (at 1.05 reference_zeta reports Euler-Maclaurin-Bernoulli),
#: then the critical strip 0 < Re(s) <= 1.
_CROSS_S = (1.05, 1.5, 2.0, 3.0, 4.0, 2.5 + 1.3j, 10.0, 0.5, 0.9, 0.5 + 18j)


def _suite_cross(_s: complex | None) -> Iterator[_Check]:
    from . import oracle

    for s in _CROSS_S:
        s = complex(s)
        for a, b in itertools.combinations(oracle.cross_routes(s), 2):
            gap = abs(a.value - b.value)
            allowance = a.error_bound + b.error_bound
            yield _check(
                gap <= allowance,
                f"cross s={_fmt_complex(s)}: |{a.method} - {b.method}| = {gap:.3e} "
                f"(bounds sum {allowance:.3e})",
                f"s={_fmt_complex(s)} {a.method} vs {b.method}: {gap:.3e} > {allowance:.3e}",
            )


def _suite_tannery(s: complex | None) -> Iterator[_Check]:
    from . import tannery, trig_sums

    for s_val in map(complex, [1.5, 2.0, 3.0] if s is None else [s]):
        if s_val.imag != 0.0:
            raise UsageError("the tannery suite checks real s only")
        reports = []
        for spec in map(trig_sums.classical_form, ("E28", "E29", "E30", "E31", "E32")):
            inst = tannery.zeta_trig_instance(spec.kind, spec.m, spec.n, s_val.real)
            # condition (ii) first: it refuses s <= 0 and any s whose
            # dominating bound overflows, before the schedule is sized
            rep_ii = tannery.verify_condition_ii(inst, 1000, 1000)
            # the p = 1 deviation is about s/(2q), so run q up to 1000 s
            k = max(4, math.ceil(math.log10(1000.0 * s_val.real)))
            rep_i = tannery.verify_condition_i(inst, 5, [10**j for j in range(1, k + 1)], 1e-3)
            reports.append((inst.name, rep_i, rep_ii))
        for name, rep_i, rep_ii in reports:
            reason = [] if rep_i.passed else ["condition (i)"]
            if not rep_ii.passed:
                converges = "" if rep_ii.series_converges else " (bound series not convergent)"
                reason.append(f"condition (ii){converges}")
            lines = [f"instance={name}", f"passed={str(not reason).lower()}"]
            failure = f"{name}: {' and '.join(reason)} failed" if reason else None
            yield "\n".join([*lines, rep_i.to_kv(), rep_ii.to_kv()]), failure


def _suite_specializations(_s: complex | None) -> Iterator[_Check]:
    from . import oracle, trig_sums

    s, q = complex(2.0), 2048
    ref = oracle.reference_zeta(s)
    tol_rel = 10.0 / q
    for cid in trig_sums.CATALOG_IDS:
        spec = trig_sums.classical_form(cid)
        ev = trig_sums.finite_trig_sum(spec, q, s)
        rel = abs(ev.value - ref.value) / abs(ref.value)
        yield _check(
            rel < tol_rel,
            f"specialization {cid} -> ({spec.kind.value}, m={spec.m}, n={spec.n}): "
            f"upper {ev.term_count} rel_err {rel:.3e} (tol {tol_rel:.3e})",
            f"{cid}: rel err {rel:.3e} >= {tol_rel:.3e} at q={q}",
        )


#: Each suite's checks in print order, given the --s that only the
#: tannery suite reads.
_SUITES: dict[str, Callable[[complex | None], Iterator[_Check]]] = {
    "bernoulli": _suite_bernoulli,
    "cross": _suite_cross,
    "tannery": _suite_tannery,
    "specializations": _suite_specializations,
}


def _run_verify(args: argparse.Namespace) -> int:
    failures = []
    for line, failure in _SUITES[args.suite](args.s):
        print(line)
        if failure is not None:
            failures.append(failure)
    if failures:
        sys.stderr.write(
            f"error: verify suite {args.suite}: {len(failures)} check(s) failed: "
            f"{failures[0]}\n"
        )
        return 2
    print(f"suite {args.suite}: all checks passed")
    return 0


_COMMANDS = {
    "eval": _run_eval,
    "converge": _run_converge,
    "oracle": _run_oracle,
    "verify": _run_verify,
}


def execute(args: argparse.Namespace) -> int:
    """Run parse_args' validated namespace; returns the process exit status."""
    return _COMMANDS[args.command](args)


def main(argv: list[str] | None = None) -> int:
    """Parse and run argv; every error ends in one ``error:`` line and
    its documented exit status."""
    try:
        return execute(parse_args(sys.argv[1:] if argv is None else list(argv)))
    except (
        UsageError,
        DomainError,
        UnsupportedRangeError,
        InsufficientDataError,
        OSError,
    ) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except CrossCheckError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
