"""reference_zeta, finite_trig_sum and the tannery suite keep their bits.

``reference_bits.json`` records the value, error bound and method of
``reference_zeta`` at every s below, ``finite_trig_sum``'s value and
rounding bound over a grid of shapes, q and s, the stdout of
``verify --suite tannery`` at two s, and the exit status, stdout and
stderr of a list of commands, together with the numpy version and the
SIMD targets numpy dispatches to, since both decide the last bits
(``NPY_DISABLE_CPU_FEATURES`` switches targets off).  Where both match
the recording, every value, bound and byte must be kept.  Elsewhere each
reference must lie within its own bound of the recorded one, each sum
within the sum of the two rounding bounds of the recorded one, each
line of the tannery stdout must keep its key and every boolean field,
and each command its exit status and, numbers aside, every byte.

A change that moves bits on purpose regenerates the file and says which
entries moved, and why, in CHANGES.md:

    PYTHONPATH=src python tests/test_reference_bits.py
"""

import contextlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import trigzeta as tz
from trigzeta import cli

GOLDEN = Path(__file__).resolve().parent / "reference_bits.json"

S_VALUES = (
    # cli._CROSS_S
    1.05, 1.5, 2.0, 3.0, 4.0, 2.5 + 1.3j, 10.0, 0.5, 0.9, 0.5 + 18j,
    # the rest of the oracle-cold benchmark panel, then of lab-sweep's
    3.7, 3.0 + 2.0j,
    2.7,
    # the rest of the s of the base cli-commands round
    2.5,
    # either side of the real s whose floor-function cutoff hits its cap,
    # and a large |Im s|
    1.455, 1.46, 2.5 + 1e4j,
)

# the kernel grid: q from one block to past 32 of them, with one index
# past a block boundary at 4097 and 131073
KERNEL_SHAPES = ("E28", "E29", "E30", "E31", "E32")
KERNEL_Q = (7, 50, 300, 4097, 20000, 10**5, 131073)
KERNEL_S = (1.5, 2.0, 2.5, 4.0, 30.0, 1.05, 2.5 + 1.3j, 3 + 15j, 1.2 - 7j)

# the default s, and the s = 1 negative control
TANNERY_ARGVS = (
    ["verify", "--suite", "tannery"],
    ["verify", "--suite", "tannery", "--s", "1"],
)

# the base round of the benchmark's cli-commands workload, then the
# command whose --out bytes CI compares with its stdout
CLI_ARGVS = (
    ["eval", "--s", "2.000000", "--rep", "E28", "--q", "1000"],
    ["eval", "--s", "2.500000+1.300000i", "--rep", "E31", "--q", "500", "--output", "csv"],
    ["eval", "--s", "3.000000", "--rep", "E30", "--q", "200", "--output", "json"],
    ["converge", "--s", "2.500000", "--rep", "E29", "--output", "csv"],
    ["oracle", "--s", "3.000000"],
    ["verify", "--suite", "tannery"],
    ["verify", "--suite", "specializations"],
    ["verify", "--suite", "tannery", "--s", "1"],
    ["eval", "--s", "1e400", "--rep", "E28", "--q", "10"],
    ["eval", "--s", "2+1e300i", "--rep", "E28", "--q", "10"],
    ["oracle", "--s", "2", "--output", "csv"],
)


def dispatch() -> dict[str, object]:
    """numpy's version and the SIMD targets it reports as enabled."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath
    features = _multiarray_umath.__cpu_features__
    return {"numpy": np.__version__, "cpu_features": sorted(k for k, on in features.items() if on)}


def record(s: complex) -> dict[str, object]:
    ref = tz.reference_zeta(s)
    return {
        "s": [s.real, s.imag],
        "value": [ref.value.real, ref.value.imag],
        "error_bound": ref.error_bound,
        "method": ref.method,
    }


def kernel_record(shape: str, q: int, s: complex) -> dict[str, object]:
    ev = tz.finite_trig_sum(tz.classical_form(shape), q, s)
    return {
        "shape": shape,
        "q": q,
        "s": [s.real, s.imag],
        "value": [ev.value.real, ev.value.imag],
        "rounding_bound": ev.rounding_bound,
    }


def cli_record(argv: list[str]) -> dict[str, object]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    return {"argv": argv, "status": status, "stdout": out.getvalue(), "stderr": err.getvalue()}


def tannery_record(argv: list[str]) -> dict[str, object]:
    return {"argv": argv, "stdout": cli_record(argv)["stdout"]}


def _bits(entry: dict, bound: str = "error_bound") -> list[str]:
    return [x.hex() for x in (*entry["value"], entry[bound])]


_GOLDEN = {
    "dispatch": None,
    "entries": [],
    "kernel": [],
    "tannery": [],
    "cli": [],
    **(json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}),
}
_ENTRIES = _GOLDEN["entries"]


def test_the_file_covers_the_list():
    assert [complex(*e["s"]) for e in _ENTRIES] == [complex(s) for s in S_VALUES]
    assert set(cli._CROSS_S) <= set(S_VALUES)
    grid = [(shape, q, complex(s)) for shape in KERNEL_SHAPES for q in KERNEL_Q for s in KERNEL_S]
    assert [(e["shape"], e["q"], complex(*e["s"])) for e in _GOLDEN["kernel"]] == grid
    assert [e["argv"] for e in _GOLDEN["tannery"]] == list(TANNERY_ARGVS)
    assert [e["argv"] for e in _GOLDEN["cli"]] == list(CLI_ARGVS)


@pytest.mark.parametrize("entry", _ENTRIES, ids=lambda e: f"s={complex(*e['s'])}")
def test_reference_keeps_its_bits(entry):
    now = record(complex(*entry["s"]))
    assert now["method"] == entry["method"]
    if _GOLDEN["dispatch"] == dispatch():
        assert _bits(now) == _bits(entry)
    else:
        gap = abs(complex(*now["value"]) - complex(*entry["value"]))
        assert math.isfinite(now["error_bound"]) and gap <= now["error_bound"]


@pytest.mark.parametrize("shape", KERNEL_SHAPES)
def test_kernel_keeps_its_bits(shape):
    moved = []
    for entry in (e for e in _GOLDEN["kernel"] if e["shape"] == shape):
        now = kernel_record(shape, entry["q"], complex(*entry["s"]))
        if _GOLDEN["dispatch"] == dispatch():
            kept = _bits(now, "rounding_bound") == _bits(entry, "rounding_bound")
        else:
            gap = abs(complex(*now["value"]) - complex(*entry["value"]))
            kept = gap <= now["rounding_bound"] + entry["rounding_bound"]
        if not kept:
            moved.append((entry["q"], complex(*entry["s"])))
    assert moved == []


def _key_and_flag(line: str) -> tuple[str, str | None]:
    """A line's key (the whole line if it has none) and its boolean value."""
    key, _, value = line.partition("=")
    return key, value if value in ("true", "false") else None


@pytest.mark.parametrize("entry", _GOLDEN["tannery"], ids=lambda e: " ".join(e["argv"]))
def test_tannery_stdout_keeps_its_bytes(entry):
    now = tannery_record(entry["argv"])["stdout"]
    if _GOLDEN["dispatch"] == dispatch():
        assert now == entry["stdout"]
    else:
        recorded = entry["stdout"].splitlines()
        assert list(map(_key_and_flag, now.splitlines())) == list(map(_key_and_flag, recorded))


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


@pytest.mark.parametrize("entry", _GOLDEN["cli"], ids=lambda e: " ".join(e["argv"]))
def test_command_keeps_its_bytes(entry):
    now = cli_record(entry["argv"])
    if _GOLDEN["dispatch"] == dispatch():
        assert now == entry
    else:
        assert now["status"] == entry["status"]
        for stream in ("stdout", "stderr"):
            assert _NUMBER.sub("#", now[stream]) == _NUMBER.sub("#", entry[stream])


if __name__ == "__main__":
    payload = {
        "dispatch": dispatch(),
        "entries": [record(complex(s)) for s in S_VALUES],
        "kernel": [
            kernel_record(shape, q, complex(s))
            for shape in KERNEL_SHAPES
            for q in KERNEL_Q
            for s in KERNEL_S
        ],
        "tannery": [tannery_record(argv) for argv in TANNERY_ARGVS],
        "cli": [cli_record(argv) for argv in CLI_ARGVS],
    }
    GOLDEN.write_text(json.dumps(payload, indent=1) + "\n")
