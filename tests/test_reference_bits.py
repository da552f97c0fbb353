"""reference_zeta keeps its bits at a fixed list of s.

``reference_bits.json`` records the value, error bound and method of
``reference_zeta`` at every s below, together with the numpy version and
the SIMD targets numpy dispatches to, since both decide the last bits
(``NPY_DISABLE_CPU_FEATURES`` switches targets off).  Where both match
the recording, every value and bound must keep its bits.  Elsewhere each
value must lie within its own bound of the recorded one.

A change that moves bits on purpose regenerates the file and says which
entries moved, and why, in CHANGES.md:

    PYTHONPATH=src python tests/test_reference_bits.py
"""

import json
import math
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


def _bits(entry: dict) -> list[str]:
    return [x.hex() for x in (*entry["value"], entry["error_bound"])]


_GOLDEN = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"dispatch": None, "entries": []}
_ENTRIES = _GOLDEN["entries"]


def test_the_file_covers_the_list():
    assert [complex(*e["s"]) for e in _ENTRIES] == [complex(s) for s in S_VALUES]
    assert set(cli._CROSS_S) <= set(S_VALUES)


@pytest.mark.parametrize("entry", _ENTRIES, ids=lambda e: f"s={complex(*e['s'])}")
def test_reference_keeps_its_bits(entry):
    now = record(complex(*entry["s"]))
    assert now["method"] == entry["method"]
    if _GOLDEN["dispatch"] == dispatch():
        assert _bits(now) == _bits(entry)
    else:
        gap = abs(complex(*now["value"]) - complex(*entry["value"]))
        assert math.isfinite(now["error_bound"]) and gap <= now["error_bound"]


if __name__ == "__main__":
    payload = {"dispatch": dispatch(), "entries": [record(complex(s)) for s in S_VALUES]}
    GOLDEN.write_text(json.dumps(payload, indent=1) + "\n")
