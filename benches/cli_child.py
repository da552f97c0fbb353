"""Run the trigzeta CLI once, timing its layers separately.

    PYTHONPATH=src python3 benches/cli_child.py eval --s 2 --rep E28 --q 1000

Behaves like ``python -m trigzeta`` with the same arguments (same
stdout, stderr and exit status) and then appends one line
``benches-trace {...}`` to stderr with the seconds spent importing
``trigzeta.cli``, in ``cli.parse_args`` and in ``cli.execute``.  The
traced ``cli-commands`` run starts this instead of ``-m trigzeta``.
"""

import json
import sys
import time

MARK = "benches-trace "


def main(argv: list[str]) -> int:
    times: dict[str, float] = {}
    t0 = time.perf_counter()
    from trigzeta import cli

    times["import_s"] = time.perf_counter() - t0

    def timed(fn, key):
        def wrapper(*args, **kwargs):
            t = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                times[key] = time.perf_counter() - t

        return wrapper

    # cli.main looks both names up at call time, so wrapping the module
    # attributes times them without changing what main does.
    cli.parse_args = timed(cli.parse_args, "parse_args_s")
    cli.execute = timed(cli.execute, "execute_s")
    try:
        return cli.main(argv)
    finally:
        sys.stderr.write(MARK + json.dumps(times) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
