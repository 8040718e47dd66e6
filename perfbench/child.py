"""Child processes of the benchmark.

    python3 perfbench/child.py setup
        Import qndspin.cli and build the shipped RunConfig; print one JSON
        line with the monotonic clock at that point and both durations.

    python3 -X importtime perfbench/child.py trace OUT OP -- ARGS...
        Run ``qndspin.cli.main(ARGS)`` with the span recorder installed,
        write the spans to OUT and exit with the CLI's exit code.

The parent puts the checkout's ``src`` on PYTHONPATH.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# import the benchmark as the `perfbench` package, not as loose modules
sys.path[0] = str(ROOT)


def setup() -> int:
    t0 = time.perf_counter()
    import qndspin.cli  # noqa: F401  (the import users pay on every CLI call)
    t1 = time.perf_counter()
    from qndspin.config import load_and_validate
    load_and_validate()
    t2 = time.perf_counter()
    print(json.dumps({"ready": time.monotonic(), "import_s": t1 - t0, "config_s": t2 - t1}))
    return 0


def trace(out: str, op: str, argv: list) -> int:
    t0 = time.perf_counter()
    import qndspin.cli as cli
    import_s = time.perf_counter() - t0
    from perfbench.spans import Recorder

    rec = Recorder()
    rec.op = int(op)
    rec.install()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        rec.uninstall()
        Path(out).write_text(json.dumps({"import_s": import_s, **rec.dump()}))
    return code


def main(argv: list) -> int:
    if argv[:1] == ["setup"]:
        return setup()
    if argv[:1] == ["trace"] and len(argv) >= 4 and argv[3] == "--":
        return trace(argv[1], argv[2], argv[4:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
