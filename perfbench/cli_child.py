"""Traced stand-in for ``python -m boneage.cli``, used by the traced
predict-cli run only.

    python3 perfbench/cli_child.py OUT.json predict --out DIR IMAGE

Times ``import boneage.cli`` from a fresh interpreter, installs the
tracer, runs ``boneage.cli.main`` on the remaining arguments, and writes
its span totals, work counts and spans to OUT.json. Output on stdout
and the exit code are the CLI's own.
"""

import json
import sys
import time

t_import = time.perf_counter()
import boneage.cli  # noqa: E402

import_s = time.perf_counter() - t_import

from tracer import Tracer  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.phase = "measure"
    t0 = time.perf_counter()
    code = boneage.cli.main(argv)
    main_s = time.perf_counter() - t0
    tracer.uninstall()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "import_s": import_s,
                "main_s": main_s,
                "totals": tracer.totals("measure"),
                "counts": dict(tracer.counts["measure"]),
                "spans": tracer.spans,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
