"""Run one ``stardeck`` CLI command under the tracer.

Usage: cli_child.py spans|memory SUMMARY_JSON ARG...

Times the import of ``stardeck.cli``, wraps the package's public functions,
runs ``main(ARG...)`` and writes the span summary, the spans and the import
time to SUMMARY_JSON.  Exits with the command's own exit code.
"""

import json
import sys
import time
import tracemalloc


def run(mode: str, summary_path: str, argv: list[str]) -> int:
    if mode == "memory":
        tracemalloc.start()
    start = time.perf_counter()
    import stardeck.cli
    import_ms = (time.perf_counter() - start) * 1000

    from tracer import Tracer

    tracer = Tracer()
    tracer.memory = mode == "memory"
    tracer.install()
    try:
        code = stardeck.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(summary_path, "w", encoding="utf-8") as handle:
            json.dump({"import_ms": import_ms, "top_s": tracer.top_time,
                       "summary": tracer.summary(), "spans": tracer.spans()}, handle)
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2], sys.argv[3:]))
