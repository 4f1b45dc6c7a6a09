"""One procrec CLI command in a fresh interpreter, timed from the inside.

    python3 worker.py SRC RESULT setup
    python3 worker.py SRC RESULT run [--spans SPANS] -- CLI_ARGS...

SRC is the checkout's ``src`` directory; procrec is imported from there and
nowhere else. RESULT receives one JSON object: ``setup_s`` (import
``procrec.cli`` and build its parser), and for ``run`` also ``wall_s``
(``cli.main``), ``exit_code`` and ``peak_rss_mb``. With ``--spans`` the public
functions are wrapped with spans first and the spans are written to SPANS.

Only ``sys`` and ``time`` are imported before the setup clock starts, so the
standard-library modules procrec pulls in are charged to its setup.
"""

import sys
import time


def peak_rss_mb() -> float:
    """High-water resident set of this process image.

    ``getrusage`` is not used: across fork and exec it keeps the high-water
    mark of the forking parent, the benchmark itself.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    src, result_path, mode = sys.argv[1:4]
    rest = sys.argv[4:]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import procrec.cli as cli

    cli.build_parser()
    setup_s = time.perf_counter() - t0

    import json
    import os

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"procrec imported from {cli.__file__}, not from {src}")
    result = {"setup_s": setup_s}
    if mode == "run":
        spans_path = None
        if rest[0] == "--spans":
            spans_path, rest = rest[1], rest[2:]
        argv = rest[1:]  # drop the "--" separator
        tracer = None
        if spans_path is not None:
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        t1 = time.perf_counter()
        code = cli.main(argv)
        t2 = time.perf_counter()
        result.update(
            wall_s=t2 - t1,
            exit_code=code,
            peak_rss_mb=peak_rss_mb(),
        )
        if tracer is not None:
            tracer.uninstall()
            tracer.write(spans_path, t1, t2)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
