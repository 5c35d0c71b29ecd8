"""Run ``tools/serve.py`` with the benchmark's span wrappers installed.

    python3 perfbench/serve_launcher.py --trace-out spans.json -- \\
        --snapshot base.jsonl --port 0

The traced serve-mixed run starts the server through this launcher: it
installs :mod:`tracing` around the program's entry points, then runs the
unmodified ``tools/serve.py`` ``main`` in this process, and writes the
span report to ``--trace-out`` once the server has shut down.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402  (benchmark-local modules)
import tracing  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace-out", required=True, type=Path)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]

    common.use_source_tree()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    spec = importlib.util.spec_from_file_location(
        "serve_tool", common.SERVE_TOOL
    )
    serve = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(serve)
    try:
        return serve.main(serve_args)
    finally:
        args.trace_out.write_text(json.dumps(tracer.report()))


if __name__ == "__main__":
    raise SystemExit(main())
