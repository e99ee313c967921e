"""Run the ghostcycles CLI in this process with layer spans recorded.

    python3 perfbench/traced_cli.py SPANS_JSON CLI_ARG...

Exits with the CLI's own exit code after writing the spans, the hooks
that could not be installed, and this process's pid to SPANS_JSON.
"""

import json
import os
import sys

import layers


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    layers.install()
    from ghostcycles import cli

    code = cli.main(cli_args)
    sys.stdout.flush()
    tracer = layers.TRACER
    doc = {"pid": os.getpid(), "missing": tracer.missing, "spans": tracer.spans}
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
