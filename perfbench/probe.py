"""One set-up as a user's fresh process pays it; run.py times this script.

Usage: python3 perfbench/probe.py MANIFEST.json
The manifest names the input files and the warm-up job's argv.  The script
imports baltri, builds the gallery, parses every input, runs the warm-up
job with its output discarded, and exits 0 when the job succeeded.
"""

import io
import json
import os
import sys
from contextlib import redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from baltri import cli, fileio  # noqa: E402

PARSERS = {".tri": fileio.parse_tri, ".bip": fileio.parse_bip, ".ops": fileio.parse_bip_script}


def set_up(inputs, warmup):
    """Gallery, inputs, warm-up job; returns the warm-up job's exit code."""
    for build in cli.GALLERY.values():
        build()
    for path in inputs:
        with open(path) as fh:
            PARSERS[os.path.splitext(path)[1]](fh.read())
    with redirect_stdout(io.StringIO()):
        return cli.main(warmup)


def main(manifest_path):
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    return set_up(manifest["inputs"], manifest["warmup"])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
