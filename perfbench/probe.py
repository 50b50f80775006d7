"""Set-up probe: start an interpreter, import the package, parse the inputs.

Usage: python3 perfbench/probe.py DOCUMENT...

Prints one JSON line with the active kernel backend and the Python version.
Exits non-zero when a document does not parse.
"""

from __future__ import annotations

import json
import platform
import sys

import reesdensity


def main(paths: list[str]) -> int:
    for path in paths:
        reesdensity.load_module_file(path)
    print(json.dumps({"backend": reesdensity.BACKEND, "python": platform.python_version()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
