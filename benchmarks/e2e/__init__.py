"""End-to-end, per-layer benchmark of the one measured request path.

``python -m benchmarks.e2e`` is the one command; ``BENCHMARK.json`` at
the repository root names the metrics, workloads and bounds it reports.
See ``README.md`` in this directory for the glossary.

The harness measures :mod:`repro` strictly from outside: it imports the
package from ``src/`` of the checkout it runs in and times calls into
public functions; nothing under ``src/repro`` knows it exists.
"""

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RESULTS = HERE / "results"

# The program under test is the one in this checkout, never an
# installed copy: the benchmark compares commits.
SOURCES = ROOT / "src"
if (SOURCES / "repro").is_dir() and str(SOURCES) not in sys.path:
    sys.path.insert(0, str(SOURCES))
