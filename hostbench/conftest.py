"""Test set-up for the benchmark's own tests: import ``repro`` from ``src/``.

Run them from the repository root with ``python3 -m pytest hostbench``.
"""

import run

run.use_source_tree()
