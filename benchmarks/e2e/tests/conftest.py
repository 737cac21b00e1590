"""Self-tests of the end-to-end benchmark (outside tier-1):

    PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q
"""

from __future__ import annotations

import os
import sys

E2E = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(E2E))
for path in (os.path.join(ROOT, "src"), E2E):
    if path not in sys.path:
        sys.path.insert(0, path)
