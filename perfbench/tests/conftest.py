"""Make the benchmark's modules importable (the repository's root
conftest already puts ``src/`` on the path)."""

import os
import sys

_BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _BENCH not in sys.path:
    sys.path.insert(0, _BENCH)
