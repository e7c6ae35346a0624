"""Self-tests of the benchmark's own code: ``python3 -m pytest perfbench -q``."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
