import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Tier-1 runs the same examples on every machine, and slow pure-Python
# oracles cannot trip the per-example deadline.
settings.register_profile("belllab", derandomize=True, deadline=None)
settings.load_profile("belllab")
