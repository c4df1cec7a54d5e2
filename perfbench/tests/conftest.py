import sys
from pathlib import Path

# the benchmark is imported as the `perfbench` package from the repository root
sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
