import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
for p in (BENCH_DIR.parent / "src", BENCH_DIR):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))
