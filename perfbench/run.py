"""Benchmark entry point; run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It needs the program's sources under src/ and exits with code 2 without them.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    if not (ROOT / "src" / "tilepipe" / "__init__.py").is_file():
        print(f"perfbench: no tilepipe sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:1] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import main as bench_main

    return bench_main(ROOT, sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
