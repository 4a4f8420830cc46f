"""Run one segtrain command from this checkout's sources.

    python3 bench/launch.py [--trace FILE] <segtrain arguments>

Without --trace this is the `segtrain` console script: it imports
`segtrain.cli` from `src/` and calls `main(argv)`.  With --trace it
first wraps the package's layer functions (see tracer.py) and, when
the command ends, writes the spans and the import time to FILE.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str]) -> int:
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    if not (SRC / "segtrain" / "__init__.py").is_file():
        print(f"launch: no segtrain package under {SRC}", file=sys.stderr)
        return 3
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import segtrain.cli
    import_s = time.perf_counter() - start
    if not Path(segtrain.cli.__file__).resolve().is_relative_to(SRC):
        print(f"launch: segtrain imported from outside {SRC}", file=sys.stderr)
        return 3
    if trace_path is None:
        return segtrain.cli.main(argv)

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return segtrain.cli.main(argv)
    finally:
        tracer.dump(trace_path, import_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
