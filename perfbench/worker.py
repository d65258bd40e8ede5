"""One part of a round's timed part, in a fresh process.

    python3 perfbench/worker.py <workload> <round_dir> <trace 0|1> <part>

Writes <round_dir>/result_<part>.json with the wall time of the timed calls
and the process's peak resident memory, and with trace 1 also
<round_dir>/spans_<part>.jsonl. The program's own prints go to stdout, which
the benchmark sends to <round_dir>/worker_<part>.log.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    workload, round_dir, trace, part = argv[1], Path(argv[2]), argv[3] == "1", argv[4]
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    start = time.perf_counter()
    result = workloads.timed_part(workload, round_dir, part)
    result["wall_s"] = time.perf_counter() - start
    if tracer:
        tracer.uninstall()
        tracer.write(round_dir / f"spans_{part}.jsonl")
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    (round_dir / f"result_{part}.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
