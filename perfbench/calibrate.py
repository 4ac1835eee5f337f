"""One-off calibration against the baseline table in ROADMAP.md (item B1).

    python3 perfbench/calibrate.py

Times three rows of that table on this checkout: a fresh-interpreter CLI
`report models/ctr.fb`, elaborating Ring(20001) and the oracle on
Ring(2001). Ring(n) is `var x : 0..n` with events inc, back and done, one
ensures and one leadsto property. These are calibration notes for the
README, not benchmark workloads.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def ring_text(n: int) -> str:
    return "\n".join([
        "system ring",
        f"  var x : 0..{n}",
        f"  event inc when x < {n} then x := x + 1 end",
        f"  event back when x > 0 and x < {n} then x := x - 1 end",
        f"  event done when x < {n} then x := {n} end",
        "end",
        f"property E ensures helpful {{done}} from x < {n} to x = {n}",
        f"property L leadsto from x < {n} to x = {n}",
    ]) + "\n"


def main() -> int:
    sys.path.insert(0, str(SRC))
    from faircheck.elaborator import elaborate
    from faircheck.parser import parse_document
    from faircheck.unity import semantic_leadsto

    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, "-m", "faircheck", "report", "models/ctr.fb"]
    subprocess.run(command, env=env, cwd=ROOT, check=True, capture_output=True)
    start = time.perf_counter()
    subprocess.run(command, env=env, cwd=ROOT, check=True, capture_output=True)
    print(f"CLI report models/ctr.fb        {time.perf_counter() - start:.3f} s")

    start = time.perf_counter()
    elaborate(parse_document(ring_text(20001)).document)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"elaborate Ring(20001)           {time.perf_counter() - start:.3f} s, "
          f"peak RSS {rss:.0f} MB")

    model = elaborate(parse_document(ring_text(2001)).document)
    prop = model.properties["L"]
    start = time.perf_counter()
    verdict = semantic_leadsto(model.systems["ring"].system, prop.p, prop.q)
    print(f"oracle Ring(2001)               {time.perf_counter() - start:.3f} s "
          f"(holds: {verdict.holds})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
