"""Make one workload's inputs in a fresh interpreter.

    python3 perfbench/setup_inputs.py WORKLOAD SEED OUTDIR

The benchmark times this whole process as its set-up: the interpreter
start, ``import nactree`` and generating the inputs.  It writes the inputs
and ``manifest.json`` (file digests, columns, sampling time, and the host
speed samples taken from just after ``import numpy`` to the end) into
OUTDIR.  WORKLOAD may carry the ``-tiny`` suffix of the self-test sizes.
"""

import json
import sys
from pathlib import Path

import hostspeed

TIMING = hostspeed.Sampler().start()

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (imports nactree: part of the timed set-up)


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 1
    name, seed, out = argv
    out = Path(out)
    manifest = workloads.make_inputs(workloads.lookup(name), int(seed), out)
    TIMING.stop()
    manifest["speed"] = {"spent_s": TIMING.spent_s,
                         "samples_s": TIMING.samples}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n",
                                       encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
