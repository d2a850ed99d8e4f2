"""Record the per-chunk values that the invertibility and mc_projection
checks pin, at each workload's default seed and size.

    python3 perfbench/pin.py

The pins are the reference outputs: regenerate them only on a commit
whose outputs are known good, never to make a check pass.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import PINS_PATH, Invertibility, McProjection  # noqa: E402

# over twenty times the ops one 20-second run of each workload makes on
# the seed commit, so the exact checks still cover every op of a run of
# code 20x faster
CHUNKS = {Invertibility: 7680, McProjection: 1600}


def main() -> None:
    pins = {}
    for cls, chunks in CHUNKS.items():
        wl = cls(cls.default_seed)
        wl.setup()
        # 6 decimals keep the file small and lie far inside OPNORM_REL_TOL
        values = [[round(v, 6) for v in wl.pin_values(wl.op(c))] for c in range(chunks)]
        pins[cls.name] = {"size": wl.size, "values": values}
    PINS_PATH.write_text(json.dumps(pins, indent=None) + "\n")


if __name__ == "__main__":
    main()
