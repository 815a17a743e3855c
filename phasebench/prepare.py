"""Set-up of one workload, run as a child process of ``run.py``.

    python3 -m phasebench.prepare <workload> <seed> <out_dir> <smoke 0|1>

Prints one JSON object: the paths made and the set-up timings.
"""

import json
import sys

from phasebench.workloads import WORKLOADS, prepare


def main(argv):
    name, seed, out_dir, smoke = argv
    info = prepare(WORKLOADS[name], int(seed), out_dir, smoke == "1")
    print(json.dumps(info))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
