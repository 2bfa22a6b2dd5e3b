"""Set-up time in a fresh interpreter: import rdmlab and generate a workload's instances.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the seconds from interpreter start-up to the last instance generated,
i.e. what a sweep pays before its first task runs.
"""

import time

_STARTED = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from rdmlab import derive_seed, generate_instance
    from workloads import WORKLOADS

    workload, seed = WORKLOADS[sys.argv[1]], int(sys.argv[2])
    for r in range(workload.fixed_rounds):
        cfg = workload.experiment(seed, r)
        for i in range(cfg.instances):
            generate_instance(cfg, derive_seed(cfg.master_seed, "instance", i))
    print(repr(time.perf_counter() - _STARTED))
    return 0


if __name__ == "__main__":
    sys.exit(main())
