"""One cold set-up of a workload, timed in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR [DATASET_NPZ]

Times ``import glogtda``, then, given a dataset, ``load_dataset`` of every
split and one ``build_complex`` at the volumes' dims, which fills the
program's per-dims structure cache. Prints one JSON object of seconds.
"""

import json
import sys
import time


def main(argv) -> int:
    t0 = time.perf_counter()
    sys.path.insert(0, argv[1])
    import numpy as np

    from glogtda import cubical_persistence, volume_io

    t1 = time.perf_counter()
    out = {"import_s": t1 - t0, "load_s": 0.0, "structure_s": 0.0}
    if len(argv) > 2:
        datasets = [volume_io.load_dataset(argv[2], s) for s in ("train", "val", "test")]
        t2 = time.perf_counter()
        cubical_persistence.build_complex(np.zeros(datasets[0].volumes[0].dims))
        t3 = time.perf_counter()
        out.update(load_s=t2 - t1, structure_s=t3 - t2)
    out["setup_s"] = time.perf_counter() - t0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
