"""Record offline-train's reference train_mse for a range of seeds.

    PYTHONPATH=src python3 perfbench/record_train_reference.py 0 50

runs the offline-train workload for seeds 0..49 and rewrites
perfbench/data/train_reference.json.  The benchmark fails a run whose
train_mse differs from its seed's reference by more than
workloads.TRAIN_MSE_RTOL, or (for any seed) lies outside ``band``: the
recorded range widened by BAND_MARGIN on each side.  Re-record only when
a change is meant to alter training results, and say so.
"""

import json
import os
import sys
import tempfile

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                  MKL_NUM_THREADS="1")

import workloads  # noqa: E402
from mhenet import experiments  # noqa: E402

BAND_MARGIN = 0.25


def main(first, stop):
    refs = {}
    for seed in range(first, stop):
        with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=".") as out:
            m = experiments.run(workloads.config("offline-train", seed, out))
        refs[str(seed)] = m.metrics["train_mse"]
        print(seed, refs[str(seed)], flush=True)
    lo, hi = min(refs.values()), max(refs.values())
    data = {"epochs": workloads.TRAIN_EPOCHS,
            "band": [lo * (1 - BAND_MARGIN), hi * (1 + BAND_MARGIN)],
            "train_mse": refs}
    with open(workloads.DATA_DIR / "train_reference.json", "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]))
