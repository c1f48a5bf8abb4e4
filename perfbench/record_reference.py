"""Record the reference outputs that benchmark runs are checked against.

Usage (from the repository root):

    python3 perfbench/record_reference.py --workload 2d-disk-28 --seeds 0-31,9001

For every seed this stores, per extraction sample, the raw persistence bar
count per degree summed over the lines and each degree block's feature sum
and seeded projection, plus the bar counts of the seeded spot-check slices;
for the training workload, epochs run, validation AUC and checkpoint digest.
Record only at a commit whose outputs are known good: a run that disagrees
with the reference counts as failed.
"""

import argparse
import json
import sys

import run  # pins BLAS threads before numpy loads
import workloads
from spans import Tracer


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record_extraction(g, tracer: Tracer, spec, seed: int) -> dict:
    work = run.OUT / f"record-{spec.name}-{seed}"
    work.mkdir(parents=True, exist_ok=True)
    _, vols, _ = run.extraction_inputs(g, spec, seed, work)
    cfg, grid = run.fit_grid(g, spec, vols)
    degrees = tuple(range(vols[0].n))
    samples = []
    for v in vols:
        field = g.bifiltration.compute_glog(v, spec.sigma_gauss, spec.sigma_log)
        tracer.spans.clear()
        tracer.enabled = True
        fv = g.vectorize.build_features([field], cfg, degrees=degrees, grid=grid)[0]
        tracer.enabled = False
        bars = [0] * len(degrees)
        for sp in tracer.spans:
            if sp.name == "cubical_persistence.compute_persistence":
                for d in degrees:
                    bars[d] += sp.attrs.get(f"bars_h{d}", 0)
        sums, projs = run.feature_summary(fv.values, len(degrees))
        samples.append({"bars": bars, "sum": sums, "proj": projs})
    spot = []
    for sid, line, quantile in run.spot_triples(spec, seed):
        field = g.bifiltration.compute_glog(vols[sid], spec.sigma_gauss, spec.sigma_log)
        bars, alive, betti, comps = run.spot_check(g, field, float(grid.offsets[line]), quantile)
        if alive != list(betti) or alive[0] != comps:
            raise SystemExit(f"seed {seed}: spot check disagrees with the oracles; not recording")
        spot.append(bars)
    return {"samples": samples, "spot": spot}


def record_training(g, spec, seed: int) -> dict:
    work = run.OUT / f"record-{spec.name}-{seed}"
    work.mkdir(parents=True, exist_ok=True)
    run.training_inputs(spec, seed, work)
    job = run.training_job(g, work, seed)
    return {k: job[k] for k in ("epochs_run", "val_auc", "checkpoint_sha256")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seeds", required=True, help="e.g. 0-31,9001")
    args = parser.parse_args(argv)
    spec = workloads.WORKLOADS[args.workload]
    g = run.load_program()
    tracer = Tracer()
    tracer.install(g)
    path = run.REFERENCE / f"{spec.name}.json"
    data = json.loads(path.read_text()) if path.is_file() else {"seeds": {}}
    data["src_sha256"] = run.src_digest()
    data["feature_rtol"] = run.FEATURE_RTOL
    for seed in parse_seeds(args.seeds):
        if isinstance(spec, workloads.Training):
            data["seeds"][str(seed)] = record_training(g, spec, seed)
        else:
            data["seeds"][str(seed)] = record_extraction(g, tracer, spec, seed)
        run.REFERENCE.mkdir(exist_ok=True)
        path.write_text(json.dumps(data, sort_keys=True) + "\n")
        print(f"{spec.name} seed {seed} recorded", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
