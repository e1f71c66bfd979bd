"""Where the benchmark's first full garbage collection fires among its set-ups.

    python3 tools/setup_gc_probe.py --workload estimate --seeds 1 5 9 17
    python3 tools/setup_gc_probe.py --workload estimate far-reject --seeds 1 5
    python3 tools/setup_gc_probe.py --checkout ../other-tree --seeds 1 5

`perfbench/run.py` times each of its three set-ups and reports their median
as `setup_s`. The process's first full (generation-2) collection takes
15-20 ms, so the set-up it lands in decides how `setup_s` reads. For each
seed this script starts one fresh Python process, imports the checkout's
`perfbench/run.py` as a module, wraps `run.setup_inputs` and adds a
`gc.callbacks` hook, then calls `run.main` for the workload. Once the last
set-up is done it stops the run, so no round is measured. It prints, per
set-up, the wall time, the collections of each generation, and whether the
first full collection fired there. For that set-up it also prints which of
its collections the full one was. Every automatic collection starts when
generation 0 fills, so the collections that follow the full one in its
set-up are the margin: a change that allocates about that many
generation-0 thresholds (700 container allocations each) fewer before it
moves the full collection into the next set-up. When no full collection
fires during set-up, it prints the margin the other way: the generation-1
collections counted since the last full one (`gc.get_count()[2]`) against
its threshold (`gc.get_threshold()[2]`, 10 by default). A full collection
can start once that count passes the threshold, and each generation-1
collection takes eleven generation-0 ones, so at 8 of 10 about 3 x 11 x 700
more container allocations bring it back into set-up. It changes no file of
the checkout; `run.main` makes and removes its work directory under
`perfbench/out/`.

What the probe imports shifts the collection counts by a little, so compare
only runs of this script with each other.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class _SetupsDone(Exception):
    pass


def probe(checkout, workload, seed):
    """run.main's set-ups in this process: a record of ms and collections per
    set-up, the index of the set-up that ran the first full collection (-1
    before set-up 1, None if none ran before the last one ended), which of
    that set-up's collections it was, counted from 1, and the collector's
    generation-2 count and threshold once the last set-up ended."""
    spec = importlib.util.spec_from_file_location("run", checkout / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    records = []
    current = None
    first_full = []
    margin = []

    def on_gc(phase, info):
        if phase != "start":
            return
        if current is not None:
            current["collections"][info["generation"]] += 1
        if info["generation"] == 2 and not first_full:
            if current is None:
                first_full.append((-1, None))
            else:
                first_full.append((len(records), sum(current["collections"])))

    def timed_setup(*args):
        nonlocal current
        current = {"collections": [0, 0, 0]}
        t0 = time.perf_counter()
        run_s = setup_inputs(*args)
        current["ms"] = (time.perf_counter() - t0) * 1e3
        records.append(current)
        current = None
        if len(records) == run.SETUP_REPEATS:
            margin.extend((gc.get_count()[2], gc.get_threshold()[2]))
            raise _SetupsDone
        return run_s

    setup_inputs = run.setup_inputs
    run.setup_inputs = timed_setup
    gc.callbacks.append(on_gc)
    try:
        run.main(["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "0"])
    except _SetupsDone:
        pass
    finally:
        gc.callbacks.remove(on_gc)
    where, at = first_full[0] if first_full else (None, None)
    return {"setups": records, "first_full": where, "first_full_at": at, "gen1_since_full": margin}


def report(checkout, workload, seed):
    """Run the probe for one seed in a fresh process and print its lines."""
    # One process per seed: the collector's state is the whole process's.
    out = subprocess.run(
        [sys.executable, __file__, "--child", "--workload", workload,
         "--seeds", str(seed), "--checkout", str(checkout)],
        check=True, capture_output=True, text=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    first_full = result["first_full"]
    if first_full == -1:
        print(f"{workload} seed {seed}: first full collection before set-up 1")
    for i, rec in enumerate(result["setups"]):
        gen0, gen1, gen2 = rec["collections"]
        where = ""
        if first_full == i:
            at, total = result["first_full_at"], gen0 + gen1 + gen2
            where = f"  <- first full collection: its collection {at} of {total}, {total - at} after it"
        print(f"{workload} seed {seed} set-up {i + 1}: {rec['ms']:6.1f} ms, "
              f"collections gen0 {gen0} gen1 {gen1} gen2 {gen2}{where}")
    if first_full is None:
        count, threshold = result["gen1_since_full"]
        print(f"{workload} seed {seed}: no full collection during set-up; "
              f"{count} of {threshold} generation-1 collections since the last full one")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", nargs="+", default=["estimate"])
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 5, 9, 17])
    p.add_argument("--checkout", type=Path, default=ROOT, help="source tree whose perfbench/run.py runs")
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    checkout = args.checkout.resolve()
    if args.child:
        print(json.dumps(probe(checkout, args.workload[0], args.seeds[0])))
        return 0
    for workload in args.workload:
        for seed in args.seeds:
            report(checkout, workload, seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
