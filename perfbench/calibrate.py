#!/usr/bin/env python3
"""Closed-loop saturation of every open-loop class of the benchmark.

    python3 perfbench/calibrate.py [--seed N] [--seconds S]

Run from the root of a source checkout, on the host the offered rates are
meant for. It sets up the `serve` and `stream` workloads once each, as
`run.py` does, and drives each class closed loop for `--seconds`:

* `gnn`: 8-node VGOD `/score`, two connections, `window` in flight on each;
* `light`: the same with DegNorm;
* `update`: `/graph/update` batches back to back, one in flight;
* `read`: 8-node VGOD `/score` on one connection, 64 in flight,
  beside updates offered at the workload's `update_rate` on the other.

It prints one JSON object: per class the saturation (completions per
second over the phase), the rate `run.py` offers, and that
rate as a fraction of the saturation. The rates in `SCALES` are frozen
from such a run; perfbench/README.md records it.
"""

import argparse
import json
import random

import run

# Reads in flight on the read connection, as many as the `serve` workload's
# closed loop keeps on each of its connections.
READ_WINDOW = 64


def closed_phase(name, seconds, conns, window):
    return {"name": name, "kind": "closed", "window": window, "duration_s": seconds,
            "timeout_s": run.TIMEOUT_S, "conns": conns}


def requests(bench, rng, n, count, model):
    """`count` closed-loop `/score` requests cycling over 5,000 seeded
    subsets: the fast classes need hundreds of thousands."""
    bodies = bench.subsets(rng, n, 5000, model)
    return [[0, bodies[i % len(bodies)]] for i in range(count)]


def saturation(phase, cls, rate):
    sat = (cls["attempted"] - cls["failed"]) / phase["elapsed_s"]
    return {"saturation_per_s": sat, "rate_per_s": rate, "fraction": rate / sat,
            "attempted": cls["attempted"], "failed": cls["failed"]}


def serve(bench):
    c, s = bench.cfg, bench.args.seconds
    server, addr = bench.serve_setup(reps=1)
    n = len(bench.truth())
    rng = random.Random(bench.seed)
    out = {}
    for cls, model, rate in (("gnn", "vgod", c["gnn_rate"]), ("light", "degnorm", c["light_rate"])):
        count = int(100000 * s)
        conns = [{"class": cls, "path": "/score", "requests": requests(bench, rng, n, count, model)}
                 for _ in range(2)]
        phase = bench.loadgen(addr, [closed_phase(cls, s, conns, c["window"])], record=False)[cls]
        result = phase["classes"][0]
        if result["attempted"] >= 2 * count:
            raise SystemExit(f"calibrate: {cls} ran out of requests")
        out[cls] = saturation(phase, result, rate)
    bench.stop_server(server, addr)
    return out


def stream(bench):
    c, s = bench.cfg, bench.args.seconds
    n_open = int(c["update_rate"] * s)
    total = int(100 * s) + n_open
    server, addr = bench.serve_setup(batches=total, reps=1)
    n = len(bench.truth())
    with open(bench.path("mutations.jsonl")) as f:
        batches = [line.strip() for line in f if line.strip()]
    rng = random.Random(bench.seed)
    out = {}
    updates = {"class": "update", "path": "/graph/update", "requests": [[0, b] for b in batches[:total - n_open]]}
    result = bench.loadgen(addr, [closed_phase("update", s, [updates], 1)], record=False)["update"]
    cls = result["classes"][0]
    if cls["attempted"] >= total - n_open:
        raise SystemExit("calibrate: updates ran out of batches")
    out["update"] = saturation(result, cls, c["update_rate"])
    # The log is applied in order: the open updates continue where the
    # closed phase stopped.
    rest = batches[cls["attempted"]:cls["attempted"] + n_open]
    beside = {"class": "update_beside", "path": "/graph/update", "open": True,
              "requests": [[i / c["update_rate"], b] for i, b in enumerate(rest)]}
    count = int(200000 * s)
    reads = {"class": "read", "path": "/score", "requests": requests(bench, rng, n, count, "vgod")}
    result = bench.loadgen(addr, [closed_phase("read", s, [beside, reads], READ_WINDOW)], record=False)["read"]
    by_class = {cl["class"]: cl for cl in result["classes"]}
    if by_class["read"]["attempted"] >= count:
        raise SystemExit("calibrate: reads ran out of requests")
    out["read"] = saturation(result, by_class["read"], c["read_rate"])
    out["read"]["updates_beside"] = by_class["update_beside"]["attempted"]
    bench.stop_server(server, addr)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=3.0)
    a = ap.parse_args()
    out = {}
    for workload, measure in (("serve", serve), ("stream", stream)):
        args = argparse.Namespace(workload=workload, seed=a.seed, seconds=a.seconds, trace=0, toy=False,
                                  corrupt=False)
        bench = run.Bench(args)
        try:
            bench.prepare()
            out.update(measure(bench))
        finally:
            bench.cleanup()
    print(json.dumps(out, sort_keys=True))


if __name__ == "__main__":
    main()
