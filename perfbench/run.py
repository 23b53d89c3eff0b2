#!/usr/bin/env python3
"""The vgod-rs benchmark: one command for every workload.

    python3 perfbench/run.py --workload detect|serve|stream|detect-ooc \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run builds the `vgod`
binary and the benchmark harness (`perfbench/harness`) from source into
`$CARGO_TARGET_DIR` (default `.bench_build`). Every input is generated
from `--seed` with the `vgod` CLI; the program under test receives only
those inputs. Scratch files live under `.bench_work/` and are removed at
exit; each run leaves its full record (environment, per-phase counts,
generator lateness, gates, metrics) under `.bench_results/`, and a traced
run also leaves its span file there.

With `--trace 0` the last stdout line is the JSON result with every
end-to-end metric of BENCHMARK.json; with `--trace 1` it carries every
per-layer metric instead, from spans the harness records around calls into
the workspace crates (see perfbench/README.md). The exit code is 0 only
when every correctness gate held.
"""

import argparse
import hashlib
import http.client
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("detect", "serve", "stream", "detect-ooc")

# Workload sizes and offered load, frozen so every commit sees the same
# schedule. The open-loop rates are fractions of each class's closed-loop
# saturation, measured by perfbench/calibrate.py on a 2-CPU host (see
# README.md): `gnn` 1/4 to 1/3 of 1,600-2,000/s, `update` 1/3 of 30/s,
# `light` 1/35 of ~82,000/s and `read` 1/50 of ~150,000/s. `toy` is the
# self-test scale (perfbench/selftest.py).
SCALES = {
    "full": {
        "detect": {"dataset": "pubmed", "scale": "medium", "inject": [], "epochs": 50},
        "serve": {
            "dataset": "pubmed", "scale": "medium", "inject": [], "ckpt_epochs": 5,
            "gnn_rate": 500.0, "light_rate": 2400.0, "window": 64, "max_batch": 32,
        },
        "stream": {
            "dataset": "pubmed", "scale": "medium", "inject": [], "ckpt_epochs": 5,
            "update_rate": 10.0, "read_rate": 2900.0, "closed_batches": 400, "ops": 4,
            "compact": 32 << 10,
        },
        "detect-ooc": {"nodes": 200000, "budget": 24 << 20, "big_budget": 256 << 20, "threshold": 20000},
    },
    "toy": {
        "detect": {"dataset": "cora", "scale": "tiny", "inject": ["--p", "2", "--q", "8", "--k", "20"], "epochs": 2},
        "serve": {
            "dataset": "cora", "scale": "tiny", "inject": ["--p", "2", "--q", "8", "--k", "20"], "ckpt_epochs": 2,
            "gnn_rate": 100.0, "light_rate": 100.0, "window": 4, "max_batch": 32,
        },
        "stream": {
            "dataset": "cora", "scale": "tiny", "inject": ["--p", "2", "--q", "8", "--k", "20"], "ckpt_epochs": 2,
            "update_rate": 20.0, "read_rate": 100.0, "closed_batches": 10, "ops": 4,
            "compact": 4 << 10,
        },
        "detect-ooc": {"nodes": 3000, "budget": 1 << 20, "big_budget": 64 << 20, "threshold": 500},
    },
}
# Servers run one tensor thread: each of the two scoring replicas (or the
# streaming worker) then owns one core instead of every pass spreading over
# both, which left the front and the light class waiting for a CPU.
SERVER_ENV = dict(os.environ, VGOD_NUM_THREADS="1")
SETUP_REPS = 5
REQUEST_NODES = 8
TIMEOUT_S = 5.0

# For every per-layer metric: the workloads whose time it attributes, each
# with the end-to-end metrics a change in that layer should move there. On
# any workload not named it should have about no effect. A traced run
# prints these tags and writes them into its record and span file.
DETECT = ("p50_ms", "light_p50_ms")
LAYER_MOVES = {
    "tensor.matmul_us": {"detect": DETECT, "serve": ("p50_ms", "ops_per_s")},
    "tensor.matmul_tn_us": {"detect": ("p50_ms",)},
    "tensor.matmul_nt_us": {"detect": ("p50_ms",)},
    "tensor.spmm_us": {"detect": DETECT, "stream": ("p50_ms",)},
    "tensor.spmm_t_us": {"detect": ("p50_ms",)},
    "tensor.map_tanh_us": {"detect": ("p50_ms",)},
    "tensor.fused_adam_us": {"detect": ("p50_ms",)},
    "tensor.arena_reuse_ratio": {"detect": ("p50_ms", "peak_rss_mb"), "detect-ooc": ("p50_ms", "peak_rss_mb")},
    "graph.load_ms": {"detect": DETECT, "serve": ("setup_s",), "stream": ("setup_s",)},
    "graph.store_open_ms": {"detect-ooc": ("p50_ms", "light_p50_ms")},
    "graph.cache_hit_ratio": {"detect-ooc": ("p50_ms", "light_p50_ms")},
    "graph.read_amplification": {"detect-ooc": ("p50_ms", "light_p50_ms")},
    "graph.evictions": {"detect-ooc": ("p50_ms", "light_p50_ms")},
    "graph.sample_ms": {"detect-ooc": ("p50_ms", "light_p50_ms")},
    "graph.apply_batch_us": {"stream": ("p50_ms", "ops_per_s")},
    "graph.compact_ms": {"stream": ("tail_ms",)},
    "gnn.context_build_ms": {"detect": DETECT, "serve": ("setup_s",)},
    "gnn.gat_forward_ms": {"detect": ("p50_ms",), "serve": ("p50_ms", "tail_ms", "ops_per_s"),
                           "stream": ("p50_ms", "tail_ms", "ops_per_s")},
    "autograd.backward_ms": {"detect": ("p50_ms",)},
    "nn.adam_step_ms": {"detect": ("p50_ms",)},
    "core.vbm_fit_ms": {"detect": ("p50_ms",)},
    "core.vbm_epoch_ms": {"detect": ("p50_ms",)},
    "core.arm_fit_ms": {"detect": ("p50_ms",)},
    "core.arm_epoch_ms": {"detect": ("p50_ms",)},
    "core.vbm_score_ms": {"detect": DETECT, "serve": ("p50_ms", "tail_ms", "ops_per_s")},
    "core.arm_score_ms": {"detect": DETECT, "serve": ("p50_ms", "tail_ms", "ops_per_s")},
    "core.combine_ms": {"detect": DETECT, "serve": ("p50_ms", "tail_ms", "ops_per_s")},
    "core.minibatch_fit_ms": {"detect-ooc": ("p50_ms", "peak_rss_mb")},
    "eval.score_pass_ms": {"serve": ("p50_ms", "tail_ms", "ops_per_s")},
    "eval.light_pass_ms": {"serve": ("light_p50_ms",)},
    "eval.frontier_nodes": {"stream": ("p50_ms", "ops_per_s")},
    "eval.delta_gnn_ms": {"stream": ("p50_ms", "tail_ms", "ops_per_s")},
    "eval.delta_light_ms": {"stream": ("p50_ms", "tail_ms", "ops_per_s")},
    "eval.rescored_per_op": {"stream": ("p50_ms", "ops_per_s")},
    "eval.score_store_ms": {"detect-ooc": DETECT},
    "serve.parse_ns": {"serve": ("light_p50_ms",), "stream": ("light_p50_ms",)},
    "serve.json_ns": {"serve": ("light_p50_ms",), "stream": ("light_p50_ms",)},
    "serve.render_ns": {"serve": ("light_p50_ms",), "stream": ("light_p50_ms",)},
    "serve.requests_per_pass": {"serve": ("ops_per_s",)},
    "serve.engine_p99_us": {"serve": ("tail_ms",)},
    "serve.rejected": {"serve": ("p50_ms", "tail_ms", "light_p50_ms"), "stream": ("p50_ms", "tail_ms", "light_p50_ms")},
    "serve.compactions": {"stream": ("tail_ms",)},
    "serve.staleness_us": {"stream": ("p50_ms", "tail_ms")},
    "trace.overhead_ratio": {},
}


def punctual():
    """Give the load generator real-time priority where permitted (else a
    raised nice level), so it sends on time instead of queueing behind the
    server's threads. It sleeps in `ppoll` between sends, so it never holds
    a CPU for long; its lateness is still measured and reported."""
    try:
        os.sched_setscheduler(0, os.SCHED_FIFO, os.sched_param(10))
    except OSError:
        try:
            os.setpriority(os.PRIO_PROCESS, 0, -10)
        except OSError:
            pass


def cpu_steal_jiffies():
    with open("/proc/stat") as f:
        fields = f.readline().split()[1:]
    return int(fields[7]), sum(int(x) for x in fields)


class GateFailure(Exception):
    pass


class Bench:
    def __init__(self, args):
        self.args = args
        self.seed = args.seed
        self.cfg = SCALES["toy" if args.toy else "full"][args.workload]
        self.children = []
        self.attempted = 0
        self.failed = 0
        self.gates = {}
        self.record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "phases": {}}
        self.metrics = {}
        self.layer_metrics = {}
        tag = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
        self.work = os.path.join(ROOT, ".bench_work", tag)

    # ---------------------------------------------------------------- utils

    def path(self, name):
        return os.path.join(self.work, name)

    def gate(self, name, ok, detail=""):
        self.gates[name] = {"ok": bool(ok), "detail": detail}
        if not ok:
            print(f"GATE FAILED {name}: {detail}", file=sys.stderr)

    def vgod(self, *argv, timeout=300.0):
        """Run `vgod` to completion; return (wall seconds, peak RSS MB)."""
        argv = [self.bin_vgod, *map(str, argv)]
        with open(self.path("stderr.txt"), "w+") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, stdout=subprocess.DEVNULL, stderr=err)
            self.children.append(proc)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.children.remove(proc)
            if proc.returncode != 0:
                err.seek(0)
                raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {err.read().strip()[-2000:]}")
        return wall, usage.ru_maxrss / 1024.0

    def harness(self, *argv, timeout=300.0, env=None):
        out = subprocess.run(
            [self.bin_harness, *map(str, argv)], cwd=self.work, capture_output=True, text=True, timeout=timeout,
            env=env, preexec_fn=punctual if argv[0] == "loadgen" else None,
        )
        if out.returncode != 0:
            raise RuntimeError(f"harness {argv[0]} failed: {out.stderr.strip()[-2000:]}")
        return out.stdout

    # ---------------------------------------------------------------- build

    def build(self):
        if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
            raise SystemExit("perfbench: no Cargo.toml at the checkout root; nothing to build")
        target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        target = target if os.path.isabs(target) else os.path.join(ROOT, target)
        env = dict(os.environ, CARGO_TARGET_DIR=target)
        for argv in (
            ["cargo", "build", "--release", "--offline", "-q", "-p", "vgod-cli"],
            ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
             os.path.join(HERE, "harness", "Cargo.toml")],
        ):
            done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=1200)
            if done.returncode != 0:
                raise SystemExit(f"perfbench: build failed: {' '.join(argv)}\n{done.stderr[-4000:]}")
        self.bin_vgod = os.path.join(target, "release", "vgod")
        self.bin_harness = os.path.join(target, "release", "perfbench-harness")

    def environment(self):
        env = json.loads(self.harness("env"))
        if self.args.workload in ("serve", "stream"):
            # Set-up jobs use the default pool; the server under test does not.
            env["server_tensor_threads"] = json.loads(self.harness("env", env=SERVER_ENV))["tensor_threads"]
        rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        digest = hashlib.sha256()
        for base in ("crates", "perfbench"):
            for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, base))):
                dirnames.sort()
                for name in sorted(filenames):
                    if name.endswith((".rs", ".toml", ".py")):
                        with open(os.path.join(dirpath, name), "rb") as f:
                            digest.update(name.encode() + f.read())
        env.update(
            host_cpus=len(os.sched_getaffinity(0)),
            vgod_simd_env=os.environ.get("VGOD_SIMD", ""),
            rustc=rustc,
            git_commit=git.stdout.strip() if git.returncode == 0 else "unavailable",
            source_sha256=digest.hexdigest(),
            seed=self.seed,
        )
        self.record["env"] = env
        return env

    # ---------------------------------------------------------------- inputs

    def make_graph(self):
        c = self.cfg
        self.vgod("generate", "--dataset", c["dataset"], "--scale", c["scale"], "--seed", self.seed, "--out", "base.tsv")
        self.vgod("inject", "--in", "base.tsv", "--out", "graph.tsv", "--truth", "truth.tsv",
                  "--seed", self.seed + 1, "--mode", "standard", *c["inject"])

    def start_server(self, *extra):
        addr_file = self.path("addr.txt")
        if os.path.exists(addr_file):
            os.remove(addr_file)
        proc = subprocess.Popen(
            [self.bin_vgod, "serve", "--models", "models", "--in", "graph.tsv", "--port", "0",
             "--addr-file", "addr.txt", *map(str, extra)],
            cwd=self.work, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=SERVER_ENV,
        )
        self.children.append(proc)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                raise RuntimeError(f"vgod serve exited {proc.returncode} during startup")
            try:
                with open(addr_file) as f:
                    addr = f.read().strip()
                if addr and self.http(addr, "GET", "/healthz")[0] == 200:
                    return proc, addr
            except (OSError, ValueError):
                pass
            time.sleep(0.005)
        raise RuntimeError("vgod serve did not come up within 60 s")

    def stop_server(self, proc, addr):
        """Shut the server down; return its peak RSS in MB."""
        self.http(addr, "POST", "/shutdown")
        killer = threading.Timer(30.0, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.children.remove(proc)
        return usage.ru_maxrss / 1024.0

    @staticmethod
    def http(addr, method, path, body=None):
        host, port = addr.rsplit(":", 1)
        conn = http.client.HTTPConnection(host, int(port), timeout=30)
        try:
            conn.request(method, path, body=body)
            resp = conn.getresponse()
            return resp.status, resp.read().decode()
        finally:
            conn.close()

    # ---------------------------------------------------------------- checks

    @staticmethod
    def tokens(path):
        with open(path) as f:
            return [line.split()[1] for line in f if line.strip()]

    @staticmethod
    def digest(path):
        with open(path, "rb") as f:
            return hashlib.sha256(f.read()).hexdigest()

    def truth(self):
        with open(self.path("truth.tsv")) as f:
            return [line.split()[1] != "normal" for line in f if line.strip()]

    @staticmethod
    def auc(scores, labels):
        """Mann-Whitney AUC with tied scores sharing their average rank."""
        pairs = sorted(zip(scores, labels))
        rank_sum, pos, i = 0.0, 0, 0
        while i < len(pairs):
            j = i
            while j < len(pairs) and pairs[j][0] == pairs[i][0]:
                j += 1
            avg = (i + j + 1) / 2.0
            for k in range(i, j):
                if pairs[k][1]:
                    rank_sum += avg
                    pos += 1
            i = j
        neg = len(pairs) - pos
        return (rank_sum - pos * (pos + 1) / 2.0) / (pos * neg)

    def corrupt(self, path):
        """Self-test hook: perturb the first score of a gate's reference."""
        with open(path) as f:
            lines = f.readlines()
        node, score = lines[0].split()
        lines[0] = f"{node} {float(score) + 1.0}\n"
        with open(path, "w") as f:
            f.writelines(lines)

    # ---------------------------------------------------------------- stats

    @staticmethod
    def percentile(values, p):
        v = sorted(values)
        return v[min(len(v) - 1, int(round(p / 100.0 * (len(v) - 1))))]

    @classmethod
    def tail(cls, values):
        """p95 (p90 below 200 samples, the maximum below 100), so at least
        ten samples lie beyond it. From 2000 samples on it is taken per
        window of at least 1000 consecutive requests and reported as the
        median across windows, so one stalled stretch moves one window."""
        for p, need in ((95, 200), (90, 100)):
            if len(values) >= need:
                k = len(values) // 1000 if len(values) >= 2000 else 1
                size = len(values) // k
                windows = [cls.percentile(values[i * size:(i + 1) * size], p) for i in range(k)]
                return statistics.median(windows), f"p{p}, median of {k} window(s)"
        return max(values), "max"

    def latency_class(self, cls, label):
        lat = cls["latency_ms"]
        tail, which = self.tail(lat)
        self.attempted += cls["attempted"]
        self.failed += cls["failed"]
        summary = {
            "samples": len(lat), "p50_ms": statistics.median(lat), "tail_ms": tail, "tail": which,
            "attempted": cls["attempted"], "succeeded": cls["attempted"] - cls["failed"],
            "failed": cls["failed"], "failures": cls["failures"],
            "percentiles_ms": {f"p{p}": self.percentile(lat, p) for p in (50, 90, 95, 99, 99.9)},
        }
        if cls["late_ms"]:
            late = cls["late_ms"]
            summary["late_ms"] = {"p50": statistics.median(late), "p99": self.percentile(late, 99), "max": max(late)}
        self.record["phases"][label] = summary
        return summary

    def loadgen(self, addr, phases, expect=None, record=True):
        plan = {"addr": addr, "phases": phases}
        if expect:
            plan["expect"] = expect
        if record:
            plan["record"] = self.path("record.json")
        with open(self.path("plan.json"), "w") as f:
            json.dump(plan, f)
        self.harness("loadgen", "--plan", self.path("plan.json"), "--out", self.path("loadgen.json"), timeout=600)
        with open(self.path("loadgen.json")) as f:
            result = json.load(f)
        cpus = self.record["env"]["host_cpus"]
        self.record["loadgen"] = {"threads": result["threads"], "connections": result["connections"]}
        if result["threads"] > cpus or result["connections"] > cpus:
            raise SystemExit(
                f"perfbench: load generator used {result['threads']} thread(s) and "
                f"{result['connections']} connection(s) on {cpus} CPU(s); run rejected"
            )
        return {p["name"]: p for p in result["phases"]}

    def poll_metrics(self, addr, pick, every=0.2):
        """Sample `pick(/metrics)` every `every` seconds on a side thread
        while the load runs; the returned function stops the thread and
        gives the samples."""
        samples, stop = [], threading.Event()

        def loop():
            while not stop.wait(every):
                try:
                    samples.append(pick(json.loads(self.http(addr, "GET", "/metrics")[1])))
                except (OSError, ValueError, KeyError):
                    pass

        thread = threading.Thread(target=loop, daemon=True)
        thread.start()

        def finish():
            stop.set()
            thread.join()
            return samples
        return finish

    def subsets(self, rng, n, count, model):
        return [json.dumps({"model": model, "nodes": rng.sample(range(n), REQUEST_NODES)}, separators=(",", ":"))
                for _ in range(count)]

    # ---------------------------------------------------------------- detect

    def detect(self):
        c = self.cfg
        setups = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            self.make_graph()
            setups.append(time.perf_counter() - t0)
        job = ["detect", "--in", "graph.tsv", "--model", "vgod", "--epochs", c["epochs"], "--seed", self.seed,
               "--save-model", "vgod.ckpt"]
        self.offline_jobs(setups, job, ["detect", "--in", "graph.tsv", "--load-model", "vgod.ckpt"])
        self.harness("layers", "--workload", "detect", "--work", self.work, "--seed", self.seed,
                     "--epochs", c["epochs"], *self.trace_args(), timeout=600)
        self.offline_inproc_gate()

    def detect_ooc(self):
        c = self.cfg
        setups = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            self.vgod("store", "--synth-nodes", c["nodes"], "--seed", self.seed, "--truth", "truth.tsv",
                      "--out", "graph.vgodstore")
            setups.append(time.perf_counter() - t0)
        ooc = ["--in", "graph.vgodstore", "--out-of-core", "--threshold", c["threshold"]]
        job = ["detect", *ooc, "--model", "vbm", "--seed", self.seed, "--mem-budget", c["budget"],
               "--save-model", "vbm.ckpt"]
        self.offline_jobs(setups, job, ["detect", *ooc, "--load-model", "vbm.ckpt", "--mem-budget", c["budget"]])
        # The cache budget must not change a single score byte.
        self.vgod("detect", *ooc, "--load-model", "vbm.ckpt", "--mem-budget", c["big_budget"],
                  "--scores", "scores_big_budget.tsv")
        if self.args.corrupt:
            self.corrupt(self.path("scores_big_budget.tsv"))
        self.gate("scores_independent_of_budget",
                  self.digest(self.path("scores_big_budget.tsv")) == self.digest(self.path("main_0.tsv")),
                  f"{c['budget']} vs {c['big_budget']} bytes")
        if self.args.trace:
            self.harness("layers", "--workload", "detect-ooc", "--work", self.work, "--seed", self.seed,
                         "--budget", c["budget"], "--threshold", c["threshold"], *self.trace_args(), timeout=600)
            self.offline_inproc_gate()

    def offline_jobs(self, setups, job, light_job):
        """Closed loop of `vgod detect` jobs for the run's seconds: each
        fit+score (main) job, at least two, is followed by two score-only
        (light) jobs, so both kinds are sampled across the whole run."""
        main, rss, light = [], [], []
        t0 = time.perf_counter()
        while len(main) < 2 or time.perf_counter() - t0 + statistics.median(main) <= self.args.seconds * 0.8:
            wall, peak = self.vgod(*job, "--scores", f"main_{len(main)}.tsv")
            main.append(wall)
            rss.append(peak)
            for _ in range(2):
                wall, _ = self.vgod(*light_job, "--scores", f"light_{len(light)}.tsv")
                light.append(wall)
        self.attempted += len(main) + len(light)
        hashes = {self.digest(self.path(f"main_{i}.tsv")) for i in range(len(main))}
        self.gate("scores_repeat_run_to_run", len(hashes) == 1, f"{len(main)} fit+score jobs")
        light_hashes = {self.digest(self.path(f"light_{i}.tsv")) for i in range(len(light))}
        self.gate("checkpoint_scores_identical", light_hashes == hashes, "score-only jobs vs fit+score jobs")
        scores = [float(t) for t in self.tokens(self.path("main_0.tsv"))]
        labels = self.truth()
        ms = [w * 1e3 for w in main]
        lms = [w * 1e3 for w in light]
        self.record["phases"]["main_jobs"] = {"samples": len(ms), "wall_ms": ms}
        self.record["phases"]["light_jobs"] = {"samples": len(lms), "wall_ms": lms}
        self.metrics.update(
            setup_s=statistics.median(setups), p50_ms=statistics.median(ms), tail_ms=max(ms),
            light_p50_ms=statistics.median(lms), light_tail_ms=max(lms), ops_per_s=len(main) / sum(main),
            peak_rss_mb=statistics.median(rss), auc=self.auc(scores, labels),
        )

    def offline_inproc_gate(self):
        """The harness fit and scored the same configuration in process; its
        scores must match the binary's byte for byte, and so its AUC."""
        inproc = self.path("inproc_scores.tsv")
        if self.args.corrupt:
            self.corrupt(inproc)
        same = self.digest(inproc) == self.digest(self.path("main_0.tsv"))
        auc_inproc = self.auc([float(t) for t in self.tokens(inproc)], self.truth())
        self.gate("in_process_fit_matches", same and auc_inproc == self.metrics["auc"],
                  f"in-process AUC {auc_inproc:.6f} vs {self.metrics['auc']:.6f}")

    def trace_args(self):
        if not self.args.trace:
            return ["--trace", "0"]
        return ["--trace", "1", "--spans", self.spans_path]

    # ---------------------------------------------------------------- serve

    def serve_setup(self, batches=0, reps=SETUP_REPS):
        """Set up `reps` times: inputs, both checkpoints, a mutation log of
        `batches` batches when streaming, and a healthy server. Keeps the
        last server."""
        c = self.cfg
        setups = []
        for rep in range(reps):
            t0 = time.perf_counter()
            self.make_graph()
            os.makedirs(self.path("models"), exist_ok=True)
            self.vgod("detect", "--in", "graph.tsv", "--model", "vgod", "--epochs", c["ckpt_epochs"],
                      "--seed", self.seed, "--scores", "train.tsv", "--save-model", "models/vgod.ckpt")
            self.vgod("detect", "--in", "graph.tsv", "--model", "degnorm", "--scores", "train.tsv",
                      "--save-model", "models/degnorm.ckpt")
            if batches:
                self.vgod("stream-gen", "--in", "graph.tsv", "--out", "mutations.jsonl", "--final", "final.tsv",
                          "--batches", batches, "--ops", c["ops"], "--seed", self.seed + 2)
                server = self.start_server("--streaming", "--compact-bytes", c["compact"])
            else:
                server = self.start_server("--max-batch", c["max_batch"])
            setups.append(time.perf_counter() - t0)
            if rep + 1 < reps:
                self.stop_server(*server)
        self.metrics["setup_s"] = statistics.median(setups)
        return server

    def served_vector(self, addr, model):
        status, body = self.http(addr, "POST", "/score", json.dumps({"model": model}))
        if status != 200:
            raise GateFailure(f"/score {model} answered {status}")
        return json.loads(body, parse_float=str, parse_int=str)["scores"]

    def server_gate(self, addr, graph, truth_len):
        """Full served vectors must equal offline `detect --load-model` on
        `graph`, byte for byte; returns the gnn model's AUC."""
        auc = None
        for model in ("vgod", "degnorm"):
            ref = self.path(f"offline_{model}.tsv")
            if not os.path.exists(ref):
                self.vgod("detect", "--in", graph, "--load-model", f"models/{model}.ckpt", "--scores", ref)
            if self.args.corrupt:
                self.corrupt(ref)
            served = self.served_vector(addr, model)
            self.gate(f"served_{model}_equals_offline", served == self.tokens(ref),
                      f"{len(served)} served scores vs offline on {graph}")
            if model == "vgod":
                labels = self.truth()[:truth_len]
                auc = self.auc([float(s) for s in served[:truth_len]], labels)
        return auc

    def serve(self):
        c = self.cfg
        seconds = self.args.seconds
        # The closed loop is long because the host's speed flipped for a
        # second or more at a time; its mean rate averages over the flips.
        open_s, closed_s = 0.6 * seconds, 0.8 * seconds
        server, addr = self.serve_setup()
        n = len(self.truth())
        # Reference rows for every reply, computed before load starts.
        for model in ("vgod", "degnorm"):
            self.vgod("detect", "--in", "graph.tsv", "--load-model", f"models/{model}.ckpt",
                      "--scores", f"offline_{model}.tsv")
        rng = random.Random(self.seed)

        def open_conn(cls, model, rate, offset):
            count = int(rate * open_s)
            bodies = self.subsets(rng, n, count, model)
            return {"class": cls, "path": "/score",
                    "requests": [[offset + i / rate, b] for i, b in enumerate(bodies)]}

        def closed_conn(cls, model, count):
            return {"class": cls, "path": "/score", "requests": [[0, b] for b in self.subsets(rng, n, count, model)]}

        warm = {"name": "warmup", "kind": "closed", "window": 2, "duration_s": 0.3, "timeout_s": TIMEOUT_S,
                "conns": [closed_conn("warm", "vgod", 200), closed_conn("warm", "degnorm", 200)]}
        open_phase = {"name": "open", "kind": "open", "timeout_s": TIMEOUT_S, "conns": [
            open_conn("gnn", "vgod", c["gnn_rate"], 0.0),
            open_conn("light", "degnorm", c["light_rate"], 0.5 / c["light_rate"]),
        ]}
        sat_count = 20000
        closed = {"name": "closed", "kind": "closed", "window": c["window"], "duration_s": closed_s,
                  "timeout_s": TIMEOUT_S, "conns": [closed_conn("saturation", "vgod", sat_count),
                                                    closed_conn("saturation", "vgod", sat_count)]}
        expect = {m: self.path(f"offline_{m}.tsv") for m in ("vgod", "degnorm")}
        phases = self.loadgen(addr, [warm, open_phase], expect=expect)
        before = json.loads(self.http(addr, "GET", "/metrics")[1])
        phases.update(self.loadgen(addr, [closed], expect=expect, record=False))
        after = json.loads(self.http(addr, "GET", "/metrics")[1])
        auc = self.server_gate(addr, "graph.tsv", n)
        rss = self.stop_server(server, addr)
        classes = {cl["class"]: cl for p in ("open", "closed") for cl in phases[p]["classes"]}
        gnn = self.latency_class(classes["gnn"], "gnn")
        light = self.latency_class(classes["light"], "light")
        sat = self.latency_class(classes["saturation"], "saturation")
        self.gate("no_mismatched_rows", all(
            "mismatch" not in s["failures"] for s in (gnn, light, sat)), "every 200 reply vs offline rows")
        batches = max(1, after["batches"] - before["batches"])
        self.layer_metrics.update({
            "serve.requests_per_pass": (after["requests"] - before["requests"]) / batches,
            "serve.engine_p99_us": after["latency_us"]["p99"],
            "serve.rejected": after["rejected"],
        })
        self.metrics.update(
            p50_ms=gnn["p50_ms"], tail_ms=gnn["tail_ms"], light_p50_ms=light["p50_ms"],
            light_tail_ms=light["tail_ms"], ops_per_s=sat["succeeded"] / phases["closed"]["elapsed_s"],
            peak_rss_mb=rss, auc=auc,
        )
        if self.args.trace:
            self.harness("layers", "--workload", "serve", "--work", self.work, "--seed", self.seed,
                         *self.trace_args(), timeout=600, env=SERVER_ENV)

    # ---------------------------------------------------------------- stream

    def stream(self):
        c = self.cfg
        open_s = self.args.seconds
        n_open = int(c["update_rate"] * open_s)
        server, addr = self.serve_setup(batches=n_open + c["closed_batches"])
        n = len(self.truth())
        with open(self.path("mutations.jsonl")) as f:
            batches = [line.strip() for line in f if line.strip()]
        rng = random.Random(self.seed)
        reads = self.subsets(rng, n, int(c["read_rate"] * open_s), "vgod")
        open_phase = {"name": "open", "kind": "open", "timeout_s": TIMEOUT_S, "conns": [
            {"class": "update", "path": "/graph/update",
             "requests": [[i / c["update_rate"], b] for i, b in enumerate(batches[:n_open])]},
            {"class": "read", "path": "/score",
             "requests": [[0.5 / c["read_rate"] + i / c["read_rate"], b] for i, b in enumerate(reads)]},
        ]}
        closed = {"name": "closed", "kind": "closed", "window": 1, "duration_s": 120.0, "timeout_s": TIMEOUT_S,
                  "conns": [{"class": "update_closed", "path": "/graph/update",
                             "requests": [[0, b] for b in batches[n_open:]]}]}
        # Snapshot staleness is sampled under load, and only when traced, so
        # the poll never touches the untraced figures.
        staleness = self.poll_metrics(addr, lambda m: m["stream"]["staleness_us"]) if self.args.trace else None
        try:
            phases = self.loadgen(addr, [open_phase])
        finally:
            samples = staleness() if staleness else None
        if samples is not None:
            self.record["staleness_us"] = {"samples": len(samples), "values": samples}
            self.layer_metrics["serve.staleness_us"] = statistics.median(samples) if samples else 0.0
        phases.update(self.loadgen(addr, [closed], record=False))
        after = json.loads(self.http(addr, "GET", "/metrics")[1])
        self.gate("every_batch_applied", after["stream"]["updates"]["batches"] == len(batches),
                  f"{after['stream']['updates']['batches']} of {len(batches)} batches")
        auc = self.server_gate(addr, "final.tsv", n)
        rss = self.stop_server(server, addr)
        classes = {cl["class"]: cl for p in ("open", "closed") for cl in phases[p]["classes"]}
        upd = self.latency_class(classes["update"], "update")
        read = self.latency_class(classes["read"], "read")
        sat = self.latency_class(classes["update_closed"], "update_closed")
        self.layer_metrics.update({
            "serve.compactions": after["stream"]["overlay"]["compactions"],
            "serve.rejected": after["stream"]["updates"]["rejected"] + after["rejected"],
        })
        self.metrics.update(
            p50_ms=upd["p50_ms"], tail_ms=upd["tail_ms"], light_p50_ms=read["p50_ms"],
            light_tail_ms=read["tail_ms"], ops_per_s=sat["succeeded"] / phases["closed"]["elapsed_s"],
            peak_rss_mb=rss, auc=auc,
        )
        if self.args.trace:
            self.harness("layers", "--workload", "stream", "--work", self.work, "--seed", self.seed,
                         "--compact-bytes", c["compact"], *self.trace_args(), timeout=600, env=SERVER_ENV)

    # ---------------------------------------------------------------- main

    def layers_from_spans(self):
        """Take the harness's metrics from its span file, and write the
        tags of every per-layer metric into the file's summary."""
        with open(self.spans_path) as f:
            spans = json.load(f)
        summary = spans["summary"]
        self.layer_metrics = {**summary["metrics"], **self.layer_metrics}
        summary["metrics"] = self.layer_metrics
        summary["moves"] = LAYER_MOVES
        with open(self.spans_path, "w") as f:
            json.dump(spans, f)
        self.record["trace"] = {"spans_file": os.path.relpath(self.spans_path, ROOT),
                                "untraced_s": summary["untraced_s"], "traced_s": summary["traced_s"]}

    def prepare(self):
        """Build, make the scratch directory and stamp the environment."""
        self.build()
        os.makedirs(self.work)
        env = self.environment()
        print(f"env: {json.dumps(env, sort_keys=True)}")

    def execute(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        results = os.path.join(ROOT, ".bench_results")
        stem = f"{self.args.workload}-seed{self.seed}-trace{self.args.trace}"
        self.spans_path = os.path.join(results, f"spans-{stem}.json")
        self.prepare()
        os.makedirs(results, exist_ok=True)
        steal0, total0 = cpu_steal_jiffies()
        {"detect": self.detect, "serve": self.serve, "stream": self.stream,
         "detect-ooc": self.detect_ooc}[self.args.workload]()
        steal1, total1 = cpu_steal_jiffies()
        self.record["cpu_steal_pct"] = 100.0 * (steal1 - steal0) / max(1, total1 - total0)
        if self.args.trace:
            self.layers_from_spans()
            wanted = spec["per_layer"]
            values = self.layer_metrics
        else:
            wanted = spec["end_to_end"]
            values = self.metrics
        metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in wanted}
        correct = bool(self.gates) and all(g["ok"] for g in self.gates.values())
        self.record.update(gates=self.gates, end_to_end=self.metrics, per_layer=self.layer_metrics,
                           attempted=self.attempted, failed=self.failed)
        if self.args.trace:
            self.record["per_layer_moves"] = LAYER_MOVES
        with open(os.path.join(results, f"{stem}.json"), "w") as f:
            json.dump(self.record, f, indent=1, sort_keys=True)
        for label, phase in self.record["phases"].items():
            late = phase.get("late_ms")
            extra = f", generator late p50/p99/max {late['p50']:.3f}/{late['p99']:.3f}/{late['max']:.3f} ms" if late else ""
            fails = f", {phase['failed']} failed {phase['failures']}" if phase.get("failed") else ""
            print(f"phase {label}: {phase['samples']} samples{fails}{extra}")
        for name, m in metrics.items():
            moves = "; ".join(f"{w}: {', '.join(e)}" for w, e in LAYER_MOVES.get(name, {}).items())
            tag = f"  [moves {moves}]" if self.args.trace and moves else ""
            print(f"{name} = {m['value']:.6g} {m['unit']}{tag}")
        print(json.dumps({"correct": correct, "attempted": max(1, self.attempted), "failed": self.failed,
                          "metrics": metrics}))
        return correct

    def cleanup(self):
        for proc in self.children:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        shutil.rmtree(self.work, ignore_errors=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="self-test scale (tiny inputs)")
    ap.add_argument("--corrupt", action="store_true", help="self-test: corrupt a gate's reference scores")
    args = ap.parse_args()
    bench = Bench(args)
    try:
        ok = bench.execute()
    except GateFailure as e:
        print(f"perfbench: gate failed: {e}", file=sys.stderr)
        ok = False
    finally:
        bench.cleanup()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
