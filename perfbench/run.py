"""Benchmark of the IMDPP/Dysim reproduction: planning and σ evaluation.

Run from the repository root:

    python3 perfbench/run.py --workload dysim_amazon --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --rounds 3      # every workload, interleaved

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of
one traced pass (see README.md).
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BLAS_THREADS = 1  # one BLAS thread: the arrays are small and extra threads only add noise
# One set-up takes 0.1-0.2 s and the host's speed drifts over seconds, so a
# run sets up in bursts of SETUP_BURST_S spread over its measuring time (one
# before each pass and one after the last), SETUP_REPEATS times or more.
SETUP_REPEATS = 9
SETUP_BURST_S = 1.0


def _pin_threads() -> None:
    """Cap BLAS/OpenMP threads before numpy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _environment() -> dict:
    import numpy as np

    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for idx in sorted(cache_dir.glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower()}"] = (idx / "size").read_text().strip()
    except OSError:
        pass
    from importlib.metadata import PackageNotFoundError, version

    try:
        pyspark = version("pyspark")
    except PackageNotFoundError:
        pyspark = None
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pyspark": pyspark,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def _metric_units(kind: str) -> dict[str, str]:
    """BENCHMARK.json's ``end_to_end`` or ``per_layer`` metrics, name -> unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Set-up, timed passes, checks and held-out σ of one workload."""

    def __init__(self, workload, data_seed: int) -> None:
        self.w = workload
        self.data_seed = data_seed
        self.passes = []
        self.setup_times: list[float] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.bad_outputs = 0
        self.run_level = 0

    def fail(self, msg: str) -> None:
        """Record a failure of the whole run (its outputs disagree with a reference)."""
        self.run_level += 1
        self.failures.append(msg)

    @property
    def failed(self) -> int:
        """Failed operations: outputs failing a check, plus one per run-level failure."""
        return min(self.attempted, self.bad_outputs + self.run_level)

    def setup(self, seconds: float = SETUP_BURST_S, repeats: int = 1) -> None:
        """Set up and warm up at least ``repeats`` times and for ``seconds``."""
        cap = getattr(self.w, "setup_repeats", None)
        n, spent = 0, 0.0
        while (n < repeats or spent < seconds) and (
            cap is None or len(self.setup_times) < cap
        ):
            gc.collect()  # every set-up starts without the last one's garbage
            t0 = time.perf_counter()
            self.w.setup(self.data_seed)
            self.w.warmup()
            self.setup_times.append(time.perf_counter() - t0)
            n, spent = n + 1, spent + self.setup_times[-1]

    @property
    def setup_s(self) -> float:
        return statistics.median(self.setup_times)

    def measure(self, seconds: float, setup_bursts: bool = True) -> None:
        """Repeat the workload's pass for about ``seconds`` of pass time (at least once).

        With ``setup_bursts``, a burst of set-ups precedes each pass and
        one follows the last. No pass starts that would end more than half
        a pass after the window, so a slow machine lengthens a run by at
        most half a pass.
        """
        done, busy = len(self.passes), 0.0
        while True:
            if setup_bursts:
                self.setup()
            t0 = time.perf_counter()
            self.passes.append(self.w.run())
            busy += time.perf_counter() - t0
            if busy * (1 + 0.5 / (len(self.passes) - done)) >= seconds:
                break
        if setup_bursts:
            self.setup(repeats=SETUP_REPEATS - len(self.setup_times))

    def check(self) -> None:
        from workloads import check_output, log_hash, seed_hash

        hashes = set()
        for p in self.passes:
            self.w.heldout(p.outputs)
            for out in p.outputs:
                self.attempted += 1
                bad = check_output(self.w.model, out)
                self.bad_outputs += bool(bad)
                self.failures.extend(bad)
            hashes.add((seed_hash(p.outputs), log_hash(p.outputs)))
        if len(hashes) > 1:
            self.fail(f"outputs differ between passes of one run: {sorted(hashes)}")
        self.seed_hash, self.log_hash = sorted(hashes)[0]
        self.sigma = {o.label: o.sim.sigma for o in self.passes[0].outputs}

    def end_to_end(self) -> dict:
        op = [p.plan_s + p.eval_s for p in self.passes]
        eval_s = statistics.median([p.eval_s for p in self.passes])
        samples = self.passes[0].samples
        return {
            "op_s": (statistics.median(op), "s"),
            "setup_s": (self.setup_s, "s"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
            # Printed, not gated (see README.md): not every workload has both phases.
            "plan_s": (statistics.median([p.plan_s for p in self.passes]), "s"),
            "eval_s": (eval_s, "s"),
            "eval_samples_per_s": (samples / eval_s if eval_s else 0.0, "1/s"),
            **{f"sigma_heldout.{k}": (v, "sigma") for k, v in self.sigma.items()},
            "fail_rate": (self.failed / self.attempted, "1"),
        }


def _record_hashes(run: Run) -> None:
    """Compare this run's output hashes with earlier runs of the same code."""
    h = hashlib.sha256()  # the program and the benchmark's own code
    for f in sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(str(f.relative_to(ROOT)).encode() + f.read_bytes())
    key = f"{h.hexdigest()[:16]}/{run.w.name}/data{run.data_seed}"
    path = OUT / "hashes.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    got = [run.seed_hash, run.log_hash]
    if seen.setdefault(key, got) != got:
        run.fail(f"output hashes {got} differ from an earlier run {seen[key]}")
    path.write_text(json.dumps(seen, indent=1, sort_keys=True))


def _expected(run: Run) -> None:
    """Pinned hashes and σ of the canonical inputs: the program's answer must not move."""
    path = HERE / "expected.json"
    exp = json.loads(path.read_text()).get(run.w.name) if path.exists() else None
    if exp is None or run.data_seed != exp["data_seed"]:
        return
    if [run.seed_hash, run.log_hash] != [exp["seed_hash"], exp["log_hash"]]:
        run.fail(
            f"seed/log hash {run.seed_hash}/{run.log_hash} != pinned "
            f"{exp['seed_hash']}/{exp['log_hash']}"
        )
    for label, sigma in exp["sigma"].items():
        if run.sigma.get(label) != sigma:
            run.fail(f"sigma_heldout.{label} {run.sigma.get(label)} != pinned {sigma}")


def _print_human(run: Run, metrics: dict) -> None:
    w = run.w.name
    for name, (value, unit) in metrics.items():
        print(f"{w:18s} {name:28s} {value:14.6g} {unit}")
    print(f"{w:18s} seed_hash {run.seed_hash}  log_hash {run.log_hash}  "
          f"passes {len(run.passes)}")
    for msg in run.failures:
        print(f"{w:18s} CHECK FAILED: {msg}")


def _write_record(record: dict) -> None:
    with open(OUT / "runs.jsonl", "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")


def run_untraced(workloads, args, env: dict) -> dict:
    runs = {w: Run(w, args.data_seed) for w in workloads}
    # Rounds interleave the workloads so that drift on a shared machine
    # spreads over all of them instead of biasing the last one.
    for i in range(args.rounds):
        order = workloads[i % len(workloads):] + workloads[: i % len(workloads)]
        for w in order:
            runs[w].measure(args.seconds / args.rounds)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w, r in runs.items():
        r.check()
        _record_hashes(r)
        _expected(r)
        metrics = r.end_to_end()
        _print_human(r, metrics)
        result["attempted"] += r.attempted
        result["failed"] += r.failed
        prefix = "" if len(runs) == 1 else f"{w.name}."
        for name in _metric_units("end_to_end"):
            value, unit = metrics[name]
            result["metrics"][prefix + name] = {"value": value, "unit": unit}
        _write_record({"workload": w.name, "seed": args.seed, "data_seed": args.data_seed,
                       "trace": 0, "metrics": {k: v[0] for k, v in metrics.items()},
                       "passes": [[p.plan_s, p.eval_s] for p in r.passes],
                       "setups": r.setup_times,
                       "seed_hash": r.seed_hash,
                       "log_hash": r.log_hash, "failures": r.failures, "env": env})
    result["correct"] = result["failed"] == 0
    return result


def run_traced(workload, args, env: dict) -> dict:
    from tracer import Tracer
    from workloads import MANUAL_WORKLOADS

    run_id = f"{workload.name}-seed{args.seed}-{os.getpid()}"
    tracer = Tracer(run_id)
    with tracer:
        run = Run(workload, args.data_seed)
        run.setup(seconds=0)
    # One untraced pass, then one traced pass: the difference is the overhead.
    run.measure(0, setup_bursts=False)
    untraced = run.passes[-1].plan_s + run.passes[-1].eval_s
    with tracer:
        run.measure(0, setup_bursts=False)
    traced = run.passes[-1].plan_s + run.passes[-1].eval_s
    runs = [run]
    try:
        # Layers this workload's own pass never reaches: one traced pass of
        # a manual workload each, without warm-up (its first call is traced).
        for name in workload.traced_with:
            side = Run(MANUAL_WORKLOADS[name](), args.data_seed)
            runs.append(side)
            side.w.setup(args.data_seed)
            with tracer:
                side.measure(0, setup_bursts=False)
            side.check()
    finally:
        for side in runs[1:]:
            side.w.close()
    run.check()
    for r in runs:
        _record_hashes(r)
        _expected(r)
    tracer.dump(OUT / f"spans-{run_id}.jsonl")
    units = _metric_units("per_layer")
    metrics = tracer.metrics(traced - untraced, units)
    for name, value in metrics.items():
        print(f"{workload.name:18s} {name:42s} {value:14.6g} {units[name]}")
    for r in runs:
        print(f"{r.w.name:18s} seed_hash {r.seed_hash}  log_hash {r.log_hash}")
        for msg in r.failures:
            print(f"{r.w.name:18s} CHECK FAILED: {msg}")
    _write_record({"workload": workload.name, "seed": args.seed, "data_seed": args.data_seed,
                   "trace": 1, "metrics": metrics, "untraced_s": untraced,
                   "traced_s": traced, "failures": [m for r in runs for m in r.failures],
                   "env": env})
    failed = sum(r.failed for r in runs)
    return {
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=1,
                    help="workload seed; recorded with the result (see README.md)")
    ap.add_argument("--seconds", type=float, default=25.0, help="measuring time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rounds", type=int, default=1,
                    help="interleaved rounds when running several workloads")
    ap.add_argument("--data-seed", type=int, default=None,
                    help="dataset seed (default: the canonical preset seed 7)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    _pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import CANONICAL_DATA_SEED, MANUAL_WORKLOADS, WORKLOADS

    if args.data_seed is None:
        args.data_seed = CANONICAL_DATA_SEED
    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS or args.workload in MANUAL_WORKLOADS:
        names = [args.workload]
    else:
        print(f"perfbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = _environment()
    print("environment " + json.dumps(env, sort_keys=True))
    workloads = [{**WORKLOADS, **MANUAL_WORKLOADS}[n]() for n in names]
    try:
        if args.trace:
            if len(workloads) != 1:
                print("perfbench: --trace 1 takes one workload", file=sys.stderr)
                return 2
            result = run_traced(workloads[0], args, env)
        else:
            args.rounds = max(1, args.rounds)
            result = run_untraced(workloads, args, env)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        for w in workloads:
            getattr(w, "close", lambda: None)()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
