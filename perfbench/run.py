"""zsflow benchmark: seeded even / odd / search workloads in a closed loop.

    python3 perfbench/run.py --workload even --seed 1 --seconds 30 --trace 0

One client, one call at a time, no threads.  ``--workload all`` runs each
workload in a fresh interpreter and prints every report.  Run from the root
of a checkout: zsflow is imported from ``src/``.

--trace 0  Generate the corpus in chunks, each after a fresh import of
           zsflow, then run it once.  The corpus holds about --seconds of
           work at the seed commit.  Prints the end-to-end metrics of
           BENCHMARK.json.
--trace 1  Run half as many rounds twice each, untraced and then with every
           module boundary wrapped (see tracing.py), and print the
           per-layer metrics of BENCHMARK.json.

All times are scaled by the host's speed, measured with reference_loop
between calls; see README.md.

Every returned flow is re-checked by check.py, never by zsflow itself.
Deterministic results (statuses, solver nodes, flow digests, which calls
failed) must repeat exactly wherever an item runs again; a difference is an
error, and so is a flow the checker rejects.  round0_digest and, traced,
trace_digest (every per-layer count) let separate runs of a seed be compared.
The last line of output is one JSON object: correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import sys

# No bytecode is written, and run_one points sys.pycache_prefix at an empty
# directory, so none is read either: every import of zsflow compiles from
# source, whatever caches a test run has left in src/.
sys.dont_write_bytecode = True

import argparse
import bisect
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import tempfile
from pathlib import Path
from time import perf_counter

import workloads
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("even", "odd", "search")
SETUP_CHUNKS = 9
REF_EVERY_S = 0.25
REF_WINDOW_S = 2.0  # a call is scaled by the reference times within this distance
REF_S = 0.010  # the reference loop's time on a quiet core of a 2-core VM
WARMUP_ITEMS = 3
DEADLINE_S = 170  # the run is abandoned, with a non-zero exit, before 180 s
STRETCH = 1.5  # on a slow host, no round starts after STRETCH * --seconds


class Deadline(BaseException):
    """Raised by the alarm; a BaseException so no library handler swallows it."""


def import_zsflow():
    """A fresh import of zsflow: drop every zsflow module, then import again."""
    for name in [n for n in sys.modules if n == "zsflow" or n.startswith("zsflow.")]:
        del sys.modules[name]
    zs = importlib.import_module("zsflow")
    importlib.import_module("zsflow.cli")  # the package itself does not import its CLI
    return zs


def reference_loop() -> float:
    """Time a fixed piece of pure-Python work that no code under test can change.

    A shared host's speed drifts by 15-25 % over tens of seconds, and this
    loop's time follows the drift.  Reported times are divided by the run's
    median loop time over REF_S, so they read as seconds on a host where the
    loop takes REF_S.  The report prints the unscaled values as well.  The
    garbage collector is off while it runs, so the size of the heap, which
    grows during set-up, does not change its time.
    """
    gc.disable()
    try:
        start = perf_counter()
        s = 0
        for i in range(60_000):
            s += i * i % 7
        d = {}
        for i in range(20_000):
            d[i] = [i]
        return perf_counter() - start
    finally:
        gc.enable()


def call_depth() -> int:
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


class Runner:
    """Runs items, keeps their outcomes, and checks that repeats agree."""

    def __init__(self, zs, workdir):
        self.zs = zs
        self.workdir = workdir
        self.sigs: dict[tuple, tuple] = {}
        self.errors: list[str] = []
        self.depths: list[int] = []  # call-site stack depth at the first and the last call
        self.refs: list[float] = []
        self.ref_times: list[float] = []

    def speed(self) -> float:
        """Reference time over its nominal: how much slower the host ran than quiet."""
        return statistics.median(self.refs) / REF_S

    def scale(self, rounds) -> None:
        """Divide each call's wall time by the host speed around it."""
        for calls in rounds:
            for _, out in calls:
                lo = bisect.bisect_left(self.ref_times, out.start - REF_WINDOW_S)
                hi = bisect.bisect_right(self.ref_times, out.start + out.wall + REF_WINDOW_S)
                out.scaled = out.wall * REF_S / statistics.median(self.refs[lo:hi] or self.refs)

    def run(self, key: tuple, item: workloads.Item) -> workloads.Outcome:
        if not self.ref_times or perf_counter() - self.ref_times[-1] >= REF_EVERY_S:
            self.refs.append(reference_loop())
            self.ref_times.append(perf_counter())
        self.depths[1:] = [call_depth()]
        start = perf_counter()
        out = workloads.call(self.zs, item, self.workdir)
        out.start = start
        sig = (out.failed, out.sig)
        first = self.sigs.setdefault(key, sig)
        if first != sig:
            self.errors.append(f"determinism: {item.label} (round {key[0]}) gave {sig}, before {first}")
        if out.incorrect:
            self.errors.append(f"incorrect: {item.label} (round {key[0]}): {out.reason}")
        return out

    def run_round(self, corpus, round_idx: int):
        return [(item, self.run((round_idx, i), item)) for i, item in enumerate(corpus[round_idx])]


def tail_rank(n: int) -> int:
    """Index of the highest percentile with at least ten calls beyond it."""
    return max(0, n - 11)


def latency_stats(rounds, penalty: float, scaled: bool = True) -> dict:
    """Per-call latency; a failed call ranks slower than every success.

    A failed call is charged ``penalty`` plus its own wall time.  The penalty
    is a whole round's time at the seed commit, more than any one successful
    call takes, and it does not depend on the code under test.  Fixing a
    failure replaces that one charge by a smaller latency and leaves every
    other value as it was, so it can only lower these numbers.
    """
    ranked = []
    for calls in rounds:
        for _, out in calls:
            wall = out.scaled if scaled else out.wall
            ranked.append((1, penalty + wall) if out.failed else (0, wall))
    ranked.sort()
    values = [v for _, v in ranked]
    i = tail_rank(len(values))
    return {
        "call_p50_s": statistics.median(values),
        "call_tail_s": values[i],
        "tail_percentile": 100.0 * (i + 1) / len(values),
        "calls": len(values),
    }


def outcome_stats(rounds, scaled: bool = True) -> dict:
    outs = [out for calls in rounds for _, out in calls]
    wall = sum(o.scaled if scaled else o.wall for o in outs)
    searches = [o for o in outs if o.status]
    search_wall = sum(o.scaled if scaled else o.wall for o in searches)
    reasons: dict[str, int] = {}
    for o in outs:
        if o.failed:
            key = o.reason.split(":")[0] if o.reason.startswith("checker") else o.reason[:60]
            reasons[key] = reasons.get(key, 0) + 1
    return {
        "attempted": len(outs),
        "failed": sum(o.failed for o in outs),
        "wall": wall,
        "verified_edges_per_s": sum(o.edges for o in outs) / wall,
        "failed_frac": sum(o.failed for o in outs) / len(outs),
        "nodes_per_s": sum(o.nodes for o in searches) / search_wall if searches else None,
        "undecided_frac": (
            sum(o.status == "undecided" for o in searches) / len(searches) if searches else None
        ),
        "reasons": reasons,
    }


def digest(rounds) -> str:
    h = hashlib.sha256()
    for calls in rounds:
        for item, out in calls:
            h.update(repr((item.label, out.failed, out.sig)).encode())
    return h.hexdigest()[:16]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def make_corpus(workload: str, seed: int, seconds: float, workdir):
    """The corpus, generated in equal chunks, each after a fresh import of zsflow.

    The chunks hold whole rounds; the rounds past the corpus are generated
    and timed like the others, then dropped, so every chunk does the same
    work.  Returns the zsflow package, the corpus, and each chunk's time
    both raw and scaled by the host speed measured just before and after
    that chunk.
    """
    rounds = max(1, round(seconds / workloads.ROUND_S[workload]))
    per_chunk = math.ceil(rounds / SETUP_CHUNKS)
    import_zsflow()  # the first import also loads the stdlib modules zsflow needs
    corpus, raw, scaled = [], [], []
    ref = reference_loop()
    for chunk in range(SETUP_CHUNKS):
        gc.collect()
        gc.freeze()  # the collector skips earlier chunks, so each chunk sees the same heap
        start = perf_counter()
        zs = import_zsflow()
        made = [
            workloads.make_round(workload, zs, seed, chunk * per_chunk + i, workdir)
            for i in range(per_chunk)
        ]
        elapsed = perf_counter() - start
        corpus += made[: rounds - len(corpus)]
        ref_after = reference_loop()
        raw.append(elapsed)
        scaled.append(elapsed * 2 * REF_S / (ref + ref_after))
        ref = ref_after
    return zs, corpus, raw, scaled


def run_untraced(workload: str, seed: int, seconds: float, workdir) -> tuple[dict, dict]:
    zs, corpus, setup_raw, setup_times = make_corpus(workload, seed, seconds, workdir)
    gc.collect()
    gc.freeze()

    runner = Runner(zs, workdir)
    warmup = [corpus[0][:WARMUP_ITEMS]]  # same call path, and stack depth, as the timed calls
    runner.run_round(warmup, 0)
    start = perf_counter()
    rounds = []
    while len(rounds) < len(corpus) and perf_counter() - start < STRETCH * seconds:
        rounds.append(runner.run_round(corpus, len(rounds)))
    elapsed = perf_counter() - start
    runner.run_round(warmup, 0)  # a third run of these, to compare

    speed = runner.speed()
    runner.scale(rounds)
    stats = outcome_stats(rounds)
    penalty = workloads.ROUND_S[workload]
    lat = latency_stats(rounds, penalty)
    raw_stats = outcome_stats(rounds, scaled=False)
    raw_lat = latency_stats(rounds, penalty, scaled=False)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "verified_edges_per_s": stats["verified_edges_per_s"],
        "call_p50_s": lat["call_p50_s"],
        "call_tail_s": lat["call_tail_s"],
        "peak_rss_mb": peak_rss_mb(),
    }
    raw = {
        "setup_s": statistics.median(setup_raw),
        "verified_edges_per_s": raw_stats["verified_edges_per_s"],
        "call_p50_s": raw_lat["call_p50_s"],
        "call_tail_s": raw_lat["call_tail_s"],
        "nodes_per_s": raw_stats["nodes_per_s"],
    }
    info = {
        "runner": runner,
        "stats": stats,
        "lat": lat,
        "raw": raw,
        "lines": [
            f"corpus: {len(corpus)} rounds of {len(corpus[0])} items, set up in {len(setup_times)} chunks "
            f"({', '.join(f'{t:.3f}' for t in setup_times)} s, each scaled by its own reference loops)",
            f"measured: {len(rounds)} rounds in {elapsed:.2f} s; host speed: reference loop median "
            f"{statistics.median(runner.refs) * 1000:.2f} ms over {len(runner.refs)} samples "
            f"(nominal {REF_S * 1000:.1f} ms); each call's time is divided by the median "
            f"over {REF_WINDOW_S:g} s around it (run median {speed:.4f})",
            f"round0_digest: {digest(rounds[:1])}",
        ],
    }
    return metrics, info


def run_traced(workload: str, seed: int, seconds: float, workdir) -> tuple[dict, dict]:
    rounds_total = max(1, round(seconds / (2 * workloads.ROUND_S[workload])))
    zs = import_zsflow()
    tracer = Tracer()
    tracer.install(zs)
    try:
        corpus = [workloads.make_round(workload, zs, seed, j, workdir) for j in range(rounds_total)]
    finally:
        tracer.uninstall()
    tracer.root_s = 0.0  # from here on, the root spans of the timed traced calls only
    gc.collect()
    gc.freeze()

    runner = Runner(zs, workdir)
    plain, traced = [], []
    start = perf_counter()
    for j in range(rounds_total):
        if perf_counter() - start > STRETCH * seconds:
            break
        plain.append(runner.run_round(corpus, j))
        tracer.install(zs)
        try:
            traced.append(runner.run_round(corpus, j))
        finally:
            tracer.uninstall()

    speed = runner.speed()
    runner.scale(plain + traced)
    stats = outcome_stats(plain)
    traced_stats = outcome_stats(traced)
    overhead = traced_stats["wall"] - stats["wall"]
    # The root spans must account for the traced calls' wall time: a gap
    # larger than the tracing overhead means time spent in zsflow outside
    # every traced function.  Compared in raw time, as measured.  Host drift
    # moves the measured overhead by a few percent of the wall either way,
    # so the gap may reach at least 1 % of the wall.
    raw_wall = sum(out.wall for calls in traced for _, out in calls)
    raw_overhead = raw_wall - sum(out.wall for calls in plain for _, out in calls)
    gap = raw_wall - tracer.root_s
    allowed = max(abs(raw_overhead), 0.01 * raw_wall)
    if abs(gap) > allowed:
        runner.errors.append(
            f"trace: root spans {tracer.root_s:.6f} s leave {gap:.6f} s of the traced calls' "
            f"{raw_wall:.6f} s unaccounted, more than the allowed {allowed:.6f} s"
        )
    self_sum = tracer.self_sum_s()
    metrics = {k: v / speed if k.endswith("_s") else v for k, v in tracer.metrics().items()}
    metrics.update(
        {
            "trace.overhead_s": overhead,
            "trace.root_s": tracer.root_s / speed,
            "run.failed_frac": stats["failed_frac"],
            "run.undecided_frac": stats["undecided_frac"] or 0.0,
            "solver.solve.nodes_per_s": stats["nodes_per_s"] or 0.0,
        }
    )
    top = sorted(tracer.stats.items(), key=lambda kv: -kv[1]["self_s"])[:5]
    counts = json.dumps(tracer.deterministic(), sort_keys=True)
    info = {
        "runner": runner,
        "stats": traced_stats,
        "lines": [
            f"traced: {len(plain)} rounds of {len(corpus[0])} items, each run untraced then traced",
            f"host speed: times below are divided by {speed:.4f} (see reference_loop)",
            f"untraced wall {stats['wall']:.3f} s, traced wall {traced_stats['wall']:.3f} s, "
            f"overhead {overhead:.3f} s",
            f"root spans {tracer.root_s:.4f} s of the traced calls' {raw_wall:.4f} s (raw): "
            f"gap {gap * 1000:.3f} ms, allowed {allowed * 1000:.3f} ms (raw overhead {raw_overhead * 1000:.3f} ms)",
            "top self time: "
            + ", ".join(f"{name} {st['self_s'] / self_sum:.0%}" for name, st in top),
            f"round0_digest: {digest(plain[:1])}",
            f"trace_digest: {hashlib.sha256(counts.encode()).hexdigest()[:16]}",
        ],
    }
    return metrics, info


def run_one(args) -> int:
    if not (SRC / "zsflow" / "__init__.py").is_file():
        print(f"error: no zsflow source under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    sys.path.insert(0, str(SRC))
    limit_start = sys.getrecursionlimit()
    with tempfile.TemporaryDirectory(prefix="_work-", dir=BENCH_DIR) as tmp:
        sys.pycache_prefix = str(Path(tmp) / "pycache")  # empty: no cached bytecode is read
        run = run_traced if args.trace else run_untraced
        metrics, info = run(args.workload, args.seed, args.seconds, Path(tmp))
    runner, stats = info["runner"], info["stats"]

    print(f"workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds}  trace: {args.trace}")
    print(
        f"python: {platform.python_version()}  nproc: {len(os.sched_getaffinity(0))}  "
        f"recursion_limit: {limit_start} at start, {sys.getrecursionlimit()} at end  "
        f"call-site stack depth: {runner.depths[0]} at the first call, {runner.depths[-1]} at the last"
    )
    for line in info["lines"]:
        print(line)
    print(f"calls: {stats['attempted']}  failed: {stats['failed']}")
    for reason, count in sorted(stats["reasons"].items()):
        print(f"  failed {count}x: {reason}")
    if not args.trace:
        lat, raw = info["lat"], info["raw"]
        print(f"call_tail_s is p{lat['tail_percentile']:.1f} of N={lat['calls']} calls")
        print(f"{'metric':24s} {'value':>14s} {'unit':8s} {'unscaled':>14s}")
        rows = [(m["name"], metrics[m["name"]], m["unit"]) for m in wanted]
        rows.append(("failed_frac", stats["failed_frac"], "ratio"))
        if stats["nodes_per_s"] is not None:
            rows.append(("nodes_per_s", stats["nodes_per_s"], "nodes/s"))
            rows.append(("undecided_frac", stats["undecided_frac"], "ratio"))
        for name, value, unit in rows:
            print(f"{name:24s} {value:14.6g} {unit:8s} {raw.get(name, value):14.6g}")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    runner.errors += [f"metric {name} was not measured" for name in missing]
    for error in runner.errors[:20]:
        print(f"ERROR {error}")
    result = {
        "correct": not runner.errors,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in metrics
        },
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh interpreter, so none inherits another's state."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        print()
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    def expire(signum, frame):
        raise Deadline()

    signal.signal(signal.SIGALRM, expire)
    signal.alarm(DEADLINE_S)
    try:
        return run_one(args)
    except Deadline:
        print(f"error: run exceeded {DEADLINE_S} s and was abandoned", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)


if __name__ == "__main__":
    sys.exit(main())
