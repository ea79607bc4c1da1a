"""Benchmark of the ``naryalg`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One closed-loop client sends the
workload's requests in a fixed order, each as a fresh ``python3 -m naryalg``
child process under an address-space limit, and checks every exit code,
verdict and output file against the hand-written table in workloads.py.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of the outside tracer
(tracer.py) with ``--trace 1``.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import inputs
from layers import layer_metrics, pass_trace
from workloads import FIXTURES, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
# Address-space limit of every child, far above the largest peak at the seed
# (see README.md), so a blow-up is a counted failure, not a dead machine.
CHILD_ADDRESS_SPACE = 3 << 30
RUN_BUDGET_S = 160.0          # start no request after this; exit well inside 180 s
TAIL_BEYOND = 10              # samples beyond the reported tail percentile
TRACEBACK = b"Traceback (most recent call last)"


def _limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))


@dataclass
class Child:
    code: int
    wall_s: float
    rss_kb: int
    spawned: float            # time.monotonic() just before the spawn
    stdout: bytes
    stderr: bytes
    timed_out: bool


def spawn(cmd, cwd: Path, env: dict, timeout: float) -> Child:
    """Run one child to completion; per-child rusage comes from wait4."""
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    for path in (out_path, err_path):
        path.unlink(missing_ok=True)
    lock = threading.Lock()
    state = {"exited": False, "timed_out": False}
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        spawned = time.monotonic()
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err,
                                preexec_fn=_limit_address_space)

        def kill():
            with lock:
                if not state["exited"]:
                    state["timed_out"] = True
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(max(timeout, 0.1), kill)
        timer.start()
        # Wait without reaping, so the timer never signals a recycled pid.
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
        with lock:
            state["exited"] = True
        timer.cancel()
        timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss, spawned,
                 out_path.read_bytes(), err_path.read_bytes(), state["timed_out"])


def _serve(conn) -> None:
    while True:
        try:
            job = conn.recv()
        except EOFError:
            return
        if job is None:
            return
        if job == "rss":
            conn.send(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        else:
            conn.send(spawn(*job))


class Spawner:
    """Runs `spawn` in a small process forked before the runner grows.

    Linux carries a process's high-water RSS through fork and exec into the
    child's ``ru_maxrss``, so a child forked by the runner, after the runner
    has read a large output to check it, would report at least the runner's
    peak.  Every child is forked by this server instead, whose own peak
    (`floor_mb`) stays far below any request's.
    """

    def __init__(self):
        ctx = multiprocessing.get_context("fork")
        self._conn, theirs = ctx.Pipe()
        self._proc = ctx.Process(target=_serve, args=(theirs,), name="perfbench-spawner")
        self._proc.start()
        theirs.close()

    def __call__(self, cmd, cwd: Path, env: dict, timeout: float) -> Child:
        self._conn.send((cmd, cwd, env, timeout))
        return self._conn.recv()

    def floor_mb(self) -> float:
        self._conn.send("rss")
        return self._conn.recv() / 1024.0

    def close(self) -> None:
        self._conn.send(None)
        self._conn.close()
        self._proc.join()


@dataclass
class Outcome:
    label: str
    kind: str                 # decided | refused | failed
    wrong: bool               # a verdict or output that contradicts the table
    why: str
    child: Child
    trace: dict | None = None


def judge(request, child: Child, work: Path, verify_outputs: bool) -> Outcome:
    def out(kind, why="", wrong=False):
        return Outcome(request.label, kind, wrong, why, child)

    if child.timed_out or child.code < 0:
        return out("failed", f"killed (signal {-child.code})")
    if TRACEBACK in child.stderr:
        return out("failed", "traceback: " + child.stderr.decode(errors="replace")
                   .strip().splitlines()[-1])
    if child.code == 3:
        return out("refused", "size guard")
    if child.code not in (0, 1):
        return out("failed", f"exit {child.code}: "
                   + child.stderr.decode(errors="replace").strip()[-200:])
    problems = []
    if child.code != request.exit_code:
        problems.append(f"exit {child.code}, expected {request.exit_code}")
    if request.verify is not None and (verify_outputs or not request.outputs):
        try:
            problems += request.verify(child.stdout.decode(), work)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            return out("failed", f"unreadable output: {exc!r}")
    if problems:
        return out("failed", "; ".join(problems), wrong=True)
    return out("decided")


@dataclass
class Pass:
    traced: bool
    wall_s: float = 0.0
    outcomes: list = field(default_factory=list)


class Bench:
    def __init__(self, root: Path, workload: Workload, seed: int, spawn=spawn):
        self.spawn = spawn
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = root / ".bench_work" / workload.name
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("NARY_SIZE_GUARD", None)
        self.started = time.monotonic()
        self.digests: dict = {}   # output file -> sha256 of the first pass

    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.monotonic() - self.started)

    def naryalg(self, args) -> list:
        return [sys.executable, "-m", "naryalg", *args]

    def setup(self) -> float:
        """Write the workload's input files; returns the seconds it took."""
        start = time.perf_counter()
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        rng = random.Random(f"{self.workload.name}/{self.seed}")
        shared: dict = {}
        for stem in self.workload.fixtures:
            base = f"{stem}.gen.json"
            child = self.spawn(self.naryalg(["gen", *FIXTURES[stem], "-o", base]),
                          self.work, self.env, self.remaining())
            if child.code != 0:
                raise RuntimeError(f"gen {stem} failed: {child.stderr.decode()[-500:]}")
            obj = inputs.read(self.work / base)
            d = obj["dim"]
            change = shared.get(d) if self.workload.shared_basis else None
            if change is None:
                change = shared[d] = inputs.seeded(rng, d, self.workload.rescale)
            inputs.write(inputs.transform(obj, change), self.work / f"{stem}.json")
            (self.work / base).unlink()
        return time.perf_counter() - start

    def run_pass(self, traced: bool) -> Pass:
        result = Pass(traced)
        first = not self.digests
        # Every pass writes fresh files: overwriting one in place makes ext4
        # flush it on close, a stall that belongs to the file system.
        for request in self.workload.requests:
            for name in request.outputs:
                (self.work / name).unlink(missing_ok=True)
        done = []
        start = time.perf_counter()
        for i, request in enumerate(self.workload.requests):
            if self.remaining() <= 0:
                break
            trace_file = self.work / f".trace{i}.json"
            if traced:
                cmd = [sys.executable, str(HERE / "tracer.py"), str(trace_file),
                       "--", *request.argv]
            else:
                cmd = self.naryalg(request.argv)
            done.append((request, self.spawn(cmd, self.work, self.env, self.remaining()),
                         trace_file))
        result.wall_s = time.perf_counter() - start
        # Judged after the clock stops: checking outputs is not the user's time.
        for request, child, trace_file in done:
            outcome = judge(request, child, self.work, verify_outputs=first)
            if traced and trace_file.exists():
                outcome.trace = inputs.read(trace_file)
                trace_file.unlink()
            result.outcomes.append(outcome)
        self.compare_outputs(result)
        return result

    def compare_outputs(self, done: Pass) -> None:
        """Exact outputs are byte-identical on every pass of a run."""
        for request, outcome in zip(self.workload.requests, done.outcomes):
            if outcome.kind != "decided":
                continue
            for name in request.outputs:
                digest = hashlib.sha256((self.work / name).read_bytes()).hexdigest()
                if self.digests.setdefault(name, digest) != digest:
                    outcome.kind, outcome.wrong = "failed", True
                    outcome.why = f"{name} differs from the first pass"


def end_to_end(passes, setup_s) -> dict:
    samples = sorted(o.child.wall_s for p in passes for o in p.outcomes)
    outcomes = [o for p in passes for o in p.outcomes]
    n = len(samples)
    if n > TAIL_BEYOND:
        tail, pct = samples[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    else:
        tail, pct = samples[-1], 100.0
    return {
        "session_s": (statistics.median(p.wall_s for p in passes), "s"),
        "request_p50_s": (statistics.median(samples), "s"),
        "request_tail_s": (tail, "s", f"p{pct:.1f} of {n} requests"),
        "peak_rss_mb": (max(o.child.rss_kb for o in outcomes) / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
        "decided_ratio": (sum(o.kind == "decided" for o in outcomes) / len(outcomes), "ratio"),
        "failed_ratio": (sum(o.kind == "failed" for o in outcomes) / len(outcomes), "ratio"),
    }


# The metrics compared between commits (BENCHMARK.json); all seven are printed.
# failed_ratio is 0 on two workloads and reaches the result line as "failed"
# of "attempted".
REPORTED_END_TO_END = ("session_s", "request_p50_s", "request_tail_s",
                       "peak_rss_mb", "setup_s", "decided_ratio")


def print_requests(workload: Workload, passes) -> None:
    for i, request in enumerate(workload.requests):
        done = [p.outcomes[i] for p in passes if i < len(p.outcomes)]
        if not done:
            continue
        walls = " ".join(f"{o.child.wall_s:.3f}" for o in done)
        kinds = "/".join(sorted({o.kind for o in done}))
        rss = max(o.child.rss_kb for o in done) / 1024
        print(f"  {kinds:8s} {rss:7.1f} MB  [{walls}] s  naryalg {request.label}")
        for o in done:
            if o.why:
                print(f"      {o.kind}: {o.why}")
                break


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "naryalg" / "__main__.py").is_file():
        print(f"perfbench: no naryalg sources under {root / 'src'}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    spawner = Spawner()
    try:
        return measure(root, WORKLOADS[args.workload], args, spawner)
    finally:
        spawner.close()


def measure(root: Path, workload: Workload, args, spawner: Spawner) -> int:
    bench = Bench(root, workload, args.seed, spawner)
    try:
        setup_s = statistics.median(bench.setup() for _ in range(SETUP_REPEATS))
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    # A fixed pass count, sized so a run lasts about --seconds at the seed,
    # keeps the sample count (and so the tail percentile) equal across commits.
    count = max(1, round(args.seconds / workload.nominal_pass_s))
    schedule = [False, True] * max(1, count // 2) if args.trace else [False] * count
    passes = []
    for traced in schedule:
        if bench.remaining() <= 0:
            break
        passes.append(bench.run_pass(traced))
    shutil.rmtree(bench.work, ignore_errors=True)

    # A pass cut short by the run budget would read as a fast session.
    plain = [p for p in passes
             if not p.traced and len(p.outcomes) == len(workload.requests)]
    if not plain:
        print(f"perfbench: no complete pass within {RUN_BUDGET_S:.0f} s", file=sys.stderr)
        return 1
    outcomes = [o for p in passes for o in p.outcomes]
    print(f"workload {workload.name}, seed {args.seed}: {len(passes)} passes "
          f"({sum(p.traced for p in passes)} traced), {len(outcomes)} requests")
    print_requests(workload, plain)
    e2e = end_to_end(plain, setup_s)
    for name, (value, unit, *note) in e2e.items():
        print(f"  {name:16s} {value:12.6f} {unit:6s} {' '.join(note)}")
    print(f"  (every child's ru_maxrss is at least the spawner's own peak, "
          f"{spawner.floor_mb():.1f} MB)")
    if args.trace:
        traced = [pass_trace(p) for p in passes if p.traced]
        overhead = (statistics.median(p.wall_s for p in passes if p.traced)
                    / e2e["session_s"][0])
        metrics = layer_metrics(traced, overhead)
        for name, (value, unit) in metrics.items():
            print(f"  {name:44s} {value:14.6f} {unit}")
    else:
        metrics = {name: e2e[name][:2] for name in REPORTED_END_TO_END}
    result = {
        "correct": not any(o.wrong for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(o.kind == "failed" for o in outcomes),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
