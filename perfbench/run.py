"""brat benchmark: per-process CLI latency on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; brat is imported from ./src.
Each request is a fresh `python -m brat ...` child process, run in a
closed loop with one client and one child at a time and no think time
(the machine this was sized on has 2 cores).  Every answer is checked
(perfbench/checker.py).  The last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the lines before it are
a human-readable report, prefixed with '#'.

--trace 0 (end to end, tracing off) makes round(S / PASS_SECONDS) full
passes over the request list, at most about S seconds on the reference
machine (a shared 2-core VM, Python 3.11), and every 0.75 s between requests
repeats the set-up and starts a bare interpreter (`python -c pass`).  On
that VM the host's speed was seen to change by up to 40% for minutes at a
time, moving every wall time alike; dividing each request and each
set-up by the fastest bare start within 3 s of it cancels that.  Each
request of the list is represented by the fastest of its repetitions,
which are a pass apart.  The number of passes depends only on S and the
workload, never on how fast brat is, so the minimum is taken over the
same number of samples on every commit.  Metrics:
  setup_s          median set-up (generate the inputs, write them and build
                   the checker), in seconds at the reference machine's
                   speed: set-up / bare start * REF_START_SECONDS
  pass_starts      one pass over the request list, in bare starts: the
                   inverse of throughput at the stated input sizes
  req_p50_starts   median request, spawn to exit with stdout drained
  req_tail_starts  the 11th-largest request: the highest percentile with
                   ten requests beyond it (the report names it)
  peak_rss_mb      largest ru_maxrss of any one child, read with os.wait4
The report lines also give the wall-clock req_per_s, req_p50_ms and
req_tail_ms, and fail_ratio.

--trace 1 runs one pass untraced and one pass through perfbench/launcher.py,
which wraps every public brat function from outside, then probes start-up
and the scaling ladders (perfbench/scaling.py).  It prints the per-layer
metrics listed in BENCHMARK.json; self_ms values are per-request means,
calls and counts are totals over the pass.

A request fails on a timeout, an exit status other than 0 or 1 (exit 2
always counts as a failure, whatever the error type) or an answer the
checker rejects; `correct` is false only when an answer was wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import scaling, workloads  # noqa: E402
from perfbench.checker import Checker  # noqa: E402

REQUEST_TIMEOUT = 60.0
PROBE_REPS = 9
LAUNCHER = ROOT / "perfbench" / "launcher.py"
SPAWNER = ROOT / "perfbench" / "spawner.py"
WORK_ROOT = ROOT / ".perfbench_work"
REF_PERIOD = 0.75  # seconds of request time between set-ups and bare interpreter starts
REF_WINDOW = 3.0  # a sample is scaled by the fastest bare start this close to it
# A timed run makes round(S / PASS_SECONDS) passes.  For the sweeps this is
# about one pass's duration on the reference machine (13-14 s).  A cold-cli
# pass takes 4.5-5 s and its figures are steady, so it gets one pass per 6 s
# and its runs end early, which keeps the whole series of runs short.
PASS_SECONDS = {"cold-cli": 6.0, "diagram-sweep": 13.5, "arith-sweep": 13.5}
REF_START_SECONDS = 0.06  # a bare interpreter start on the reference machine


@dataclass
class Outcome:
    status: int  # exit status, or -1 after a timeout
    stdout: bytes
    stderr: bytes
    wall: float  # seconds from spawn to exit with stdout drained
    maxrss_kb: int


class Spawner:
    """Starts children through perfbench/spawner.py (see why there)."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(SPAWNER)], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)

    def spawn(self, argv, cwd: Path, env: dict, timeout: float) -> Outcome:
        command = {"argv": argv, "cwd": str(cwd), "env": env, "timeout": timeout}
        self.proc.stdin.write(json.dumps(command).encode() + b"\n")
        self.proc.stdin.flush()
        header = json.loads(self.proc.stdout.readline())
        stdout = self.proc.stdout.read(header["stdout"])
        stderr = self.proc.stdout.read(header["stderr"])
        return Outcome(header["status"], stdout, stderr, header["wall"], header["maxrss_kb"])

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


class Runner:
    """Runs one child at a time in a private working directory."""

    def __init__(self, workdir: Path, spawner: Spawner):
        self.workdir = workdir
        self.spawner = spawner
        home = workdir / "home"
        home.mkdir(parents=True, exist_ok=True)
        self.env = {
            "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "HOME": str(home),
            "TMPDIR": str(home),
            "LC_ALL": "C.UTF-8",
            "PYTHONPATH": str(ROOT / "src"),
        }

    def spawn(self, args, timeout: float = REQUEST_TIMEOUT) -> Outcome:
        return self.spawner.spawn([sys.executable, *args], self.workdir, self.env, timeout)

    def brat(self, argv) -> Outcome:
        return self.spawn(["-m", "brat", *argv])

    def launch(self, mode: str, out: Path, argv) -> Outcome:
        return self.spawn([str(LAUNCHER), mode, str(out), "--", *argv])


def mutate(stdout: bytes):
    """A corrupted copy of an answer, or None when there is nothing to corrupt.

    JSON: flip the first boolean, else bump the first integer, else alter
    the first string.  DOT: drop the first edge line.
    """
    text = stdout.decode("utf-8")
    if text.startswith("digraph"):
        lines = text.splitlines(keepends=True)
        for i, line in enumerate(lines):
            if "->" in line:
                return "".join(lines[:i] + lines[i + 1:]).encode()
        return None
    data = json.loads(text)
    found = {}

    def walk(node, parent, key):
        if isinstance(node, bool):
            found.setdefault(bool, (parent, key))
        elif isinstance(node, int):
            found.setdefault(int, (parent, key))
        elif isinstance(node, str):
            found.setdefault(str, (parent, key))
        elif isinstance(node, dict):
            for k, v in node.items():
                walk(v, node, k)
        elif isinstance(node, list):
            for i, v in enumerate(node):
                walk(v, node, i)

    walk(data, None, None)
    for kind, change in ((bool, lambda v: not v), (int, lambda v: v + 1), (str, lambda v: v + "x")):
        if kind in found:
            parent, key = found[kind]
            parent[key] = change(parent[key])
            return (json.dumps(data) + "\n").encode()
    return None


class Judge:
    """Checks answers, caches verdicts per distinct answer, and self-checks
    the checker once per request kind on a corrupted copy."""

    def __init__(self, checker: Checker):
        self.checker = checker
        self.verdicts: dict[tuple, str | None] = {}
        self.selfchecked: set[str] = set()
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.errors: dict[str, int] = {}

    def judge(self, rid: int, request, outcome: Outcome) -> bool:
        self.attempted += 1
        if outcome.status not in (0, 1):
            self.failed += 1
            reason = "timeout" if outcome.status < 0 else "exit %d" % outcome.status
            head = outcome.stderr.decode("utf-8", "replace")[:160].strip()
            key = "%s: %s %s" % (request.label, reason, head)
            self.errors[key] = self.errors.get(key, 0) + 1
            return False
        key = (rid, outcome.status, hashlib.sha1(outcome.stdout).digest())
        if key not in self.verdicts:
            self.verdicts[key] = self.checker.check(request, outcome.status, outcome.stdout)
            if self.verdicts[key] is None and request.kind not in self.selfchecked:
                self._selfcheck(request, outcome)
        verdict = self.verdicts[key]
        if verdict is not None:
            self.failed += 1
            self.wrong.append("%s %s: %s" % (request.label, " ".join(request.argv)[:120], verdict))
            return False
        return True

    def _selfcheck(self, request, outcome: Outcome) -> None:
        corrupted = mutate(outcome.stdout)
        if corrupted is None:
            return
        self.selfchecked.add(request.kind)
        if self.checker.check(request, outcome.status, corrupted) is None:
            self.wrong.append("checker accepted a corrupted %s answer" % request.kind)


def pass_count(workload: str, seconds: float) -> int:
    """Passes of a timed run: fixed by `seconds`, whatever brat's speed."""
    return max(1, round(seconds / PASS_SECONDS[workload]))


def tail_stat(values):
    """(value, percentile, n): the highest order statistic with ten beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    index = max(n - 11, 0)
    return ordered[index], 100.0 * (index + 1) / n, n


class Bench:
    def __init__(self, workload: str, seed: int, scale: int, spawner: Spawner):
        self.name, self.seed, self.scale, self.spawner = workload, seed, scale, spawner
        self.dir = WORK_ROOT / ("%s-%d-%d" % (workload, seed, os.getpid()))

    def setup(self) -> None:
        """Start brat once, to fail early when it cannot run, then set up the run."""
        warm = Runner(self.dir / "warm", self.spawner).brat(["catalog"])
        if warm.status != 0 or not warm.stdout.startswith(b'{"entries"'):
            raise SystemExit("brat does not start: %s" % warm.stderr.decode("utf-8", "replace")[-400:])
        rundir = self.dir / "run"
        self.work, checker, _ = self.prepare(rundir)
        self.runner = Runner(rundir, self.spawner)
        self.judge = Judge(checker)

    def prepare(self, rundir: Path):
        """One set-up: generate the inputs, write them to rundir and build
        the checker.  Returns the workload, the checker and wall seconds."""
        start = time.perf_counter()
        work = workloads.build(self.name, self.seed, self.scale)
        rundir.mkdir(parents=True)
        work.write(rundir)
        checker = Checker(work.files)
        return work, checker, time.perf_counter() - start

    def timed(self, seconds: float) -> dict:
        """Make round(seconds / PASS_SECONDS) full passes over the list,
        repeating the set-up and starting a bare interpreter every REF_PERIOD.

        Each request of the list is represented by the fastest of its
        repetitions.  Relative figures divide each sample by the fastest
        bare start within REF_WINDOW of it."""
        reqs = self.work.requests
        passes = pass_count(self.name, seconds)
        samples: list[list[tuple[float, float]]] = [[] for _ in reqs]  # (clock, wall)
        refs: list[tuple[float, float]] = []
        setups: list[tuple[float, float]] = []  # (clock, set-up seconds)
        peak_kb, clock, next_ref = 0, 0.0, 0.0
        for _ in range(passes):
            for rid, req in enumerate(reqs):
                if clock >= next_ref:
                    setups.append((clock, self.prepare(self.dir / ("setup-%d" % len(setups)))[2]))
                    ref = self.runner.spawn(["-c", "pass"]).wall
                    refs.append((clock, ref))
                    clock += ref
                    next_ref = clock + REF_PERIOD
                out = self.runner.brat(req.argv)
                self.judge.judge(rid, req, out)
                samples[rid].append((clock, out.wall))
                peak_kb = max(peak_kb, out.maxrss_kb)
                clock += out.wall

        def local_ref(t):
            near = [r for c, r in refs if abs(c - t) <= REF_WINDOW]
            return min(near) if near else min(refs, key=lambda cr: abs(cr[0] - t))[1]

        walls = [min(w for _, w in s) for s in samples]
        starts = [min(w / local_ref(c) for c, w in s) for s in samples]
        tail, pct, n = tail_stat(walls)
        report(["%d passes over a list of %d requests and %d bare starts in %.1f s"
                % (passes, n, len(refs), clock),
                "req_tail is p%.1f of the %d requests in the list" % (pct, n),
                "wall clock (moves with the host's speed):"]
               + ["  %-20s %12.4f %s" % row for row in (
                   ("req_per_s", n / sum(walls), "1/s"),
                   ("req_p50_ms", statistics.median(walls) * 1e3, "ms"),
                   ("req_tail_ms", tail * 1e3, "ms"),
                   ("bare_start_ms", min(r for _, r in refs) * 1e3, "ms"),
                   ("setup_ms", statistics.median(t for _, t in setups) * 1e3, "ms"))])
        return {
            "setup_s": REF_START_SECONDS * statistics.median(t / local_ref(c) for c, t in setups),
            "pass_starts": sum(starts),
            "req_p50_starts": statistics.median(starts),
            "req_tail_starts": tail_stat(starts)[0],
            "peak_rss_mb": peak_kb / 1024.0,
        }

    def traced(self) -> dict:
        reqs = self.work.requests
        plain = [self.runner.brat(r.argv) for r in reqs]
        for rid, (req, out) in enumerate(zip(reqs, plain)):
            self.judge.judge(rid, req, out)
        spans_dir = self.runner.workdir / "spans"
        spans_dir.mkdir()
        traced, records = [], []
        for rid, req in enumerate(reqs):
            path = spans_dir / ("%d.json" % rid)
            out = self.runner.launch("trace", path, req.argv)
            self.judge.judge(rid, req, out)
            traced.append(out)
            records.append(json.loads(path.read_text()) if path.exists() else None)
        metrics = layer_metrics(reqs, plain, traced, records)
        metrics.update(self.probes())
        metrics.update(self.scaling())
        return metrics

    def probes(self) -> dict:
        start = [self.runner.spawn(["-c", "pass"]).wall for _ in range(PROBE_REPS)]
        code = ("import time; t = time.perf_counter_ns(); import brat.cli; "
                "print(time.perf_counter_ns() - t)")
        imports = []
        for _ in range(PROBE_REPS):
            out = self.runner.spawn(["-c", code])
            imports.append(int(out.stdout) / 1e6)
        return {"interp.start_ms": statistics.median(start) * 1e3,
                "cli.import_ms": statistics.median(imports)}

    def scaling(self) -> dict:
        work, points = scaling.ladder(self.seed, self.scale)
        ladder_dir = self.runner.workdir / "ladder"
        ladder_dir.mkdir()
        work.write(ladder_dir)
        runner = Runner(ladder_dir, self.spawner)
        checker = Checker(work.files)
        by_axis: dict[str, list[tuple[int, float]]] = {}
        for i, (axis, size, req) in enumerate(points):
            best = None
            for rep in range(2):
                path = ladder_dir / ("t%d-%d.json" % (i, rep))
                out = runner.launch("time", path, req.argv)
                verdict = checker.check(req, out.status, out.stdout)
                if verdict is not None:
                    self.judge.wrong.append("ladder %s=%d: %s" % (axis, size, verdict))
                main_s = json.loads(path.read_text())["main_ns"] / 1e9 if path.exists() else out.wall
                best = main_s if best is None else min(best, main_s)
            by_axis.setdefault(axis, []).append((size, best))
        lines, metrics = [], {}
        for axis, pts in by_axis.items():
            value = scaling.slope([s for s, _ in pts], [t for _, t in pts])
            metrics["scale." + axis] = value
            lines.append("scale.%s = %.2f  (%s: %s)" % (axis, value, scaling.LADDERS[axis][1],
                         ", ".join("%d:%.0fms" % (s, t * 1e3) for s, t in pts)))
        report(lines)
        return metrics


def layer_metrics(reqs, plain, traced, records) -> dict:
    """Per-layer metrics from the spans of one traced pass."""
    n = len(reqs)
    self_ns: dict[str, int] = {}
    counts: dict[str, int] = {}
    levels = bits = fbits = residue = 0
    for rec in records:
        if rec is None:
            continue
        names, spans = rec["names"], rec["spans"]
        own = [end - start for _, start, end, _ in spans]
        for _, start, end, parent in spans:
            if parent >= 0:
                own[parent] -= end - start
        for (nid, _, _, _), value in zip(spans, own):
            self_ns[names[nid]] = self_ns.get(names[nid], 0) + value
        for name, value in rec["counts"].items():
            counts[name] = counts.get(name, 0) + value
        levels += rec["levels"]
        bits = max(bits, rec["max_height_bits"])
        fbits = max(fbits, rec["factorize_max_bits"])
        residue += rec["residue_entries"]

    def ms(*names):
        return sum(self_ns.get(x, 0) for x in names) / n / 1e6

    def module_ms(module):
        return sum(v for k, v in self_ns.items() if k.split(".")[0] == module) / n / 1e6

    tails = [(r, o) for r, o in zip(reqs, plain)
             if r.tail and r.kind in ("mu", "embed") and o.status in (0, 1)]
    certified = sum(1 for r, o in tails if _certified(r, o))
    plain_s = sum(o.wall for o in plain)
    traced_s = sum(o.wall for o in traced)
    m = {
        "cli.self_ms": module_ms("cli"),
        "cli.emit_bytes": sum(len(o.stdout) for o in plain) / n,
        "bratteli.tower_profile.calls": counts.get("bratteli.tower_profile", 0),
        "bratteli.tower_profile.per_req": counts.get("bratteli.tower_profile", 0) / n,
        "bratteli.tower_profile.self_ms": ms("bratteli.tower_profile"),
        "bratteli.levels": levels,
        "bratteli.max_height_bits": bits,
        "bratteli.maximal_uhf.self_ms": ms("bratteli.maximal_uhf"),
        "bratteli.verify_premorphism.self_ms": ms("bratteli.verify_premorphism"),
        "bratteli.telescope.self_ms": ms("bratteli.telescope"),
        "bratteli.search.self_ms": ms("bratteli.k0_unit_divisor", "bratteli.rational_subgroup_witness",
                                      "bratteli.scale_unit_stage", "bratteli.divide_element"),
        "dot.export_dot.self_ms": ms("dot.export_dot"),
        "bratteli.certified_ratio": certified / len(tails) if tails else 0.0,
        "primes.factorize.calls": counts.get("primes.factorize", 0),
        "primes.factorize.self_ms": ms("primes.factorize"),
        "primes.factorize.max_bits": fbits,
        "primes.first_primes.calls": counts.get("primes.first_primes", 0),
        "primes.first_primes.self_ms": ms("primes.first_primes"),
        "primes.is_prime.calls": counts.get("primes.is_prime", 0),
        "supernatural.ell.calls": counts.get("supernatural.SupernaturalNumber.ell", 0),
        "supernatural.ell.self_ms": ms("supernatural.SupernaturalNumber.ell"),
        "catalog.get_entry.self_ms": ms("catalog.get_entry"),
        "bratteli.uhf_diagram.calls": counts.get("bratteli.uhf_diagram", 0),
        "ordered_group.semigroup_member.calls": counts.get("ordered_group.semigroup_member", 0),
        "ordered_group.semigroup_member.self_ms": ms("ordered_group.semigroup_member"),
        "ordered_group.residue_entries": residue,
        "ordered_group.coprime_divisor_property.self_ms": ms("ordered_group.coprime_divisor_property"),
        "ordered_group.unit_divisor.calls": counts.get("ordered_group.unit_divisor", 0),
        "trace.overhead_ratio": traced_s / plain_s,
    }
    for module in ("catalog", "bratteli", "dot", "ordered_group", "supernatural", "primes"):
        m[module + ".self_ms"] = module_ms(module)
    report(["per request: %.1f ms untraced, %.1f ms traced" % (plain_s / n * 1e3, traced_s / n * 1e3)])
    return m


def _certified(request, outcome: Outcome) -> bool:
    data = json.loads(outcome.stdout)
    if request.kind == "mu":
        return data.get("exactness") == "certified"
    return data.get("embeds") in ("yes", "no-certified")


def report(lines) -> None:
    for line in lines:
        print("# " + line)


def environment(seed: int, workload: str) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "interpreter": sys.executable,
        "pythonpath": "src",
        "git_sha": git_sha(),
        "seed": seed,
        "workload": workload,
        "clients": 1,
    }


def git_sha():
    """HEAD of the checkout, or None outside a git repository.  git looks
    no higher than the checkout and reads no user or system config."""
    env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "HOME": str(ROOT),
           "GIT_CEILING_DIRECTORIES": str(ROOT.parent), "GIT_CONFIG_NOSYSTEM": "1"}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def load_spec():
    """Units by metric name, and the end-to-end and per-layer names."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return units, [m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=int, default=1, help="shrink every size (tests)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "brat" / "cli.py").is_file():
        print("no brat sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    units, e2e, layers = load_spec()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # still clean up below
    spawner = Spawner()
    bench = Bench(args.workload, args.seed, args.scale, spawner)
    try:
        report(["env " + json.dumps(environment(args.seed, args.workload))])
        bench.setup()
        if args.trace:
            values = bench.traced()
            values["fail_ratio"] = bench.judge.failed / bench.judge.attempted
            names = layers
        else:
            values = bench.timed(args.seconds)
            names = e2e
        judge = bench.judge
        report(["%-46s %14.4f %s" % (k, values[k], units.get(k, "")) for k in sorted(values)])
        report(["fail_ratio %.4f (%d of %d attempted)" % (judge.failed / judge.attempted, judge.failed,
                                                            judge.attempted)])
        report(["failed: %d x %s" % (count, key) for key, count in sorted(judge.errors.items())])
        report(["WRONG: " + line for line in judge.wrong[:20]])
        result = {
            "correct": not judge.wrong,
            "attempted": judge.attempted,
            "failed": judge.failed,
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in names},
        }
    finally:
        spawner.close()
        shutil.rmtree(bench.dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
