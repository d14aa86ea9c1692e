"""End-to-end and per-layer benchmark of the ``abfuse`` CLI.

    python3 perfbench/run.py --workload fuse_2k --seed 0 --seconds 20 --trace 0

Run from anywhere; the repository is the parent of this directory and the
package is imported from its ``src/``.  Each run builds its inputs from
``--seed`` (``abfuse gen`` plus, on ``fuse_2k``, a box shift; then
``abfuse learn``), then runs the workload's CLI job again and again, one
process at a time, for ``--seconds`` seconds.  Every job's output is
checked.

``--trace 0`` reports the end-to-end metrics: set-up and job wall time,
throughput, CPU time, peak RSS of the job process and F1.  Times are scaled
to a reference machine speed, measured with a fixed loop around every
process (see ``calibration_loop``).  ``--trace 1``
alternates plain jobs with jobs run under ``tracer.py`` and reports the
per-layer metrics listed in ``layers.py`` plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a ``{"record": ...}`` object with the environment, seed, sample counts,
output digests and any check findings.
"""

import argparse
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import checks
import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACER = os.path.join(HERE, "tracer.py")
WORK = os.path.join(ROOT, ".perfbench_work")

PRESET = "MM_1"
N_TRAIN = 2000
RULE_GRID = "0.01,0.1,0.3,0.5,1.0"
SETUP_REPS = 3
MIN_JOBS = 3
JOB_TIMEOUT_S = 120.0
RUN_LIMIT_S = 165.0   # kill whatever is still running past this point
EXIT_INFEASIBLE = 2   # abfuse's "proven infeasible": a completed job
CAL_ITERS = 400_000
REF_LOOP_S = 0.06     # calibration loop time at the reference speed


@dataclass(frozen=True)
class Workload:
    name: str
    n_test: int
    job: tuple             # CLI command and options, without dataset and --out
    solver_runs: int       # solver runs per job, for objects_per_s
    shift_every: int = 0   # shift every k-th test object's boxes; 0 = none
    methods: tuple = ()    # sweep methods, in CSV order
    n_cells: int = 0       # sweep (delta, epsilon) cells
    f1_methods: tuple = ()  # sweep rows averaged into f1

    @property
    def is_sweep(self):
        return self.job[0] == "sweep"


def _sweep(methods, deltas, epsilons, f1_methods, **kw):
    job = ("sweep", "--methods", ",".join(methods), "--delta-grid", deltas,
           "--epsilon-grid", epsilons, "--jobs", "1", "--no-timing")
    n_cells = len(deltas.split(",")) * len(epsilons.split(","))
    solvers = sum(1 for m in ("ip", "hs") if m in methods)
    return dict(job=job, methods=tuple(methods), n_cells=n_cells,
                f1_methods=f1_methods, solver_runs=solvers * n_cells, **kw)


WORKLOADS = {w.name: w for w in (
    Workload("fuse_2k", n_test=2000, shift_every=50, solver_runs=1,
             job=("abduce", "--solver", "hs", "--delta", "0.5", "--tie-break", "on")),
    Workload("sweep_1k", n_test=1000, **_sweep(
        ("ip", "ip+tb", "hs", "hs+tb", "mv", "best"),
        "0.1,0.3,0.5,0.7,0.9", "0.1,0.3,0.5,1.0", ("ip+tb", "hs+tb"))),
    Workload("exact_1k", n_test=1000, **_sweep(
        ("ip", "ip+tb"), "0.5,0.6,0.7,0.8,0.9,1.0", "0.1,0.3,0.5,1.0", ("ip+tb",))),
)}


# ---------------------------------------------------------------------------
# processes


@dataclass
class Proc:
    rc: int
    wall: float
    cpu: float
    peak_rss_mb: float
    timed_out: bool
    scale: float = 1.0    # reference speed / machine speed around this process


def calibration_loop():
    """Seconds for a fixed piece of pure-Python work that no change to the
    program can alter; it tracks how fast the machine runs right now."""
    t0 = time.perf_counter()
    d = {}
    for i in range(CAL_ITERS):
        d[i & 1023] = (i * 7) % 13
    return time.perf_counter() - t0


def calibration_s():
    return statistics.median(calibration_loop() for _ in range(3))


def run_process(argv, log_path, timeout):
    """Run ``argv`` to completion; wall time, CPU time and peak RSS of that
    one child come from ``wait4``.  The child is killed after ``timeout``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    expired = []
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=log,
                                stderr=subprocess.STDOUT)

        def on_alarm(signum, frame):
            expired.append(True)
            proc.kill()

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.1))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, bool(expired))


class Runner:
    """Starts CLI commands, plain or traced, inside one run directory."""

    def __init__(self, run_dir, t_start):
        self.run_dir = run_dir
        self.t_start = t_start
        self.n = 0
        self.loop_s = calibration_s()

    def timeout(self):
        return min(JOB_TIMEOUT_S, RUN_LIMIT_S - (time.perf_counter() - self.t_start))

    def cli(self, args, traced=False):
        """Returns (Proc, span payload or None, log text)."""
        self.n += 1
        log = os.path.join(self.run_dir, f"cmd{self.n}.log")
        spans = os.path.join(self.run_dir, f"cmd{self.n}.spans.json")
        prefix = [TRACER, spans, "--"] if traced else ["-m", "abfuse.cli"]
        before = self.loop_s
        proc = run_process([sys.executable, *prefix, *args], log, self.timeout())
        self.loop_s = calibration_s()
        proc.scale = REF_LOOP_S / ((before + self.loop_s) / 2)
        payload = None
        if traced and os.path.isfile(spans):
            with open(spans, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        with open(log, "r", encoding="utf-8", errors="replace") as fh:
            text = fh.read()
        return proc, payload, text


# ---------------------------------------------------------------------------
# set-up


def shift_boxes(test_dir, every):
    """Shift every ``every``-th ground-truth object's predicted boxes right by
    20% of their width (IoU 2/3), in every model's prediction file."""
    gt = checks.read_jsonl(os.path.join(test_dir, "gt.jsonl"))
    targets = {(g["image_id"], tuple(g["bbox"])) for g in gt[::every]}
    with open(os.path.join(test_dir, "manifest.json"), "r", encoding="utf-8") as fh:
        pred_files = json.load(fh)["predictions"].values()
    for name in sorted(pred_files):
        path = os.path.join(test_dir, name)
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
        with open(path, "w", encoding="utf-8") as fh:
            for line in lines:
                rec = json.loads(line)
                if (rec["image_id"], tuple(rec["bbox"])) in targets:
                    x0, y0, x1, y1 = rec["bbox"]
                    dx = 0.2 * (x1 - x0)
                    rec["bbox"] = [x0 + dx, y0, x1 + dx, y1]
                    line = json.dumps(rec) + "\n"
                fh.write(line)


def setup(runner, wl, seed, sizes, data_dir, traced, problems):
    """gen (+ shift) + learn; returns (seconds at the reference speed, input
    digest, span payloads)."""
    n_train, n_test = sizes
    payloads = []
    t = 0.0
    scales = []
    p, pay, log = runner.cli(["gen", "--preset", PRESET, "--n-train", str(n_train),
                              "--n-test", str(n_test), "--seed", str(seed),
                              "--out", data_dir], traced)
    t += p.wall
    scales.append(p.scale)
    payloads.append(pay)
    if p.rc != 0:
        problems.append(f"gen exited {p.rc}: {log[-300:]}")
        return t, None, payloads
    test_dir = os.path.join(data_dir, "test")
    if wl.shift_every:
        t0 = time.perf_counter()
        shift_boxes(test_dir, wl.shift_every)
        t += time.perf_counter() - t0
    rules = os.path.join(data_dir, "rules.jsonl")
    p, pay, log = runner.cli(["learn", "--manifest",
                              os.path.join(data_dir, "train", "manifest.json"),
                              "--epsilon-grid", RULE_GRID, "--out", rules], traced)
    t += p.wall
    scales.append(p.scale)
    payloads.append(pay)
    if p.rc != 0:
        problems.append(f"learn exited {p.rc}: {log[-300:]}")
        return t, None, payloads
    files = sorted(os.path.join(test_dir, f) for f in os.listdir(test_dir)) + [rules]
    return t * statistics.mean(scales), checks.sha256_tree(files), payloads


# ---------------------------------------------------------------------------
# jobs


@dataclass
class Job:
    proc: Proc
    status: str          # ok / infeasible / failed
    f1: float
    digest: str
    problems: list
    payload: dict = None


def run_job(runner, wl, data_dir, truth, classes, k, traced):
    out = os.path.join(runner.run_dir, f"job{k}")
    target = out + ".csv" if wl.is_sweep else out
    args = [*wl.job[:1], "--manifest", os.path.join(data_dir, "test", "manifest.json"),
            "--rules", os.path.join(data_dir, "rules.jsonl"), *wl.job[1:],
            "--out", target]
    proc, payload, log = runner.cli(args, traced)
    problems = []
    f1 = digest = None
    status = "ok"
    if proc.timed_out:
        problems.append(f"timed out after {proc.wall:.1f} s")
    elif proc.rc == EXIT_INFEASIBLE and wl.job[0] == "abduce":
        status = "infeasible"
    elif proc.rc != 0:
        problems.append(f"exit code {proc.rc}: {log[-300:]}")
    elif wl.is_sweep:
        f1, digest, problems = checks.check_sweep(target, wl.methods, wl.n_cells,
                                                  wl.f1_methods)
    else:
        f1, digest, problems = checks.check_abduce(out, truth, classes)
    if traced:
        if payload is None:
            problems.append("traced job wrote no span file")
        else:
            problems.extend(payload["problems"])
    if wl.is_sweep:
        for suffix in ("", ".manifest.json"):
            if os.path.exists(target + suffix):
                os.remove(target + suffix)
    else:
        shutil.rmtree(out, ignore_errors=True)
    if problems:
        status = "failed"
    return Job(proc, status, f1, digest, problems, payload)


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def environment():
    sys.path.insert(0, SRC)
    try:
        from abfuse.backend import backend_name
        backend = backend_name()
    finally:
        sys.path.remove(SRC)
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": backend,
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "platform": platform.platform(),
    }


def measure(wl, seed, seconds, trace, scale, run_dir):
    t_start = time.perf_counter()
    runner = Runner(run_dir, t_start)
    sizes = (max(20, round(N_TRAIN * scale)), max(20, round(wl.n_test * scale)))
    problems = []
    record = {"workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
              "n_train": sizes[0], "n_test": sizes[1], "env": environment()}

    setup_s, digests, setup_payloads = [], set(), []
    for rep in range(1 if trace else SETUP_REPS):
        data_dir = os.path.join(run_dir, f"data{rep}")
        t, digest, payloads = setup(runner, wl, seed, sizes, data_dir, trace, problems)
        setup_s.append(t)
        digests.add(digest)
        setup_payloads = payloads
    record["setup_s"] = setup_s
    record["input_digest"] = sorted(d for d in digests if d)
    if len(digests) != 1 or None in digests:
        problems.append("set-up did not reproduce identical inputs")
        return record, problems, [], setup_payloads

    truth, classes = checks.load_truth(os.path.join(data_dir, "test", "manifest.json"))
    jobs = []
    deadline = time.perf_counter() + seconds
    while len(jobs) < (2 * MIN_JOBS if trace else MIN_JOBS) or time.perf_counter() < deadline:
        traced = bool(trace) and len(jobs) % 2 == 1
        jobs.append((traced, run_job(runner, wl, data_dir, truth, classes,
                                     len(jobs), traced)))
        if runner.timeout() <= 0:
            break
    return record, problems, jobs, setup_payloads


def end_to_end(wl, record, jobs):
    """Times are at the reference speed: each is multiplied by the scale the
    calibration loop measured around its own process."""
    done = [j for _, j in jobs if j.status != "failed"] or [j for _, j in jobs]
    job_s = _median([j.proc.wall * j.proc.scale for j in done])
    f1s = [j.f1 for j in done if j.f1 is not None]
    record["job_s_samples"] = len(done)
    record["raw_job_s"] = _median([j.proc.wall for j in done])
    return {
        "setup_s": (_median(record["setup_s"]), "s"),
        "job_s": (job_s, "s"),
        "objects_per_s": (record["n_test"] * wl.solver_runs / job_s if job_s else 0.0,
                          "objects/s"),
        "cpu_s": (_median([j.proc.cpu * j.proc.scale for j in done]), "s"),
        "peak_rss_mb": (_median([j.proc.peak_rss_mb for j in done]), "MB"),
        "f1": (f1s[0] if f1s else 0.0, "ratio"),
    }


def per_layer(record, jobs, setup_payloads, problems):
    plain = [j for traced, j in jobs if not traced and j.status != "failed"]
    traced = [j for t, j in jobs if t and j.payload is not None]
    rows = [layers.job_layers(j.payload, j.proc.wall) for j in traced]
    out = {}
    for name, (unit, _) in layers.LAYER_METRICS.items():
        if name in layers.COUNT_METRICS:
            values = {r[name] for r in rows}
            if len(values) > 1:
                problems.append(f"count {name} differs between jobs: {sorted(values)}")
            out[name] = (rows[0][name] if rows else 0, unit)
        elif name in ("synthgen.write_s", "edr.learn_s"):
            if None in setup_payloads:
                problems.append("traced set-up wrote no span file")
                out[name] = (0.0, unit)
            else:
                out[name] = (layers.setup_layers(setup_payloads)[name], unit)
        elif name == "trace.overhead_s":
            out[name] = (_median([r["wall_without_checks_s"] for r in rows])
                         - _median([j.proc.wall for j in plain]), unit)
        else:
            out[name] = (_median([r[name] for r in rows]), unit)
    record["traced_jobs"] = len(rows)
    record["plain_jobs"] = len(plain)
    record["bnb_nodes"] = out["kernels.bnb_nodes"][0]
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0, help="input seed")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="how long to keep starting jobs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiply dataset sizes (small values for smoke tests)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "abfuse", "cli.py")):
        print(f"error: no abfuse sources under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    run_dir = os.path.join(WORK, f"{wl.name}-s{args.seed}-t{args.trace}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        record, problems, jobs, setup_payloads = measure(
            wl, args.seed, args.seconds, args.trace, args.scale, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    digests = sorted({j.digest for _, j in jobs if j.digest})
    if len(digests) > 1:
        problems.append("jobs of one run produced different outputs")
    failed = sum(1 for _, j in jobs if j.status == "failed")
    for k, (_, j) in enumerate(jobs):
        problems.extend(f"job {k}: {p}" for p in j.problems)
    record.update({
        "job_walls": [j.proc.wall for _, j in jobs],
        "job_scales": [j.proc.scale for _, j in jobs],
        "output_digest": digests,
        "statuses": [j.status for _, j in jobs],
        "failed_frac": failed / len(jobs) if jobs else 1.0,
    })
    if args.trace:
        metrics = per_layer(record, jobs, setup_payloads, problems)
    else:
        metrics = end_to_end(wl, record, jobs)
    record["problems"] = problems[:50]

    for name, (value, unit) in metrics.items():
        print(f"{wl.name:10s} {name:30s} {value:14.6g} {unit}")
    print(json.dumps({"record": record}, default=str))
    print(json.dumps({
        "correct": not problems and bool(jobs),
        "attempted": max(1, len(jobs)),
        "failed": failed if jobs else 1,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
