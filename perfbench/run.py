"""Benchmark of the treestats CLI chain and its layers.

Run from the root of a treestats checkout:

    python3 perfbench/run.py --workload seq_wide --seed 1 --seconds 30 --trace 0

``--trace 0`` runs each workload's command chain as a user types it, one
``python -m treestats.cli`` process at a time, and reports the end-to-end
metrics in reference seconds (see ``CALIBRATION``).  ``--trace 1`` runs the same commands in process through
``treestats.cli.main`` with the layer wrappers of ``tracing.py`` installed
and reports the per-layer metrics.  Either way every output is checked
against ``reference.py``; ``--perturb-reference`` is the negative
control, under which every invocation must fail.

Standard output ends with a detail line (environment, input properties,
sample counts, per-command medians) and then the result line
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

# BLAS threads are pinned (<= nproc) before numpy loads, here and in every child.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_ROUNDS = 2       # chains per run, whatever --seconds says
# On a shared 2-vCPU VM, speed drifted by up to ~50% over minutes, and memory-heavy
# code (interpreter start, imports, object churn: most of this program) slows
# far more than arithmetic.  Rounds are therefore bracketed by timings of this
# fixed start, which shares that profile but no code with treestats, and
# end-to-end times are reported in reference seconds: each round's wall
# seconds divided by the mean of the calibrations just before and just after
# it (so, as on a machine where the calibration start takes 1 s), then the
# median over rounds.  Raw seconds are in the detail line.
CALIBRATION = ("-c", "import numpy, scipy.stats")
IMPORT_PROBES = 3    # `-X importtime` starts per traced run
OUT_DIR = ".perfbench_out"


# --------------------------------------------------------------------------
# expected outputs
# --------------------------------------------------------------------------

class Expectations:
    """Reference check per op, plus the properties of the generated inputs."""

    def __init__(self, wl: workloads.Workload, checker: ref.Checker):
        self.checker = checker
        self.checks = {}
        self._verdicts: dict[tuple, list[str]] = {}
        if wl.spec is None:
            self._limit_laws(wl)
        else:
            self._sequences(wl)

    def _sequences(self, wl):
        aln, spec, chk = wl.alignment, wl.spec, self.checker
        d = ref.distance_matrix(aln.rows)
        tree = ref.neighbor_joining(aln.taxa, d)
        sample = ref.sample_document(tree, aln.groups, spec.groups, spec.reps, wl.seed)
        texts = {"dist": ref.distance_csv(aln.taxa, d), "nj": ref.newick(tree),
                 "sample_trees": ref.canonical_json(sample)}
        for op, expected in texts.items():
            self.checks[op] = lambda text, op=op, e=expected: chk.same_text(op, text, e)
        self.inputs = {
            "taxa": len(aln.taxa), "columns": int(aln.rows.shape[1]),
            "gap_share": float((aln.rows == ord("-")).mean()),
            "n_share": float((aln.rows == ord("N")).mean()),
            "group_sizes": {g: list(aln.groups.values()).count(g)
                            for g in sorted(set(aln.groups.values()))},
            "reps": spec.reps,
        }
        if spec.groups == 3:
            report = ref.t3_report(sample)
            self.checks["mean"] = lambda text: chk.close("mean", json.loads(text), report)
            self.inputs["t3_verdict"] = report["verdict"]
        else:
            self.checks["mean"] = lambda text: chk.t4_mean(json.loads(text), sample)
            self.inputs["t4_quadrants"] = len({
                tuple(tuple(s["cluster"]) for s in pt["splits"])
                for pt in sample["points"] if len(pt["splits"]) == 2})

    def _limit_laws(self, wl):
        self.inputs = {}
        for job in workloads.SIM_JOBS:
            report = ref.simulate_report(job.law, job.n, job.reps, wl.seed)
            self.checks[f"simulate_{job.name}"] = (
                lambda text, r=report: self.checker.close("simulate", json.loads(text), r))
            self.inputs[job.name] = {"regime": report["regime"], "n": job.n,
                                     "reps": job.reps,
                                     "stick_fraction": report["stick_fraction"]}

    def check(self, op: str, output: Path) -> list[str]:
        try:
            text = output.read_text(encoding="utf-8")
        except OSError as exc:
            return [f"{op}: no output ({exc})"]
        key = (op, hashlib.sha256(text.encode()).hexdigest())
        if key not in self._verdicts:  # outputs repeat; the verdict does too
            try:
                self._verdicts[key] = self.checks[op](text)
            except (ValueError, KeyError, TypeError) as exc:
                self._verdicts[key] = [f"{op}: unreadable output ({exc!r})"]
        return self._verdicts[key]


class Tally:
    """Attempted and failed invocations, with the first few failure messages."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.messages: list[str] = []

    def record(self, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages.extend(problems[: max(0, 20 - len(self.messages))])


def output_path(argv) -> Path:
    return Path(argv[list(argv).index("-o") + 1])


# --------------------------------------------------------------------------
# untraced run: one CLI process per command
# --------------------------------------------------------------------------

def run_python(args, env) -> tuple[float, float, float, int, str]:
    """(wall s, CPU s, max RSS MB, exit code, stdout) of one ``python <args>`` process.

    The child is reaped with ``os.wait4``, so its resource usage is its own.
    """
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    try:
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode, out


def untraced(wl, expect: Expectations, src: Path, seconds: float, tally: Tally):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    prefix = "treestats "

    rss_mb = []  # max RSS of each treestats process; calibration starts are not counted

    def run_cli(argv):
        wall, cpu, rss, code, out = run_python(["-m", "treestats.cli", *argv], env)
        rss_mb.append(rss)
        return wall, cpu, code, out

    def calibrate():
        wall, _, _, code, _ = run_python(CALIBRATION, env)
        if code:
            raise RuntimeError(f"calibration start exited {code}")
        return wall

    def probe():
        wall, _, code, out = run_cli(["--version"])
        tally.record([f"--version: exit {code}"] if code else
                     expect.checker.same_text("--version", out[: len(prefix)], prefix))
        return wall

    calibrate()  # warm-ups: fill the page cache
    probe()  # and write bytecode caches
    calibration, setup, chains, chain_cpu = [calibrate()], [], [], []
    per_op: dict[str, list[float]] = {op: [] for op, _ in wl.commands}
    start = time.perf_counter()
    while len(chains) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        setup.append(probe())
        wall_sum = cpu_sum = 0.0
        for op, argv in wl.commands:
            wall, cpu, code, _ = run_cli(argv)
            wall_sum += wall
            cpu_sum += cpu
            per_op[op].append(wall)
            tally.record([f"{op}: exit {code}"] if code else
                         expect.check(op, output_path(argv)))
        chains.append(wall_sum)
        chain_cpu.append(cpu_sum)
        calibration.append(calibrate())

    def reference_s(walls):  # each round against the calibrations on either side of it
        return median(w / ((before + after) / 2)
                      for w, before, after in zip(walls, calibration, calibration[1:]))

    metrics = {
        "setup_s": reference_s(setup),
        "chain_s": reference_s(chains),
        "peak_rss_mb": max(rss_mb),
    }
    detail = {"raw_s": {"setup": median(setup), "chain": median(chains),
                        "calibration": median(calibration)},
              "samples_s": {"calibration": calibration, "setup": setup, "chain": chains,
                            "chain_cpu": chain_cpu},
              "per_command_wall_s": {op: median(v) for op, v in per_op.items()},
              "measured_s": time.perf_counter() - start}
    return metrics, detail


# --------------------------------------------------------------------------
# traced run: the same commands in process, layer wrappers installed
# --------------------------------------------------------------------------

def import_seconds(src: Path) -> float:
    """Import time of ``treestats.cli`` in a fresh interpreter (-X importtime)."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import treestats.cli"],
                          env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, check=True)
    total_us = 0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        top_level = len(name) - len(name.lstrip()) == 1
        if top_level and name.strip().startswith("treestats") and cumulative.strip().isdigit():
            total_us += int(cumulative)
    return total_us / 1e6


def traced(wl, expect: Expectations, src: Path, seconds: float, tally: Tally, out: Path):
    sys.path.insert(0, str(src))
    from treestats import cli, mcsim, njtree, openbook, pipeline, seqio, spider, t4space

    modules = {"cli": cli, "mcsim": mcsim, "njtree": njtree, "openbook": openbook,
               "pipeline": pipeline, "seqio": seqio, "spider": spider, "t4space": t4space}
    tracer = tracing.Tracer()
    root = tracer.wrap(tracing.ROOT.name, tracing.SPAN, cli.main)

    def chain(iteration, main) -> float:
        total = 0.0
        for op, argv in wl.commands:
            tracer.op = (iteration, argv[0].replace("-", "_"))
            start = time.perf_counter()
            with contextlib.redirect_stderr(io.StringIO()):  # simulate's progress line
                code = main(list(argv))
            total += time.perf_counter() - start
            tally.record([f"{op}: exit {code}"] if code else
                         expect.check(op, output_path(argv)))
        return total

    chain(-1, cli.main)  # warm-up
    rows, plain, with_trace = [], [], []
    start = time.perf_counter()
    while len(rows) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        plain.append(chain(len(rows), cli.main))
        first = tracer.begin_iteration()
        with tracer.patched(modules):
            with_trace.append(chain(len(rows), root))
        rows.append(tracing.iteration_metrics(tracer.op_totals(first), tracer.counts))
    measured = time.perf_counter() - start
    metrics = tracing.medians(rows)
    metrics["treestats.import_s"] = median(import_seconds(src) for _ in range(IMPORT_PROBES))
    metrics["trace.chain_untraced_s"] = median(plain)
    metrics["trace.chain_traced_s"] = median(with_trace)

    spans_file = out / f"spans-{wl.name}-{wl.seed}.json"
    with spans_file.open("w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op"],
                   "spans": tracer.spans}, fh)
    detail = {"samples": {"traced_chains": len(rows)}, "measured_s": measured,
              "spans": len(tracer.spans), "spans_file": str(spans_file.relative_to(Path.cwd())),
              "layer_map": {layer.name: layer.moves for layer in (*tracing.LAYERS, tracing.ROOT)}}
    return metrics, detail


# --------------------------------------------------------------------------

def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "blas_threads": int(BLAS_THREADS), "loadavg_at_start": os.getloadavg()}


def unit_of(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    return "count" if name.endswith((".calls", ".created")) else "s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--perturb-reference", action="store_true",
                        help="negative control: compare against wrong references")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: run_python kills and reaps its child, finally cleans up
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    src = Path.cwd() / "src"
    if not (src / "treestats" / "cli.py").is_file():
        print("error: no src/treestats here; run from the root of a treestats checkout",
              file=sys.stderr)
        return 2
    env_block = environment()
    out = Path.cwd() / OUT_DIR
    workdir = out / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = workloads.build(args.workload, args.seed, workdir)
        expect = Expectations(wl, ref.Checker(args.perturb_reference))
        tally = Tally()
        if args.trace:
            metrics, detail = traced(wl, expect, src, args.seconds, tally, out)
        else:
            metrics, detail = untraced(wl, expect, src, args.seconds, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  perturbed_reference=args.perturb_reference, environment=env_block,
                  inputs=expect.inputs, failed_frac=tally.failed / tally.attempted,
                  failures=tally.messages)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": int(v) if unit_of(k) == "count" else v, "unit": unit_of(k)}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
