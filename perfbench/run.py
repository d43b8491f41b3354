"""vortexladder benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload {sweep,spin-ed,gap-scan,rp} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root.  Each repetition of a workload runs its CLI
jobs in sequence, one fresh process each (``perfbench/job.py``).  Jobs are
repeated until the next repetition would end after ``--seconds``; every
metric is the median over repetitions.  Artifacts are checked outside the
timed jobs.  With ``--trace 1``, untraced and traced repetitions alternate
and the per-layer metrics come from the traced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A result file with
provenance is written to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYERS, layer_totals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PROBES = 4  # extra set-up-only processes per run, so setup_s has enough samples

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
CALLS = (
    "gauge.sector_from_id", "gauge.gauge_for_sector", "gauge.spanning_cotree",
    "freefermion.mode_spectrum", "freefermion.assemble_skew", "freefermion.big_loop_gap",
    "lattice.build_ladder", "presets.make_couplings", "rp.MajoranaPolynomial.to_matrix",
)
SELF_S = (
    "freefermion.sector_sweep", "gauge.sector_from_id", "cli.cmd_sweep",
    "gauge.gauge_for_sector", "freefermion.mode_spectrum", "freefermion.assemble_skew",
    "freefermion.big_loop_gap", "lattice.build_ladder", "presets.make_couplings",
    "spin_ed.SpinOperator.to_dense", "spin_ed.dense_spectrum", "spin_ed.dense_lowest",
    "spin_ed.label_eigenstates", "perturbation.validate_against_ed", "spin_ed.lowest_eigenvalues",
    "freefermion.sector_union_spectrum", "freefermion.many_body_spectrum", "spin_ed.compare_spectra",
    "rp.MajoranaPolynomial.to_matrix", "rp.rp_functional", "rp.trace_bound_check",
    "rp.energy_inequality_check", "rp.random_even_element", "rp.fock_majoranas", "cli.main",
)
PER_LAYER = {
    **{f"{name}.calls": "count" for name in CALLS},
    **{f"{name}.self_s": "s" for name in SELF_S},
    "freefermion.sector_sweep.matrix_bytes": "bytes",
    "spin_ed.SpinOperator.to_dense.matrix_bytes": "bytes",
    "spin_ed.lowest_eigenvalues.matvecs": "count",
    "spin_ed.lowest_eigenvalues.max_residual": "norm",
    "gauge.spanning_cotree.per_solve": "ratio",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.failed": "count" for layer in LAYERS},
    "trace_overhead_frac": "frac",
}
# Wrapped functions each workload must call; zero calls there is a benchmark
# error (a missed binding site), not a measurement.
EXERCISED = {
    "sweep": ("freefermion.sector_sweep", "gauge.sector_from_id", "cli.cmd_sweep"),
    "spin-ed": ("spin_ed.SpinOperator.to_dense", "spin_ed.SpinOperator.compiled",
                "spin_ed.dense_spectrum", "spin_ed.dense_lowest", "spin_ed.label_eigenstates",
                "perturbation.validate_against_ed", "spin_ed.lowest_eigenvalues",
                "freefermion.sector_union_spectrum", "freefermion.many_body_spectrum",
                "spin_ed.compare_spectra"),
    "gap-scan": ("gauge.gauge_for_sector", "gauge.spanning_cotree", "freefermion.mode_spectrum",
                 "freefermion.assemble_skew", "freefermion.big_loop_gap",
                 "lattice.build_ladder", "presets.make_couplings"),
    "rp": ("rp.MajoranaPolynomial.to_matrix", "rp.rp_functional", "rp.trace_bound_check",
           "rp.energy_inequality_check", "rp.random_even_element", "rp.fock_majoranas"),
}


class BenchError(Exception):
    """The benchmark itself is broken; no result is printed."""


def _sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


class Run:
    """One benchmark run of one workload: its jobs, their checks, the repetitions."""

    def __init__(self, workload: str, jobs: list, work: Path):
        self.workload = workload
        self.jobs = jobs
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self.reference: dict[str, str | None] = {}  # job -> sha256 of its first artifact
        self.setups: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        for job in jobs:
            (work / f"{job.name}.json").write_bytes(job.config_bytes())

    def spawn(self, name: str, cli_args: list[str], traced: bool) -> dict:
        """Run one process to completion; wall time, set-up time and rusage."""
        stamp = self.work / f"{name}.stamp"
        trace = self.work / f"{name}.trace.json"
        for path in (stamp, trace):
            path.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "job.py"), str(stamp),
                str(trace) if traced else "-", name, "--", *cli_args]
        with open(self.work / f"{name}.log", "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                    stdout=log, stderr=subprocess.STDOUT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            imported, module = stamp.read_text().splitlines()
        except (OSError, ValueError):
            imported, module = None, ""
        if module and not Path(module).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"jobs import vortexladder from {module}, not from {SRC}")
        return {
            "code": proc.returncode,
            "wall": end - start,
            "setup": None if imported is None else float(imported) - start,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "trace": json.loads(trace.read_text()) if traced and trace.exists() else None,
        }

    def probe(self) -> None:
        result = self.spawn("probe", [], traced=False)
        if result["code"] != 0:
            raise BenchError(f"set-up probe exited with {result['code']}: "
                             + (self.work / "probe.log").read_text()[-2000:])
        self.setups.append(result["setup"])

    def _judge(self, job, result: dict, out: Path) -> None:
        """Count the job; it fails on a nonzero exit, a failed check, or an
        artifact that differs from this run's first one."""
        from workloads import CheckError

        self.attempted += 1
        sha = _sha256(out)
        error = None
        if result["code"] != 0 or sha is None:
            log = (self.work / f"{job.name}.log").read_text()[-2000:]
            error = f"exit code {result['code']}, no artifact or a failed run: {log}"
        elif job.name not in self.reference:
            self.reference[job.name] = sha
            try:
                job.check(out.read_bytes())
            except CheckError as e:
                error = str(e)
                self.reference[job.name] = None  # repeats of a wrong artifact fail too
        elif sha != self.reference[job.name]:
            error = "artifact differs from the first repetition"
        if error is not None:
            self.failed += 1
            self.errors.append(f"{job.name}: {error}")

    def repetition(self, traced: bool) -> dict:
        results = []
        for job in self.jobs:
            out = self.work / f"{job.name}.out"
            out.unlink(missing_ok=True)
            args = job.cli_args(str(self.work / f"{job.name}.json"), str(out))
            results.append((job, self.spawn(job.name, args, traced), out))
        for job, result, out in results:
            self._judge(job, result, out)
            if result["setup"] is not None:
                self.setups.append(result["setup"])
        rep = {
            "traced": traced,
            "wall_s": sum(r["wall"] for _, r, _ in results),
            "cpu_s": sum(r["cpu"] for _, r, _ in results),
            "peak_rss_mb": max(r["rss_mb"] for _, r, _ in results),
            "artifact_sha256": {job.name: _sha256(out) for job, _, out in results},
        }
        if traced:
            rep["layers"] = self._layers([r["trace"] for _, r, _ in results if r["trace"]])
        return rep

    def _layers(self, docs: list[dict]) -> dict[str, float]:
        totals = layer_totals(docs)
        missing = [name for name in (*EXERCISED[self.workload], "cli.main")
                   if totals.get(f"{name}.calls", 0) == 0]
        if missing and len(docs) == len(self.jobs):
            raise BenchError(f"{self.workload}: no calls recorded into {missing}")
        solves = totals.get("gauge.gauge_for_sector.calls", 0)
        totals["gauge.spanning_cotree.per_solve"] = (
            totals.get("gauge.spanning_cotree.calls", 0) / solves if solves else 0.0)
        return {name: float(totals.get(name, 0.0))
                for name in PER_LAYER if name != "trace_overhead_frac"}


def provenance(seed: int, threads: int, load: float) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload_seed": seed,
        "nproc": threads,
        "cli_threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration") or blas.get("name"),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "loadavg_1min_at_start": load,
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (the
    benchmark may run in an exported tree with no .git at all)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "vortexladder").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, where it can be found."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def run(workload: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """Measure one workload; returns the result document."""
    load = os.getloadavg()[0]
    import workloads

    jobs = workloads.jobs(workload, seed, small=small)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        bench = Run(workload, jobs, work)
        bench.spawn("warmup", [], traced=False)  # fills the page and bytecode caches
        start = time.perf_counter()
        for _ in range(PROBES):
            bench.probe()
        reps: list[dict] = []
        longest = 0.0
        while True:
            began = time.perf_counter()
            reps.append(bench.repetition(traced=trace and len(reps) % 2 == 1))
            longest = max(longest, time.perf_counter() - began)
            enough = len(reps) >= (2 if trace else 1)
            if enough and time.perf_counter() + longest > start + seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    wall = statistics.median(r["wall_s"] for r in plain)
    metrics: dict[str, float] = {
        "wall_s": wall,
        "setup_s": len(jobs) * statistics.median(bench.setups),
        "cpu_s": statistics.median(r["cpu_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    if trace:
        metrics = {name: statistics.median(r["layers"][name] for r in traced)
                   for name in traced[0]["layers"]}
        metrics["trace_overhead_frac"] = statistics.median(r["wall_s"] for r in traced) / wall - 1.0
    units = PER_LAYER if trace else END_TO_END
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "provenance": provenance(seed, workloads.nproc(), load),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "failed_frac": bench.failed / bench.attempted,
        "errors": bench.errors,
        "setup_samples_s": bench.setups,
        "repetitions": reps,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "vortexladder" / "cli.py").is_file():
        print(f"perfbench: no vortexladder sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # on SIGTERM, unwind so the running job is killed and reaped and the work dir removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 3
    for line in result["errors"]:
        print(f"failed: {line}", file=sys.stderr)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    reps = len(result["repetitions"])
    print(f"{args.workload} seed {args.seed}: {reps} repetitions of {result['attempted'] // reps} "
          f"jobs; result file {path.relative_to(ROOT)}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<48} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'failed_frac':<48} {result['failed_frac']:>16.6g} frac")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
