"""The weylinv benchmark: workloads tables-e8, characters and cli-session.

    python3 bench/run.py --workload tables-e8 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --all [--seed 1] [--seconds 20]

One run repeats passes of the workload, one process at a time, until
--seconds have gone by (at least one pass; two with --trace 1, one traced
and one not).  Every pass starts fresh interpreters with PYTHONPATH pinned
to this checkout's src/ and a fresh working directory and WEYL_CACHE.  The
last line of stdout is one JSON object: correct, attempted, failed and the
metrics that BENCHMARK.json lists (end_to_end with --trace 0, per_layer with
--trace 1).  Each run also writes a record under .bench_out/records/.

--all runs every workload untraced and traced and prints the end-to-end
metrics, fail_frac, the tracing overhead and the span coverage by name.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import inputs
from spans import Tracer, coverage, self_time_by_name, spans_from_json

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
RUN_LIMIT_S = 175.0
SETUP_SAMPLES = 3

PROBE = ("import sys, numpy, weylinv; "
         "sys.stdout.write(weylinv.__file__ + '\\n' + numpy.__version__)")


class BenchError(RuntimeError):
    """The benchmark could not measure: no pass could be set up."""


class Run:
    """One benchmark invocation: its deadline, scratch directory and env."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.scratch = OUT / "tmp" / f"{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(self.scratch, ignore_errors=True)
        self.numpy = None
        self._n = 0

    def fresh_dir(self) -> Path:
        self._n += 1
        path = self.scratch / str(self._n)
        (path / "cwd").mkdir(parents=True)
        return path

    def env(self, cache: Path) -> dict:
        env = {k: v for k, v in os.environ.items()
               if k not in ("PYTHONPATH", "PYTHONHOME", "WEYL_CACHE")}
        env["PYTHONPATH"] = str(SRC)
        env["WEYL_CACHE"] = str(cache)
        return env

    def child(self, argv: list[str], where: Path, env: dict, name: str):
        """Run one process to completion; (exit code, stdout bytes, max RSS MB)."""
        timeout = max(5.0, RUN_LIMIT_S - (time.monotonic() - self.started))
        out_path, err_path = where / f"{name}.out", where / f"{name}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(argv, cwd=where / "cwd", env=env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        stderr = err_path.read_bytes().decode(errors="replace")
        return proc.returncode, out_path.read_bytes(), usage.ru_maxrss / 1024.0, stderr

    def probe(self, where: Path, env: dict) -> None:
        """Import weylinv from this checkout's src/, or refuse to measure."""
        code, out, _, err = self.child([sys.executable, "-c", PROBE], where, env, "probe")
        if code != 0:
            raise BenchError(f"cannot import weylinv from {SRC}:\n{err[-2000:]}")
        path, self.numpy = out.decode().split("\n")
        if not Path(path).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"weylinv imported from {path}, not from {SRC}")


# -- passes --------------------------------------------------------------------


def worker_pass(run: Run, traced: bool, run_id: str, setup_only: bool = False) -> dict:
    where = run.fresh_dir()
    env = run.env(where / "cache")
    result_path = where / "result.json"
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", run.workload,
            "--seed", str(run.seed), "--trace", str(int(traced)),
            "--run-id", run_id, "--out", str(result_path)]
    if setup_only:
        argv.append("--setup-only")
    t0 = time.monotonic()
    code, _, rss, err = run.child(argv, where, env, "worker")
    if code != 0 or not result_path.exists():
        raise BenchError(f"{run.workload} pass {run_id} exited {code}:\n{err[-2000:]}")
    res = json.loads(result_path.read_text())
    if not Path(res["weylinv_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"worker imported weylinv from {res['weylinv_file']}")
    shutil.rmtree(where)
    out = {"setup_s": res["ready"] - t0, "rss_mb": rss}
    if setup_only:
        return out
    out.update(wall_s=res["timed_end"] - res["timed_start"], jobs=res["jobs"],
               counts=res["counts"], spans=res["spans"],
               window=[res["timed_start"], res["timed_end"]])
    return out


def session_commands(expr: inputs.Expression) -> list[tuple[str, str, list[str]]]:
    """(job key, span name, weylinv arguments) in session order."""
    return [
        ("involutions E7", "cli.involutions_cold", ["involutions", "E7"]),
        ("cubes E7", "cli.cubes_warm", ["cubes", "E7"]),
        ("basis E7", "cli.basis_warm", ["basis", "E7"]),
        ("pair E7", "cli.pair", ["pair", "E7", "--expr", expr.text]),
        ("gap E7", "cli.gap", ["gap", "E7"]),
        ("reduce E7", "cli.reduce", ["reduce", "E7"]),
        ("order A22", "cli.order", ["order", "A22"]),
        ("order D16", "cli.order", ["order", "D16"]),
        ("verify --fast", "cli.verify_fast", ["verify", "--fast"]),
    ]


def session_pass(run: Run, traced: bool, run_id: str, setup_only: bool = False) -> dict:
    where = run.fresh_dir()
    cache = where / "cache"
    env = run.env(cache)
    tracer = Tracer(traced, run_id)
    t0 = time.monotonic()
    with tracer.span("cli.import"):
        run.probe(where, env)
    out = {"setup_s": time.monotonic() - t0}
    if setup_only:
        shutil.rmtree(where)
        return out
    expr = inputs.expressions(run.seed, "E7", 7, 1)[0]
    done, rss, stdout_bytes = [], 0.0, 0
    start = time.perf_counter()
    for key, span, args in session_commands(expr):
        with tracer.span(span):
            code, stdout, peak, err = run.child(
                [sys.executable, "-m", "weylinv.cli", *args], where, env, "cmd")
        rss = max(rss, peak)
        stdout_bytes += len(stdout)
        done.append((key, code, stdout, err))
    end = time.perf_counter()
    jobs = [{"name": key, "digest": checks.stdout_digest(stdout),
             "problems": _session_problems(key, code, stdout, err, expr.degree)}
            for key, code, stdout, err in done]
    cache_bytes = sum(f.stat().st_size for f in cache.rglob("*") if f.is_file())
    shutil.rmtree(where)
    out.update(wall_s=end - start, rss_mb=rss, jobs=jobs, spans=tracer.to_json(),
               window=[start, end],
               counts={"cli.stdout_bytes": stdout_bytes, "cli.cache_bytes": cache_bytes})
    return out


def _session_problems(key, code, stdout, stderr, expr_degree) -> list[str]:
    if code != 0:
        return [f"exit {code}: {stderr[-500:]}"]
    text = stdout.decode(errors="replace")
    try:
        if key == "pair E7":
            return checks.check_pair_output(text, [expr_degree])
        problems = checks.check_cli_output(key, text)
    except (ValueError, IndexError, KeyError) as exc:
        return [f"unparseable output: {exc!r}"]
    digest, want = checks.stdout_digest(stdout), checks.REFERENCE["stdout_sha256"][key]
    if digest != want:
        problems.append(f"stdout sha256 {digest} != reference {want}")
    return problems


PASSES = {"tables-e8": worker_pass, "characters": worker_pass,
          "cli-session": session_pass}


# -- a run ---------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(workload, seed)
    load_before = os.getloadavg()
    where = run.fresh_dir()
    run.probe(where, run.env(where / "cache"))  # compiles bytecode, checks isolation
    shutil.rmtree(where)
    do_pass = PASSES[workload]
    passes = []
    while True:
        traced = trace and len(passes) % 2 == 1
        run_id = f"{workload}/{seed}/{len(passes)}"
        passes.append(do_pass(run, traced, run_id) | {"traced": traced,
                                                       "load": os.getloadavg()})
        if (len(passes) >= (2 if trace else 1)
                and time.monotonic() - run.started >= seconds):
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(do_pass(run, False, f"{workload}/{seed}/setup{len(setups)}",
                              setup_only=True)["setup_s"])
    shutil.rmtree(run.scratch, ignore_errors=True)

    attempted, failed = tally(passes)
    plain = [p for p in passes if not p["traced"]]
    result = {
        "workload": workload, "seed": seed, "trace": trace,
        "attempted": attempted, "failed": failed,
        "end_to_end": {
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain),
        },
        "setup_samples": setups,
        "passes": passes,
        "load_before": load_before, "load_after": os.getloadavg(),
    }
    traced = [p for p in passes if p["traced"]]
    if traced:
        result["per_layer"] = layer_metrics(traced, result["end_to_end"]["wall_s"])
    result["record"] = str(write_record(run, result))
    return result


def tally(passes: list[dict]) -> tuple[int, int]:
    """(attempted, failed) jobs; a job also fails if its output differs between passes."""
    reference = {j["name"]: j["digest"] for j in passes[0]["jobs"]}
    for p in passes:
        for job in p["jobs"]:
            if job["digest"] != reference[job["name"]]:
                job["problems"].append("output differs from the first pass of this run")
    attempted = sum(len(p["jobs"]) for p in passes)
    failed = sum(1 for p in passes for j in p["jobs"] if j["problems"])
    return attempted, failed


def layer_metrics(traced: list[dict], untraced_wall: float) -> dict:
    """Median over traced passes of each per_layer metric in BENCHMARK.json."""
    names = [m["name"] for m in BENCHMARK["per_layer"]]
    span_names = {n[:-2] for n in names if n.endswith("_s") and not n.startswith("trace.")}
    per_pass = []
    for p in traced:
        spans = spans_from_json(p["spans"])
        self_s = self_time_by_name(spans)
        values = {}
        for name in names:
            if name == "trace.coverage":
                values[name] = 100.0 * coverage(spans, span_names, *p["window"])
            elif name == "trace.overhead_s":
                values[name] = p["wall_s"] - untraced_wall
            elif name.endswith("_s"):
                values[name] = self_s.get(name[:-2], 0.0)
            else:
                values[name] = p["counts"].get(name, 0)
        per_pass.append(values)
    return {n: statistics.median(v[n] for v in per_pass) for n in names}


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown (no git)"
    return proc.stdout.strip() or "unknown"


def write_record(run: Run, result: dict) -> Path:
    """Everything about one run, spans included, for later inspection."""
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    record = {
        "commit": _commit(), "src_sha256": digest.hexdigest(),
        "src_lines": lines,  # information only, not a metric
        "python": platform.python_version(), "numpy": run.numpy,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        **result,
    }
    path = OUT / "records" / (time.strftime("%Y%m%dT%H%M%S") +
                              f"-{run.workload}-s{run.seed}-t{int(result['trace'])}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1))
    return path


# -- entry points ----------------------------------------------------------------


def contract_line(result: dict, trace: bool) -> dict:
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    values = result["per_layer"] if trace else result["end_to_end"]
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}


def report_problems(result: dict) -> None:
    for p in result["passes"]:
        for job in p["jobs"]:
            for problem in job["problems"]:
                print(f"FAIL {result['workload']} {job['name']}: {problem}", file=sys.stderr)


def run_all(seed: int, seconds: float) -> int:
    header = ["workload", "wall_s (s)", "setup_s (s)", "peak_rss_mb (MB)",
              "fail_frac (ratio)", "trace.overhead_s (s)", "trace.coverage (%)"]
    rows, failures = [], 0
    for workload in WORKLOADS:
        plain = measure(workload, seed, seconds, trace=False)
        traced = measure(workload, seed, seconds, trace=True)
        for r in (plain, traced):
            report_problems(r)
        e2e, layers = plain["end_to_end"], traced["per_layer"]
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        failures += failed
        rows.append([workload, f"{e2e['wall_s']:.3f}", f"{e2e['setup_s']:.3f}",
                     f"{e2e['peak_rss_mb']:.1f}", f"{failed / attempted:.3f}",
                     f"{layers['trace.overhead_s']:+.3f}",
                     f"{layers['trace.coverage']:.1f}"])
        print(f"{workload}: per-layer " + ", ".join(
            f"{k}={v:.4g}" for k, v in layers.items() if v), file=sys.stderr)
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return 0 if failures == 0 else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.all and args.workload is None:
        parser.error("give --workload or --all")
    try:
        if args.all:
            return run_all(args.seed, args.seconds)
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report_problems(result)
    print(f"record: {result['record']}", file=sys.stderr)
    print(json.dumps(contract_line(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
