"""phik benchmark: run a workload's phik commands as a user runs them, check every output.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from a checkout of the repository; the benchmark runs the phik sources
under src/ with `python -m phik.cli`, one fresh process per command, one
command at a time (a closed loop with one client).  With --trace 0 it
repeats the workload's command list until S seconds are used and reports
the end-to-end metrics named in BENCHMARK.json, with times divided by the
host's slowdown sampled between the commands (see `host_slowdown`).  With
--trace 1 it alternates untraced passes with traced passes (each command in
a fresh interpreter under perfbench/traced.py) and reports the per-layer
metrics.  The last stdout line is the JSON result; run records and spans are
written under perfbench/out/.  --smoke runs every workload once at tiny
sizes, traced and untraced, and exits 1 if any output check fails.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = Path("perfbench/out")  # relative to ROOT, which is the working directory
MIN_PASSES = 3
SETUP_REPEATS = 3  # setup samples per pass
IMPORT_REPEATS = 3
COMMAND_TIMEOUT_S = 150
SETUP_CHECK = workloads.check_value(24)  # phi_2(15) = phi_2(3) phi_2(5) = 2 * 12
# The reference loop of host_slowdown and its time in the fast state of a
# shared 2-vCPU Intel Xeon host (Python 3.11).
REFERENCE_ITERATIONS = 100_000
REFERENCE_S = 0.008
REFERENCE_REPEATS = 15


def _environment() -> dict:
    env = {key: value for key, value in os.environ.items() if key != "PHIK_WORKERS"}
    env["PYTHONPATH"] = "src"
    return env


ENV = _environment()


@dataclass
class Outcome:
    wall: float
    cpu: float
    rss_mb: float
    exit: int
    stdout: str
    stderr: str


def spawn(argv: list[str], timeout: float = COMMAND_TIMEOUT_S) -> Outcome:
    """Run one process; time it and read its rusage (pool workers included) with wait4."""
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=ENV, start_new_session=True)
        timer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Outcome(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                       proc.returncode, out.read().decode(errors="replace"),
                       err.read().decode(errors="replace"))


def _reference_loop() -> int:
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += (i * i) % 7
    return total


def host_slowdown() -> float:
    """How much slower than REFERENCE_S a fixed pure-Python loop runs now (mean of repeats).

    Other tenants of a shared host slow every process by up to 1.5x.  The
    slow and fast states alternate within a second, and the share of slow
    time drifts over minutes.  Sampled between the commands of a run, the
    mean slowdown estimates that share for the run.
    """
    start = time.perf_counter()
    for _ in range(REFERENCE_REPEATS):
        _reference_loop()
    return (time.perf_counter() - start) / REFERENCE_REPEATS / REFERENCE_S


def phik_argv(argv) -> list[str]:
    return [sys.executable, "-m", "phik.cli", *argv]


@dataclass
class Tally:
    """Commands attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def judge(self, argv, exit_code, stdout: str, check, agreed: dict | None = None, agree=None) -> None:
        self.attempted += 1
        reason = check(stdout) if exit_code == 0 else f"exit code {exit_code!r}, expected 0"
        if reason is None and agree is not None:
            value = json.loads(stdout)["value"]
            if agreed.setdefault(agree, value) != value:
                reason = f"value {value} disagrees with {agreed[agree]} from another run at the same input"
        if reason is not None:
            self.failures.append({"argv": list(argv), "reason": reason})
            print(f"FAILED phik {' '.join(argv)}: {reason}", file=sys.stderr)


def untraced_pass(workload: workloads.Workload, tally: Tally) -> dict:
    """SETUP_REPEATS setup samples, then each command once: wall, CPU and peak RSS per command.

    The host's slowdown is sampled before the setup samples, before every
    command and after the last.
    """
    slowdown = [host_slowdown()]
    setups = [spawn(phik_argv(workloads.SETUP_ARGV)) for _ in range(SETUP_REPEATS)]
    runs = []
    for cmd in workload.commands:
        slowdown.append(host_slowdown())
        runs.append(spawn(phik_argv(cmd.argv)))
    slowdown.append(host_slowdown())
    for setup in setups:
        tally.judge(workloads.SETUP_ARGV, setup.exit, setup.stdout, SETUP_CHECK)
    agreed: dict = {}
    for cmd, o in zip(workload.commands, runs):
        tally.judge(cmd.argv, o.exit, o.stdout, cmd.check, agreed, cmd.agree)
    return {"wall": [o.wall for o in runs], "cpu": [o.cpu for o in runs],
            "rss_mb": [o.rss_mb for o in runs], "setup": [o.wall for o in setups], "slowdown": slowdown}


def end_to_end(passes: list[dict]) -> dict:
    """Metric values of a run, times divided by the run's mean host slowdown.

    wall_s and cpu_s sum each command's mean time over the passes; setup_s
    is the median setup sample; peak_rss_mb the largest per-command median.
    The result estimates the times on a host running at reference speed, so
    runs made while other tenants are busier or quieter stay comparable.
    """
    def per_command(key):
        return list(zip(*(p[key] for p in passes)))

    slowdown = statistics.mean(s for p in passes for s in p["slowdown"])
    return {
        "wall_s": sum(statistics.mean(ts) for ts in per_command("wall")) / slowdown,
        "cpu_s": sum(statistics.mean(ts) for ts in per_command("cpu")) / slowdown,
        "peak_rss_mb": max(statistics.median(rs) for rs in per_command("rss_mb")),
        "setup_s": statistics.median(t for p in passes for t in p["setup"]) / slowdown,
        "slowdown": slowdown,
    }


def traced_run(argv, calls, tag: str) -> dict | None:
    """One fresh interpreter under traced.py; None if it did not finish."""
    spec, result = OUT / f"spec-{tag}.json", OUT / f"result-{tag}.json"
    spec.write_text(json.dumps({"argv": list(argv) if argv else None, "calls": calls}))
    o = spawn([sys.executable, "perfbench/traced.py", str(spec), str(result)])
    if o.exit != 0:
        print(f"traced run failed ({o.exit}): {o.stderr[-2000:]}", file=sys.stderr)
        return None
    data = json.loads(result.read_text())
    spec.unlink()
    result.unlink()
    return data


def import_seconds() -> float:
    code = "import time; t = time.perf_counter(); import phik.cli; print(time.perf_counter() - t)"
    return statistics.median(float(spawn([sys.executable, "-c", code]).stdout)
                             for _ in range(IMPORT_REPEATS))


def traced_pass(workload: workloads.Workload, tally: Tally) -> tuple[dict, list, list]:
    """Per-layer metrics of one traced pass, each command's in-process time, and the raw results."""
    results, in_process, agreed = [], [], {}
    for i, cmd in enumerate(workload.commands):
        data = traced_run(cmd.argv, [], f"{workload.name}-{i}")
        if data is None:
            tally.judge(cmd.argv, None, "", cmd.check)
            in_process.append(None)
            continue
        tally.judge(cmd.argv, data["exit"], data["stdout"], cmd.check, agreed, cmd.agree)
        data["argv"] = list(cmd.argv)
        results.append(data)
        in_process.append(sum(s[3] - s[2] for s in data["spans"] if s[0] == "cli.main"))
    if workload.extras:
        data = traced_run(None, workload.extras, f"{workload.name}-extras")
        if data is not None:
            results.append(data)
    values = layers.compute(results)
    missing = [name for name, value in values.items() if value is None]
    if missing:
        data = traced_run(None, workloads.probe_calls(workload.seed), f"{workload.name}-probe")
        if data is not None:
            data["probe_for"] = missing
            results.append(data)
            probed = layers.compute([data])
            values.update({name: probed[name] for name in missing})
    values["cli.import_s"] = import_seconds()
    return values, in_process, results


def machine_facts() -> dict:
    def read(path):
        try:
            return Path(path).read_text()
        except OSError:
            return ""

    model = next((line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "loadavg_start": read("/proc/loadavg").strip(),
        "platform": platform.platform(),
    }


def load_spec() -> dict:
    with open("BENCHMARK.json") as fh:
        return json.load(fh)


def measure(workload: workloads.Workload, seconds: float, trace: bool, tally: Tally,
            min_passes: int = MIN_PASSES) -> tuple[dict, dict]:
    """Metric values for one run, and a record of what was measured."""
    start = time.perf_counter()
    if not trace:
        passes = []
        while len(passes) < min_passes or (
            time.perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds:
            passes.append(untraced_pass(workload, tally))
        values = end_to_end(passes)
        return values, {"passes": passes, "slowdown": values["slowdown"]}
    # untraced and traced passes alternate, so both see the same host phases
    untraced, passes = [], []
    while not passes or (time.perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds:
        untraced.append(untraced_pass(workload, tally))
        passes.append(traced_pass(workload, tally))
    values = {name: statistics.median(p[0][name] for p in passes) for name in passes[0][0]}
    baseline = end_to_end(untraced)
    untraced_work = baseline["wall_s"] - len(workload.commands) * baseline["setup_s"]
    traced_work = sum(statistics.mean([t for t in ts if t is not None] or [0.0])
                      for ts in zip(*(p[1] for p in passes))) / baseline["slowdown"]
    values["trace.overhead_ratio"] = traced_work / untraced_work
    return values, {"untraced_passes": untraced, "passes": [
        {"metrics": p[0], "in_process_s": p[1], "interpreters": p[2]} for p in passes]}


def report(values: dict, wanted: list[dict], tally: Tally) -> dict:
    metrics = {}
    for spec in wanted:
        value = values.get(spec["name"])
        if value is None:
            raise RuntimeError(f"metric {spec['name']} was not measured")
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{spec['name']} = {value:.6g} {spec['unit']}")
    print(f"failed_ops = {len(tally.failures)}/{tally.attempted}")
    return {"correct": not tally.failures, "attempted": tally.attempted,
            "failed": len(tally.failures), "metrics": metrics}


def smoke(facts: dict) -> int:
    """Every workload at tiny sizes, untraced and traced; 1 if any check fails."""
    spec = load_spec()
    status = 0
    for name in workloads.WORKLOADS:
        workload = workloads.build(name, 1, OUT, smoke=True)
        for trace, wanted in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            tally = Tally()
            values, _ = measure(workload, 0, trace, tally, min_passes=1)
            print(f"== {name} trace={int(trace)}")
            result = report(values, wanted, tally)
            if not result["correct"]:
                status = 1
    print(json.dumps({"smoke": "ok" if status == 0 else "failed", "machine": facts}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "phik" / "cli.py").is_file():
        print(f"error: no phik sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    OUT.mkdir(parents=True, exist_ok=True)
    facts = machine_facts()
    print("machine: " + json.dumps(facts))
    if args.smoke:
        return smoke(facts)
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    workload = workloads.build(args.workload, args.seed, OUT)
    tally = Tally()
    values, record = measure(workload, args.seconds, bool(args.trace), tally)
    wanted = load_spec()["per_layer" if args.trace else "end_to_end"]
    result = report(values, wanted, tally)
    if "slowdown" in values:
        print(f"host slowdown = {values['slowdown']:.4f} (times above are divided by it)")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record.update(machine=facts, args=vars(args), failures=tally.failures, result=result,
                  commands=[list(c.argv) for c in workload.commands])
    (OUT / f"run-{stem}.json").write_text(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
