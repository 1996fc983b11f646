"""Benchmark of the autopatch pipeline, run offline in one process.

    python3 perfbench/run.py --workload record --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; it needs `src/autopatch` beside this
directory and `g++` on PATH, and exits 2 without a result otherwise. The
last line of standard output is the result:
`{"correct", "attempted", "failed", "metrics"}`, with the end-to-end metrics
under `--trace 0` and the per-layer metrics under `--trace 1`. The line
before it is the run record: environment, seed, per-stage rates, the
determinism digest and any absent trace layers. See README.md here.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK_DIR = ROOT / ".bench_work"  # scratch space, removed when the run ends
TRACE_DIR = ROOT / ".bench_out"  # span dumps of traced runs
MIN_BATCHES = 3
DEADLINE_S = 140.0  # stop adding batches past this, whatever --seconds says


def _write_launcher(work: Path) -> Path:
    """An executable that runs the stub analyzer on this interpreter
    directly (`-I -S`, no shim, no site import): about 15 ms a spawn."""
    launcher = work / "stub-analyzer"
    launcher.write_text(
        f"#!{sys.executable} -IS\n"
        "import sys\n"
        f"sys.path.insert(0, {str(BENCH)!r})\n"
        "from stub_analyzer import main\n"
        "sys.exit(main(sys.argv[1:]))\n",
        encoding="utf-8",
    )
    launcher.chmod(0o755)
    return launcher


def _prepare_environment(work: Path) -> None:
    """No inherited AUTOPATCH_* setting survives, so a run never goes online
    and always uses the default toolchain; the analyzer is the stub and
    temporary files stay inside the work directory."""
    for name in [n for n in os.environ if n.startswith("AUTOPATCH_")]:
        del os.environ[name]
    shutil.rmtree(work, ignore_errors=True)  # left behind by a killed run
    tmp = work / "tmp"
    tmp.mkdir(parents=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ["AUTOPATCH_ANALYZER_PATH"] = str(_write_launcher(work))


def _environment(seed: int) -> dict:
    import numpy

    gxx = subprocess.run(["g++", "--version"], capture_output=True, text=True, timeout=60)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gxx": gxx.stdout.splitlines()[0] if gxx.stdout else "",
        "seed": seed,
    }


def _set_up_in_child(workload, setup_dir: Path) -> float:
    """Run `workload.setup` in a forked child and take over the attributes
    it set, which are file paths, ids and small records. The set-up's memory
    never counts in this process's `ru_maxrss`, which so covers only the
    timed batches. Returns the set-up's own time, measured in the child.

    The parent's objects are collected and frozen first. Every child then
    starts from the same collector state, and its collections never walk,
    and so never copy, the pages it shares with the parent."""
    state = setup_dir / "state.pickle"
    sys.stdout.flush()
    sys.stderr.flush()
    gc.collect()
    gc.freeze()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            begin = time.perf_counter()
            workload.setup(setup_dir)
            elapsed = time.perf_counter() - begin
            state.write_bytes(pickle.dumps((elapsed, vars(workload))))
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    gc.unfreeze()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"{workload.name} set-up failed (status {status})")
    elapsed, attributes = pickle.loads(state.read_bytes())
    vars(workload).update(attributes)
    return elapsed


def _measure(workload, seconds: float, trace: bool, work: Path, started: float) -> dict:
    from layertrace import Tracer, per_layer_names
    from workloads import MASKED, CheckFailed

    setup_s: list[float] = []

    def set_up() -> None:
        """One timed set-up; it builds the same inputs as the one before it
        and replaces it."""
        setup_dir = work / f"setup{len(setup_s)}"
        setup_dir.mkdir()
        setup_s.append(_set_up_in_child(workload, setup_dir))
        shutil.rmtree(work / f"setup{len(setup_s) - 2}", ignore_errors=True)

    # The set-ups are shared out before the first MIN_BATCHES batches, so
    # that their median, like the batches', samples the whole run and not
    # the few seconds at its start.
    setups_per_batch = -(-workload.setup_repeats // MIN_BATCHES)
    tracer = Tracer() if trace else None
    walls: dict[bool, list[float]] = {False: [], True: []}
    stages: dict[str, list[float]] = {}
    digests, failed_per_batch, out = set(), set(), None
    while True:
        for _ in range(setups_per_batch):
            if len(setup_s) < workload.setup_repeats:
                set_up()
        traced = trace and len(walls[False]) > len(walls[True])
        if out is not None:
            shutil.rmtree(out)
        out = work / f"batch{sum(map(len, walls.values()))}"
        out.mkdir()
        if traced:
            tracer.install()
        try:
            begin = time.perf_counter()
            rates = workload.batch(out)
            walls[traced].append(time.perf_counter() - begin)
        finally:
            if traced:
                tracer.uninstall()
        for name, value in rates.items():
            stages.setdefault(name, []).append(value)
        failed_per_batch.add(workload.check(out))
        digests.add(workload.digest(out).hexdigest())
        if len(digests) != 1:
            raise CheckFailed("batches of one seed produced different artifacts")

        measured = sum(map(sum, walls.values()))
        enough = (walls[False] and walls[True]) if trace else len(walls[False]) >= MIN_BATCHES
        if enough and (measured >= seconds or time.perf_counter() - started >= DEADLINE_S):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setup_s) < workload.setup_repeats:  # a traced run can end early
        set_up()
    workload.final_check(out)

    (failed,) = failed_per_batch
    batches = len(walls[False]) + len(walls[True])
    record = {
        "workload": workload.name,
        "items_per_batch": workload.items,
        "item_base": workload.item_base,
        "batches": {"untraced": len(walls[False]), "traced": len(walls[True])},
        "wall_s": {"untraced": walls[False], "traced": walls[True]},
        "setup_s": setup_s,
        "stage_rates": {name: statistics.median(values) for name, values in stages.items()},
        "planted_failures_per_batch": failed,
        "digest_sha256": digests.pop(),
        "digest_excludes": "cassette.json (timestamps), report.txt and report timing fields",
        "digest_masks": MASKED,
    }
    if trace:
        metrics = tracer.layer_metrics(len(walls[True]))
        metrics.update(workload.gauges(out))
        lookups = [span[7] for span in tracer.spans if span[0] == "prompting.Cassette.lookup"]
        metrics["prompting.replay_hit_ratio"] = (
            lookups.count(False) / len(lookups) if lookups else 0.0
        )
        metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
        for layer in workload.idle_layers:
            if metrics.get(f"{layer}.calls", 0):
                raise CheckFailed(f"{layer} was called {metrics[f'{layer}.calls']} times per batch")
        units = dict(per_layer_names())
        record["absent_layers"] = tracer.absent
        trace_file = TRACE_DIR / f"trace-{workload.name}-seed{workload.seed}.jsonl"
        tracer.write(trace_file)
        record["trace_file"] = str(trace_file)
    else:
        wall_s = statistics.median(walls[False])
        metrics = {
            "setup_s": statistics.median(setup_s),
            "wall_s": wall_s,
            "items_per_s": workload.items / wall_s,
            "failed_frac": failed / workload.items,
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s",
                 "failed_frac": "ratio", "peak_rss_mb": "MB"}
    return {
        "record": record,
        "attempted": batches * workload.items,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (ROOT / "src" / "autopatch" / "__init__.py").is_file():
        print(f"error: no autopatch sources at {ROOT / 'src'}", file=sys.stderr)
        return 2
    if shutil.which("g++") is None:
        print("error: g++ not on PATH", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, CheckFailed

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (choose from {', '.join(WORKLOADS)})",
              file=sys.stderr)
        return 2

    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    try:
        _prepare_environment(work)
        environment = _environment(args.seed)
        result = _measure(WORKLOADS[args.workload](args.seed), args.seconds, bool(args.trace),
                          work, started)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"run_record": {**result["record"], "environment": environment}}))
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": 0,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
