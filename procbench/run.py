"""procrec benchmark: run one workload of the procrec CLI and print its metrics.

    python3 procbench/run.py --workload paper --seed 1 --seconds 45 --trace 0

Run from the root of a procrec checkout; procrec is imported from its ``src``.
Inputs are generated from ``--seed`` and cached under ``.procbench_cache/``.
Each command runs in a fresh interpreter (``worker.py``) and its outputs are
checked against ``oracle.py``. Commands repeat for ``--seconds``.
With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` each round runs the command untraced and traced, and the last
line holds the per-layer metrics of the traced commands.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402

CACHE = ".procbench_cache"
SETUP_PROBES_FIRST = 2  # and one after every round
SETUP_SAMPLES_MIN = 15
RUN_BUDGET_S = 170.0  # every run must end within 180 s
ACCOUNTING_TOL_S = 1e-6


@dataclass(frozen=True)
class Workload:
    """``procrec predict --scheme five --kmin 1`` over every instrument of the inputs."""

    inputs: gen.InputSpec
    k_max: int
    runs: int
    jobs: int
    dump_tables: bool

    def argv(self, inputs: dict[str, Path], seed: int) -> list[str]:
        argv = ["predict", "--scheme", "five", "--kmin", "1", "--kmax", str(self.k_max),
                "--runs", str(self.runs), "--seed", str(seed), "--jobs", str(self.jobs)]
        for label, path in inputs.items():
            argv += ["--input", f"{label}={path}"]
        return argv + (["--dump-tables"] if self.dump_tables else [])

    def expect(self, prices: dict) -> dict:
        return {
            label: oracle.predict_expectation(p, self.k_max, self.runs, self.dump_tables)
            for label, p in prices.items()
        }

    def check(self, out: Path, expected: dict) -> list[str]:
        errs = []
        for label, exp in expected.items():
            errs += oracle.check_report(out, label, exp, self.k_max)
            if self.dump_tables:
                errs += oracle.check_tables(out, label, exp, self.k_max)
        return errs


WORKLOADS = {
    # the paper's experiment: three instruments, k 1..8, 50 runs, two threads
    "paper": Workload(
        gen.InputSpec(1, (gen.Instrument("btcx", 6307, 20000.0), gen.Instrument("ethx", 6307, 1500.0),
                          gen.Instrument("xrpx", 6307, 0.5)), "iso"),
        k_max=8, runs=50, jobs=2, dump_tables=True,
    ),
    # stress scale: back-off resolution and table size dominate
    "long_history": Workload(
        gen.InputSpec(2, (gen.Instrument("long", 1_000_001, 20000.0),), "epoch"),
        k_max=8, runs=5, jobs=1, dump_tables=False,
    ),
}


def worker(src: Path, result: Path, mode: str, extra: list[str], timeout: float) -> tuple[dict | None, str]:
    """Run worker.py once; (its result, or None on failure; a reason)."""
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), str(src), str(result), mode] + extra
    try:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=max(timeout, 1.0), text=True)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0 or not result.exists():
        return None, f"worker exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    doc = json.loads(result.read_text(encoding="utf-8"))
    if doc.get("exit_code", 0) != 0:
        return None, f"procrec exit {doc['exit_code']}: {proc.stderr.strip()[-500:]}"
    return doc, ""


def same_outputs(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    return names == sorted(p.name for p in b.iterdir()) and all(
        (a / n).read_bytes() == (b / n).read_bytes() for n in names
    )


class Run:
    """The rounds of one benchmark run and what they measured."""

    def __init__(self, wl: Workload, src: Path, work: Path, argv: list[str], expected: dict, t_start: float):
        self.wl, self.src, self.work, self.argv, self.expected = wl, src, work, argv, expected
        self.t_start = t_start
        self.attempted = self.failed = 0
        self.correct = True
        self.setups: list[float] = []
        self.plain: list[dict] = []  # worker results of untraced commands
        self.traced: list[tuple[dict, float]] = []  # (per-layer metrics, traced wall_s)

    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.perf_counter() - self.t_start)

    def probe_setup(self) -> None:
        doc, why = worker(self.src, self.work / "setup.json", "setup", [], self.remaining())
        if doc is None:
            raise RuntimeError(f"setup probe failed: {why}")
        self.setups.append(doc["setup_s"])

    def command(self, name: str, traced: bool) -> Path | None:
        """Run and check one command; its output directory, or None if it failed."""
        self.attempted += 1
        out = self.work / name
        out.mkdir()
        spans_path = self.work / f"{name}.spans.json"
        extra = (["--spans", str(spans_path)] if traced else []) + ["--"] + self.argv + ["--out", str(out)]
        doc, why = worker(self.src, self.work / f"{name}.result.json", "run", extra, self.remaining())
        errs = []
        if doc is not None:
            try:
                errs = self.wl.check(out, self.expected)
                if traced and not errs:
                    spans = json.loads(spans_path.read_text(encoding="utf-8"))
                    metrics, wall, accounted = tracing.layer_metrics(spans)
                    if abs(accounted - wall) > ACCOUNTING_TOL_S:
                        errs.append(f"self times sum to {accounted} s, traced wall_s is {wall} s")
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                errs.append(f"unreadable output: {exc!r}")
            if errs:
                self.correct = False
                why = "; ".join(errs[:5])
        if doc is None or errs:
            self.failed += 1
            print(f"{name}: FAILED: {why}", file=sys.stderr)
            return None
        if traced:
            self.traced.append((metrics, wall))
        else:
            self.plain.append(doc)
            self.setups.append(doc["setup_s"])
        print(f"{name}: wall {doc['wall_s']:.3f} s, peak rss {doc['peak_rss_mb']:.1f} MB", file=sys.stderr)
        return out

    def round(self, i: int, trace: bool) -> None:
        """Untraced command; with trace, also the traced one, in alternating order."""
        if not trace:
            out = self.command(f"r{i}u", traced=False)
            if out is not None:
                shutil.rmtree(out)
            return
        outs = {}
        for traced in (False, True) if i % 2 == 0 else (True, False):
            outs[traced] = self.command(f"r{i}{'t' if traced else 'u'}", traced)
        if outs[False] is not None and outs[True] is not None and not same_outputs(outs[False], outs[True]):
            print(f"r{i}t: FAILED: outputs differ from the untraced outputs", file=sys.stderr)
            self.correct = False
            self.failed += 1
            self.traced.pop()
        for out in outs.values():
            if out is not None:
                shutil.rmtree(out)


def measure(run: Run, seconds: float, trace: bool, n_returns: int) -> dict:
    """Repeat rounds within `seconds` (at least one); the metrics to print.

    A round starts only if a round of the median length so far would end
    within `seconds`, so a run never overshoots by a whole long round.
    """
    if not trace:
        for _ in range(SETUP_PROBES_FIRST):
            run.probe_setup()
    t_measure = time.perf_counter()
    lengths: list[float] = []
    while True:
        t_round = time.perf_counter()
        run.round(len(lengths), trace)
        if not trace:
            run.probe_setup()
        lengths.append(time.perf_counter() - t_round)
        expected = statistics.median(lengths)
        if (time.perf_counter() - t_measure + expected > seconds
                or run.remaining() < 1.5 * max(lengths)):
            break
    med = statistics.median
    if not run.plain or (trace and not run.traced):
        raise RuntimeError("no command succeeded, nothing to report")
    plain_wall = med(d["wall_s"] for d in run.plain)
    if trace:
        metrics = {m: {"value": med(t[0][m] for t in run.traced), "unit": unit(m)} for m in run.traced[0][0]}
        overhead = med(t[1] for t in run.traced) - plain_wall
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        return metrics
    while len(run.setups) < SETUP_SAMPLES_MIN:
        run.probe_setup()
    return {
        "setup_s": {"value": med(run.setups), "unit": "s"},
        "wall_s": {"value": plain_wall, "unit": "s"},
        "peak_rss_mb": {"value": med(d["peak_rss_mb"] for d in run.plain), "unit": "MB"},
        "returns_per_s": {"value": n_returns / plain_wall, "unit": "returns/s"},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    t_start = time.perf_counter()

    root = Path.cwd()
    src = root / "src"
    if not (src / "procrec" / "cli.py").is_file():
        print(f"error: no procrec sources under {src}; run from the root of a procrec checkout", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    cache = root / CACHE
    inputs, prices = gen.make_inputs(args.workload, wl.inputs, args.seed, cache / "inputs")
    expected = wl.expect(prices)
    n_returns = sum(len(p) - 1 for p in prices.values())
    argv = wl.argv({k: v.resolve() for k, v in inputs.items()}, args.seed)
    work = cache / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(wl, src, work, argv, expected, t_start)
    try:
        metrics = measure(run, args.seconds, bool(args.trace), n_returns)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": run.correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric == "ingest.rows_per_s":
        return "rows/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
