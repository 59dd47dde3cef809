"""mclcheck benchmark: drive seeded workloads through `mclcheck.cli.main`.

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  One process, one thread: set-up, then
the robustness probes once, then full passes over the workload's commands
one after another (a closed loop with a single client) until `--seconds`
have elapsed, each pass after one more set-up round.  Every command is
invoked exactly as a user would, with its output captured, and is judged
against the workload's known answer once its clock has stopped.

`--trace 0` prints the end-to-end metrics.  `--trace 1` alternates untraced
and traced passes, prints the per-layer metrics from the traced ones, and
compares every command's output across passes byte for byte.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  See bench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_ROUNDS = 5   # before the probes; one more precedes each pass
MIN_PASSES = 3     # so that even a short run times each command three times

def _fresh_import():
    """Import mclcheck as a new process would, dropping any earlier copy."""
    for name in [m for m in sys.modules
                 if m == "mclcheck" or m.startswith("mclcheck.")]:
        del sys.modules[name]
    return importlib.import_module("mclcheck.cli")


class Setup:
    """Set-up as a new process pays it: a fresh import of mclcheck, then
    generating and writing the workload's inputs.  Each call is one round,
    and rounds recur between passes, so that their median is sampled over
    the whole run.  Commands keep the first round's files, so that outputs
    stay comparable across passes."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.seed, self.work = name, seed, work
        self.seconds: list[float] = []
        self.workload = None

    def __call__(self):
        gc.collect()   # a new process starts without the last round's garbage
        start = perf_counter()
        cli = _fresh_import()
        # each round writes new files: truncating a file written moments
        # ago can wait for its blocks to reach the disk
        inputs = self.work / f"round{len(self.seconds)}"
        inputs.mkdir()
        workload = workloads.build(self.name, self.seed, ROOT, inputs)
        self.seconds.append(perf_counter() - start)
        self.workload = self.workload or workload
        return cli


def invoke(cli, command: workloads.Command):
    """Run one command through `cli.main`; returns (result, seconds)."""
    if command.emit is not None and command.emit.exists():
        command.emit.unlink()
    out, err = io.StringIO(), io.StringIO()
    raised = None
    start = perf_counter()
    try:
        code = cli.main(list(command.argv), out=out, err=err)
    except Exception as exc:  # a crash is a counted failure, not the end
        code, raised = None, f"{type(exc).__name__}: {str(exc)[:200]}"
    seconds = perf_counter() - start
    emitted = command.emit.read_text() \
        if command.emit is not None and command.emit.exists() else None
    return workloads.Result(command, code, out.getvalue(), err.getvalue(),
                            emitted, raised), seconds


def _digest(r: workloads.Result) -> str:
    h = hashlib.sha256(repr((r.exit_code, r.raised)).encode())
    h.update(r.stdout.encode())
    h.update((r.emitted or "").encode())
    return h.hexdigest()


def one_pass(cli, workload, tracer=None, digests=None):
    """All of the workload's commands once, each judged as soon as its clock
    stops, so that no output outlives its command.  Returns the outcomes
    and the per-command seconds."""
    outcomes, times = [], []
    for command in workload.commands:
        if tracer is not None:
            tracer.command = command
        result, seconds = invoke(cli, command)
        times.append(seconds)
        outcomes.append(workload.judge(result))
        if digests is not None:
            digests.append(_digest(result))
    return outcomes, times


def measure(setup: Setup, seconds: float, trace: bool,
            tally: workloads.Tally):
    """Timed passes, each after a set-up round, as lists of per-command
    seconds; outcomes go into `tally`.  With `trace`, untraced and traced
    passes alternate, and every pass's outputs must be byte-identical to
    the first pass's."""
    workload = setup.workload
    untraced, traced, traced_spans = [], [], []
    first = None
    tracer = spans.Tracer()
    start = perf_counter()
    while perf_counter() - start < seconds or (
            not untraced or len(traced) < 2 if trace
            else len(untraced) < MIN_PASSES):
        cli = setup()
        digests = [] if trace else None
        if trace and len(traced) < len(untraced):
            with tracer.attached():
                outcomes, times = one_pass(cli, workload, tracer, digests)
            traced_spans.append(tracer.take())
            traced.append(times)
        else:
            outcomes, times = one_pass(cli, workload, digests=digests)
            untraced.append(times)
        tally.add(outcomes)
        if trace:
            first = first or digests
            for command, a, b in zip(workload.commands, first, digests):
                tally.record((command.input, f"{command.role} repeat"),
                             None if a == b else f"{command.input}"
                             f" {command.role}: output differs between"
                             " passes")
    return untraced, traced, traced_spans


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(setup_s, tally, untraced) -> dict[str, float]:
    """Timings are best of the run's untraced passes: a shared host only
    ever adds time, in bursts that outlast several passes, so a median over
    one run follows the host and the best follows the program.  The verdict
    percentiles are taken over the workload's commands, each timed by its
    best pass; a percentile of one pass would jump between commands of
    unlike cost."""
    per_command = [min(t) * 1e3 for t in zip(*untraced)]
    return {
        "setup_s": setup_s,
        "pass_s": min(sum(p) for p in untraced),
        "verdict_ms_p50": statistics.median(per_command),
        "verdict_ms_p90": _p90(per_command),
        "ok_share": 1 - tally.failed / tally.attempted,
        "decided_share": tally.decided / tally.verdicts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }


def per_layer(tally, untraced, traced, traced_spans) -> dict[str, float]:
    from mclcheck.frontend.lexer import tokenize
    values = spans.layer_metrics(
        traced_spans, functools.cache(lambda source: len(tokenize(source))))
    plain = statistics.median(sum(p) for p in untraced)
    values["trace.overhead_share"] = \
        statistics.median(sum(p) for p in traced) / plain - 1
    values["failed_share"] = tally.failed / tally.attempted
    return values


def run(args, work: Path, spec: dict) -> dict:
    """One benchmark run; `spec` is BENCHMARK.json, which names the metrics
    to print and their units."""
    setup = Setup(args.workload, args.seed, work)
    for _ in range(SETUP_ROUNDS):
        cli = setup()
    workload = setup.workload
    tally = workloads.Tally()
    for probe in workload.probes:
        result, _ = invoke(cli, probe)
        if result.raised:
            print(f"probe {probe.input} raised {result.raised}",
                  file=sys.stderr)
        tally.add([workloads.judge_probe(result)])

    untraced, traced, traced_spans = measure(
        setup, args.seconds, args.trace == 1, tally)
    for line in tally.unexpected:
        print(f"unexpected: {line}", file=sys.stderr)

    n = len(workload.commands)
    print(f"{args.workload}: {len(untraced)} untraced and {len(traced)}"
          f" traced passes of {n} commands; verdict_ms_p50/p90 are"
          f" percentiles over the {n} commands of each one's best time over"
          f" the untraced passes; {tally.failed} of {tally.attempted} cases"
          f" (commands, probes, catches) failed in some pass")
    if args.trace:
        values = per_layer(tally, untraced, traced, traced_spans)
        listed = spec["per_layer"]
    else:
        values = end_to_end(statistics.median(setup.seconds), tally,
                            untraced)
        listed = spec["end_to_end"]
    return {
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [d for d in ("src/mclcheck", "corpus")
               if not (ROOT / d).is_dir()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT};"
              " run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    work = ROOT / ".bench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        doc = run(args, work, spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
