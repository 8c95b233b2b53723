"""Pipeline benchmark for acrocode.

One run generates a workload's inputs from --seed, then runs whole rounds of
the CLI pipeline (segment, expand, align, eval-expansion, train, score,
tune-threshold, eval-coding, perm-test) in this process through
`acrocode.cli.main`, one command after another, until --seconds have
passed. The first round's outputs are checked against the generator's ground
truth and reference computations made apart from acrocode; later rounds must
reproduce them byte for byte. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload common50 --seed 1 --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced rounds and reports per-layer self times and counts, plus the tracing
overhead; its spans go to .perfbench/traces/. --workload all runs each
workload in its own process, and --steadiness N runs each N times with seeds
--seed .. --seed + N - 1 and reports medians, quartiles and spreads against
the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "augment_tokens_per_s": "tokens/s",
    "train_examples_per_s": "examples/s",
    "score_notes_per_s": "notes/s",
    "eval_cells_per_s": "cells/s",
    "permtest_rounds_per_s": "rounds/s",
    "peak_rss_mb": "MB",
}
PHASE_METRICS = {
    "augment": "augment_tokens_per_s",
    "train": "train_examples_per_s",
    "score": "score_notes_per_s",
    "eval": "eval_cells_per_s",
    "perm": "permtest_rounds_per_s",
}


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import acrocode from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "acrocode" / "__init__.py").is_file():
        _fail(f"no program source at {src / 'acrocode'}; run from a full checkout")
    sys.path.insert(0, str(src))
    import acrocode
    from acrocode import align, cli, coding_eval, corpus, expand, expansion_eval
    from acrocode import prompts, segment, train

    if Path(acrocode.__file__).resolve().parent != (src / "acrocode").resolve():
        _fail(f"imported acrocode from {acrocode.__file__}, not from {src}")
    return {
        "align": align, "cli": cli, "coding_eval": coding_eval, "corpus": corpus,
        "expand": expand, "expansion_eval": expansion_eval, "prompts": prompts,
        "segment": segment, "train": train,
    }


# Setup.

def fill_cache(modules, corpus, files, workload, tracer) -> None:
    """Expand the augment notes in live mode against an in-process stub endpoint.

    The stub answers each chunk with the generator's own expansion, echoing
    the assistant prefix as real endpoints do. The expand command later
    replays the cache in cache-only mode with the same model name and
    request budget.
    """
    import benchgen
    from benchpipe import STUB_MODEL

    expand = modules["expand"]
    prefix = expand.USER_PROMPT_PREFIX

    def stub(url, payload, timeout):
        prompt = payload["messages"][1]["content"]
        if not prompt.startswith(prefix):
            raise ValueError("unexpected prompt")
        text = benchgen.expand_text(prompt[len(prefix):], corpus.dictionary)
        return {"choices": [{"message": {"content": expand.ASSISTANT_PREFIX + " " + text}}]}

    post = tracer.wrap(stub, "expand.endpoint_wait") if tracer else stub
    config = expand.ExpanderConfig(
        endpoint_url="stub://generator",
        model_name=STUB_MODEL,
        cache_dir=files["cache"],
        mode="live",
        request_token_budget=workload.cache_request_budget,
    )
    notes = modules["corpus"].load_notes(files["augment"])
    sections = {n.id: modules["segment"].segment(n.text) for n in notes}
    if tracer:
        tracer.begin("expand.cache_fill")
    try:
        expand.expand_notes(notes, sections, expand.Expander(config, post_fn=post))
    finally:
        if tracer:
            tracer.end()


def prepare(workload, seed: int, directory: Path):
    """Generate the workload's corpus and write the files the pipeline reads."""
    import benchgen

    corpus = benchgen.generate(workload.shape, seed, workload.tag)
    files = benchgen.write_inputs(corpus, directory, workload.augment_splits)
    if workload.cache_request_budget is not None:
        files["cache"] = directory / "cache"
        files["config"] = directory / "run.ini"
        files["config"].write_text(
            f"[expander]\nrequest_token_budget = {workload.cache_request_budget}\n",
            encoding="utf-8",
        )
    return corpus, files


# Rounds.

def run_round(pipeline, cli, round_index: int, max_rss_mb) -> dict:
    """Run every command once; time each, then check its outputs untimed."""
    ops = []
    for index, op in enumerate(pipeline.ops):
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(op.argv)
        except SystemExit as exc:  # argparse rejects a command line by exiting
            code = exc.code if isinstance(exc.code, int) else 1
        seconds = time.perf_counter() - start
        rss = max_rss_mb()
        ok, check_failed = code == 0, False
        if ok:
            try:
                pipeline.check(index, round_index)
            except Exception as exc:  # noqa: BLE001 - any check error fails the operation
                ok, check_failed = False, True
                print(f"perfbench: {op.command}: check failed: {exc}", file=sys.stderr)
        else:
            print(f"perfbench: {op.command} exited {code}: {sink.getvalue().strip()}",
                  file=sys.stderr)
        ops.append({"command": op.command, "phase": op.phase, "seconds": seconds,
                    "units": op.units, "ok": ok, "check_failed": check_failed, "rss_mb": rss})
    return {"ops": ops, "pipeline_s": sum(o["seconds"] for o in ops)}


def end_to_end(results: list[dict]) -> dict[str, float]:
    """End-to-end metrics of a run's untraced rounds.

    pipeline_s is the median round. A phase's throughput is all its work in
    the run over all its time, which averages the host's speed over the
    whole run rather than taking one round's.
    """
    metrics = {"pipeline_s": statistics.median(r["pipeline_s"] for r in results)}
    for phase, name in PHASE_METRICS.items():
        ops = [o for r in results for o in r["ops"] if o["phase"] == phase]
        metrics[name] = sum(o["units"] for o in ops) / sum(o["seconds"] for o in ops)
    return metrics


def time_setups(name: str, seed: int, work: Path) -> list[float]:
    """Set up SETUP_REPEATS times, each in a fresh process, and time each.

    A set-up runs from interpreter start through the imports, the corpus
    generation and the input files, to the process's exit. Imports are most
    of it, and one process's import time alone varies by a fifth from one
    process to the next.
    """
    times = []
    for i in range(SETUP_REPEATS):
        directory = work / f"setup{i}"
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-dir", str(directory)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            _fail(f"set-up exited {proc.returncode}: {proc.stderr.strip()}")
        shutil.rmtree(directory)
    return times


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    modules = load_program()
    import benchpipe
    from benchtrace import Tracer, max_rss_mb, per_layer_units

    workload = benchpipe.WORKLOADS[name]
    work = STATE / "work" / f"{name}-s{seed}-p{os.getpid()}"
    tracer = Tracer(name) if trace else None
    try:
        setup_times = [] if trace else time_setups(name, seed, work)
        corpus, files = prepare(workload, seed, work / "inputs")
        # The cache fill is timed apart from setup_s (expand.cache_fill_s, per
        # layer): it creates a file per chunk, and on a virtual disk it can
        # take 3-12 times longer for minutes after files were deleted, so its
        # time follows whatever ran before, not the program.
        if "cache" in files:
            if tracer:
                tracer.phase = "fill"
            fill_cache(modules, corpus, files, workload, tracer)
        pipeline = benchpipe.Pipeline(workload, corpus, files, work / "out", seed)
        # The harness's own objects (corpus, references) are frozen out of the
        # collector, so its passes inside timed commands do not walk them.
        gc.collect()
        gc.freeze()
        rounds = []  # (traced, result)
        min_rounds = 2 if trace else 1  # a traced run needs an untraced round to compare
        start = time.perf_counter()
        while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
            index = len(rounds)
            gc.collect()  # each round starts with no garbage from the last one
            traced = tracer is not None and index % 2 == 1
            if traced:
                tracer.phase = f"round{index}"
                tracer.install(modules)
            try:
                result = run_round(pipeline, modules["cli"], index, max_rss_mb)
            finally:
                if traced:
                    tracer.uninstall()
            # Every round writes into an empty directory, as round 0 does.
            # Rewriting a file in place makes ext4 flush it when it is closed
            # (auto_da_alloc), which put fullcode's 0.5 GB of checkpoints
            # through the disk inside the timed rounds after the first.
            shutil.rmtree(pipeline.out)
            rounds.append((traced, result))
        peak_rss = max_rss_mb()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [o for _, r in rounds for o in r["ops"]]
    summary = {
        "correct": not any(o["check_failed"] for o in ops),
        "attempted": len(ops),
        "failed": sum(not o["ok"] for o in ops),
        "rounds": len(rounds),
    }
    untraced = [r for traced, r in rounds if not traced]
    if not trace:
        metrics = end_to_end(untraced)
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["peak_rss_mb"] = peak_rss
        units = END_TO_END
    else:
        traced_pipeline = statistics.median(r["pipeline_s"] for t, r in rounds if t)
        untraced_pipeline = statistics.median(r["pipeline_s"] for r in untraced)
        metrics = tracer.layer_metrics(
            [f"round{i}" for i, (traced, _) in enumerate(rounds) if traced]
        )
        for op in rounds[0][1]["ops"]:  # the high-water mark only grows: first round
            metrics[f"rss_after.{op['command']}_mb"] = op["rss_mb"]
        metrics["trace.overhead_pct"] = 100.0 * (traced_pipeline / untraced_pipeline - 1.0)
        units = per_layer_units()
        trace_path = STATE / "traces" / f"{name}-s{seed}.jsonl"
        tracer.write(trace_path)
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    summary["metrics"] = {m: {"value": metrics[m], "unit": units[m]} for m in units}
    return summary


def print_result(name: str, result: dict) -> None:
    print(f"{name}: {result['rounds']} rounds, {result['attempted']} operations attempted, "
          f"{result['failed']} failed, outputs {'correct' if result['correct'] else 'WRONG'}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:<36} {entry['value']:>16.6f} {entry['unit']}")


# Steadiness.

def steadiness(names: list[str], first_seed: int, runs: int, seconds: int) -> int:
    """Run each workload `runs` times, each in its own process, and summarize."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    status = 0
    for name in names:
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in range(first_seed, first_seed + runs):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=900, check=False,
            )
            if proc.returncode != 0:  # a run exits nonzero if any operation failed
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            shares.add((result["failed"], result["attempted"]))
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            print(f"{name} seed {seed}: {result['attempted']} operations attempted, "
                  f"{result['failed']} failed, correct={result['correct']}; " + ", ".join(
                      f"{m} {e['value']:.6g} {e['unit']}" for m, e in result["metrics"].items()),
                  flush=True)
        print(f"\n{name}: {runs} runs; (failed, attempted) per run: {sorted(shares)}")
        print(f"  {'metric':<24}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>8}")
        stats = {}
        for metric, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median, 0, median)
            spread = (q3 - q1) / median
            bound = bounds.get(metric)
            stats[metric] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bound, "unit": END_TO_END[metric]}
            flag = ""
            if len(vals) > 1 and bound is not None:
                flag = "ok" if spread <= bound / 3 else ("within" if spread <= bound else "OVER")
                status |= spread > bound
            print(f"  {metric:<24}{median:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{spread:>9.4f}{bound if bound is not None else '':>8} {flag}")
        report[name] = {"runs": runs, "failed_attempted": sorted(shares), "metrics": stats}
    print(json.dumps(report, sort_keys=True))
    return status


def main(argv=None) -> int:
    # One BLAS thread, set before numpy loads: the pipeline's matrix work is
    # matrix-vector sized, and idle BLAS threads on two cores only add noise.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="common50, fullcode or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="N",
                        help="run each workload N times in fresh processes and report spreads")
    parser.add_argument("--setup-dir", type=Path, metavar="DIR",
                        help="only set up the workload's inputs in DIR; a timed set-up runs this")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    import benchpipe

    if args.workload != "all" and args.workload not in benchpipe.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    if args.setup_dir:
        load_program()
        prepare(benchpipe.WORKLOADS[args.workload], args.seed, args.setup_dir)
        return 0
    names = list(benchpipe.WORKLOADS) if args.workload == "all" else [args.workload]
    if args.workload == "all" or args.steadiness:
        load_program()  # fail early, before any child process starts
        return steadiness(names, args.seed, max(args.steadiness, 1), args.seconds)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(args.workload, result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] and not result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
