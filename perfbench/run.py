#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

One run, from the repository root:

    python3 perfbench/run.py --workload mlp1_f32 --seed 1 --seconds 30 --trace 0

builds perfbench/perfbench.exe with dune, runs it and passes its standard
output through; the last line is the JSON result. The exit code is the
program's: 0 when every checked output matched the reference interpreter.
The run length is BENCHMARK.json's run_seconds, the length its bounds were
measured at; --seconds, when given, must equal it.

Steadiness mode repeats a workload over consecutive seeds and prints each
metric's median and quartiles against the bound in BENCHMARK.json:

    python3 perfbench/run.py --steady --workload bert_int8 --runs 10 --seed 100
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
OUT = os.path.join(HERE, "_out")
WORKLOADS = ["mlp1_f32", "bert_int8", "serve_mixed"]
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def clean_env():
    # GC_* knobs change what the program does; runs must not inherit them.
    # A one-thread default pool keeps any pool the benchmark does not size
    # itself from starting domains.
    env = {k: v for k, v in os.environ.items() if not k.startswith("GC_")}
    env["GC_NUM_THREADS"] = "1"
    env["DUNE_CACHE"] = "disabled"
    return env


def build():
    for need in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no %s beside perfbench/: run from a checkout of the repository" % need)
    try:
        p = subprocess.run(
            ["dune", "build", "--root", ROOT, "--display", "quiet", "./perfbench/perfbench.exe"],
            cwd=ROOT,
            env=clean_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S,
        )
    except FileNotFoundError:
        fail("dune is not on PATH")
    except subprocess.TimeoutExpired:
        fail("build did not finish in %d s" % BUILD_TIMEOUT_S, 1)
    if p.returncode != 0:
        sys.stderr.write(p.stdout.decode(errors="replace")[-4000:])
        fail("build failed", 1)


def source_digest():
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs[:] = sorted(x for x in dirs if not x.startswith("_"))
            for f in sorted(files):
                if f.endswith((".ml", ".mli")) or f == "dune":
                    path = os.path.join(d, f)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, timeout=10)
        return p.stdout.decode().strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def run_once(workload, seed, seconds, trace, meta, echo=True):
    """Runs the program once; returns (exit code, result dict or None)."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if trace:
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--trace-out", os.path.join(OUT, "trace-%s-%d.json" % (workload, seed))]
    for k, v in meta.items():
        cmd += ["--meta", "%s=%s" % (k, v)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=clean_env(), stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s seed %d did not finish in %d s" % (workload, seed, RUN_TIMEOUT_S), 1)
    text = out.decode(errors="replace")
    if echo:
        sys.stdout.write(text)
        sys.stdout.flush()
    lines = text.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result


def steady(args, meta):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    saved = {}
    ok = True
    for w in workloads:
        values = {}
        for i in range(args.runs):
            code, res = run_once(w, args.seed + i, seconds, args.trace, meta, echo=False)
            if code != 0 or res is None or not res["correct"]:
                print("%s seed %d: exit %d, result %s" % (w, args.seed + i, code, res))
                ok = False
                continue
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        saved[w] = values
        print("%s: %d runs, seeds %d..%d, %g s each" % (w, args.runs, args.seed,
                                                        args.seed + args.runs - 1, seconds))
        print("  %-34s %12s %12s %12s %8s %7s" % ("metric", "median", "q1", "q3", "spread", "bound"))
        for m in metrics:
            v = values.get(m["name"], [])
            if len(v) < 2:
                print("  %-34s (%d values)" % (m["name"], len(v)))
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = m.get("bound")
            verdict = ""
            if bound is not None:
                verdict = "steady" if spread < bound / 3 else ("within" if spread <= bound else "UNSTEADY")
                # set-up time is held to its bound across sets only (see
                # --against); its spread over seeds is printed, not gated
                if m["name"] == "setup_s":
                    verdict += " (not gated)"
                elif spread > bound:
                    ok = False
            print("  %-34s %12.6g %12.6g %12.6g %8.3f %7s %s" % (
                m["name"], med, q1, q3, spread, "" if bound is None else "%.2f" % bound, verdict))
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)
    if args.against:
        with open(args.against) as f:
            first = json.load(f)
        print("medians against %s:" % args.against)
        for w in workloads:
            for m in metrics:
                a, b = first.get(w, {}).get(m["name"]), saved[w].get(m["name"])
                if not a or not b or "bound" not in m:
                    continue
                ma, mb = statistics.median(a), statistics.median(b)
                worse = (mb - ma) / abs(ma) if m["better"] == "lower" else (ma - mb) / abs(ma)
                flag = ""
                if worse > m["bound"]:
                    flag = "WORSE"
                    ok = False
                print("  %-12s %-20s %12.6g -> %12.6g  %+.3f %s" % (w, m["name"], ma, mb, worse, flag))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description="Build and run the repository benchmark.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="must equal BENCHMARK.json's run_seconds when given")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steady", action="store_true", help="repeat over seeds and report spreads")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--save", help="steadiness mode: write the per-run values here")
    ap.add_argument("--against", help="steadiness mode: compare medians with a saved set")
    args = ap.parse_args()
    sys.stdout.reconfigure(line_buffering=True)
    if args.workload == "all" and not args.steady:
        fail("--workload all needs --steady")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        fail("--seconds %g differs from run_seconds %d in BENCHMARK.json" % (args.seconds, seconds))
    build()
    meta = {"commit": commit(), "source_digest": source_digest()}
    if args.steady:
        return steady(args, meta)
    code, _ = run_once(args.workload, args.seed, seconds, args.trace, meta)
    return code


if __name__ == "__main__":
    sys.exit(main())
