#!/usr/bin/env python3
"""Service benchmark launcher.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It builds perfbench/bench.exe with
dune, then runs one fresh deployment process pinned to one core and the
load generator pinned to another, and prints as its last line one JSON
object: correct, attempted, failed and the metrics BENCHMARK.json declares
(the end-to-end ones with --trace 0, the per-layer ones with --trace 1).

A traced run wraps the deployment's mesh transport in the tracer and
switches tracing on and off between parts of the window. The per-layer
figures come from the traced parts; the median difference between adjacent
traced and untraced parts is reported as the tracing overhead.

Every run also records the host (nproc, CPU set, OCaml version, commit or
source digest, /proc/stat steal, the pinned cores' utilisation) on a
'# host' line and in perfbench/out/, so a contended run can be told apart.
"""

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import time

OUT = os.path.join("perfbench", "out")
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
READY_TIMEOUT_S = 90
BUILD_TIMEOUT_S = 850
# Runnable but not in BENCHMARK.json: its figures move between runs by
# more than the 0.25 bound a regression gate can use (README, "Workloads").
UNGATED = ["kv-closed-n4"]


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def find_dune():
    """dune on PATH, else in the active opam switch."""
    found = shutil.which("dune")
    if found:
        return found
    prefixes = [os.environ.get("OPAM_SWITCH_PREFIX", "")]
    if os.environ.get("OPAMROOT") and os.environ.get("OPAMSWITCH"):
        prefixes.append(os.path.join(os.environ["OPAMROOT"], os.environ["OPAMSWITCH"]))
    for prefix in prefixes:
        candidate = os.path.join(prefix, "bin", "dune")
        if prefix and os.access(candidate, os.X_OK):
            return candidate
    die("dune not found on PATH or in the opam switch")


def build():
    dune = find_dune()
    path = os.path.dirname(dune) + os.pathsep + os.environ.get("PATH", "")
    env = dict(os.environ, DUNE_CACHE="disabled", PATH=path)
    cmd = [dune, "build", "--root", ".", "--profile", "release", "-j", "2", "./perfbench/bench.exe"]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("build timed out", 3)
    if r.returncode != 0:
        die("build failed", 3)


def cpu_times():
    with open("/proc/stat") as f:
        fields = f.readline().split()
    vals = [int(x) for x in fields[1:]]
    steal = vals[7] if len(vals) > 7 else 0
    return sum(vals[:8]), steal


def source_digest():
    h = hashlib.sha1()
    for top in ("lib", "perfbench", "dune-project"):
        paths = []
        if os.path.isfile(top):
            paths = [top]
        else:
            for d, dirs, files in os.walk(top):
                dirs[:] = sorted(x for x in dirs if x != "out")
                paths += [os.path.join(d, x) for x in sorted(files)]
        for p in paths:
            if p.endswith((".ml", ".mli", "dune", "dune-project", ".py")):
                h.update(p.encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def host_record(cores):
    allowed = sorted(os.sched_getaffinity(0))
    return {
        "nproc": os.cpu_count(),
        "cpu_set": allowed,
        "deploy_core": cores[0],
        "loadgen_core": cores[1],
        "pinned_apart": cores[0] != cores[1],
        "ocaml": command_output(["ocamlfind", "ocamlopt", "-version"]) or command_output(["ocamlopt", "-version"]),
        "commit": command_output(["git", "rev-parse", "--short", "HEAD"]) or "unknown",
        "source_digest": source_digest(),
    }


def pinned(core):
    return lambda: os.sched_setaffinity(0, {core})


def stop(proc):
    if proc is not None and proc.poll() is None:
        proc.kill()
    if proc is not None:
        proc.wait()


def measure(args, cores):
    """One fresh deployment plus one generator run; returns the generator's
    JSON result with the run's steal share added."""
    run_dir = os.path.join(OUT, "run-%d" % os.getpid())
    shutil.rmtree(run_dir, ignore_errors=True)
    flag = str(args.trace)
    seconds = args.seconds
    deploy = load = None
    total0, steal0 = cpu_times()
    try:
        deploy = subprocess.Popen(
            [EXE, "deploy", "--workload", args.workload, "--seed", str(args.seed), "--trace", flag,
             "--dir", run_dir],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True, preexec_fn=pinned(cores[0]))
        ready, _, _ = select.select([deploy.stdout], [], [], READY_TIMEOUT_S)
        line = deploy.stdout.readline() if ready else ""
        if not line.startswith("READY "):
            raise RuntimeError("deployment did not come up")
        info = dict(f.split("=", 1) for f in line.split()[1:])
        load = subprocess.Popen(
            [EXE, "load", "--workload", args.workload, "--seed", str(args.seed), "--seconds", repr(seconds),
             "--ctl", info["ctl"], "--ports", info["ports"], "--setup", info["setup"], "--trace", flag,
             "--cores", "%d,%d" % cores],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True, preexec_fn=pinned(cores[1]))
        out, _ = load.communicate(timeout=seconds + 75)
        deploy.wait(timeout=30)
        lines = [x for x in out.splitlines() if x.startswith("{")]
        if not lines:
            raise RuntimeError("load generator printed no result (exit %s)" % load.returncode)
        result = json.loads(lines[-1])
    finally:
        stop(load)
        stop(deploy)
        shutil.rmtree(run_dir, ignore_errors=True)
    total1, steal1 = cpu_times()
    result["steal_frac"] = (steal1 - steal0) / (total1 - total0) if total1 > total0 else 0.0
    return result


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    if not (os.path.isfile("dune-project") and os.path.isdir(os.path.join("lib", "service"))):
        die("run this from the root of a source checkout (no dune-project or lib/service here)")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]] + UNGATED:
        die("unknown workload " + args.workload)
    if args.seconds < 3:
        die("--seconds must be at least 3")
    build()
    os.makedirs(OUT, exist_ok=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    allowed = sorted(os.sched_getaffinity(0))
    cores = (allowed[0], allowed[1]) if len(allowed) >= 2 else (allowed[0], allowed[0])
    host = host_record(cores)

    res = measure(args, cores)
    if args.trace:
        values = dict(res["layer"], **{"host.steal_frac": res["steal_frac"]})
        wanted = spec["per_layer"]
    else:
        values = res["e2e"]
        wanted = spec["end_to_end"]
    detail = res["detail"]
    host["steal_frac"] = res["steal_frac"]
    host["deploy_core_busy"], host["loadgen_core_busy"] = (detail["core_busy"] + [0.0, 0.0])[:2]
    host["deploy_cpu_share"] = detail["deploy_cpu_share"]
    # Contended: fewer than a third of the window's parts were free of
    # steal, so the figures come from the least disturbed ones (parts.ml).
    host["contended"] = 3 * detail["parts_quiet"] < detail["parts"]

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        die("no value for declared metrics " + ", ".join(missing), 1)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = res["correct"]
    final = {"correct": correct, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "host": host, "run": res, "result": final, "time": time.time()}
    name = "result-%s-%d-%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(OUT, name), "w") as f:
        json.dump(record, f, indent=1)
    print("# host " + json.dumps(host))
    print("# detail " + json.dumps(detail))
    print(json.dumps(final))
    if not correct:
        sys.exit(1)


if __name__ == "__main__":
    try:
        main()
    except (RuntimeError, subprocess.SubprocessError, OSError, KeyError, ValueError) as e:
        die(str(e), 1)
