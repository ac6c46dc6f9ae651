#!/usr/bin/env python3
"""Repository benchmark: build the simulator in release mode, run one workload.

    python3 perfbench/run.py --workload figures|simulate|serve \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run builds
perfbench/perfbench.exe and bin/disesim.exe with
`dune build --profile release` into _perfbench_build/ (the dune cache is
disabled, so nothing is written outside the checkout). Scratch files
(serve sockets, result caches, manifests, traces) go to .perfbench/.

The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}},
with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1). The line before it is the run record
(commit, nproc, OCaml version, build profile, seed, output checks and
sample counts). Exits non-zero without a result when the checkout
cannot be built or a run fails.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = "_perfbench_build"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
SOURCES = ["dune-project", "lib", "bin", "perfbench"]


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout kill the whole group
    (the serve tier included) and wait for it."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, **kw)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s timed out after %d s" % (cmd[0], timeout), 1)
    return proc.returncode, out, err


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--profile", "release", "--build-dir", BUILD_DIR,
           "./perfbench/perfbench.exe", "./bin/disesim.exe"]
    try:
        code, _, err = run_group(cmd, BUILD_TIMEOUT_S, env=env,
                                 stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    except FileNotFoundError:
        fail("dune not found on PATH")
    if code != 0:
        sys.stderr.write(err.decode(errors="replace"))
        fail("release build failed", 3)


def commit_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in SOURCES:
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode() + b"\0")
            with open(p, "rb") as f:
                h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    for need in SOURCES + ["BENCHMARK.json"]:
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s is not a source checkout (missing %s)" % (ROOT, need))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    exe = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "perfbench.exe")
    disesim = os.path.join(BUILD_DIR, "default", "bin", "disesim.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--disesim", disesim, "--reference", "perfbench/reference.json",
           "--commit", commit_id()]
    code, out, _ = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE)
    lines = out.decode(errors="replace").splitlines()
    if code != 0 or not lines:
        fail("workload %s exited with code %d" % (args.workload, code), 1)
    try:
        result = json.loads(lines[-1])
        raw = result["metrics"]
    except (ValueError, KeyError, TypeError):
        fail("unreadable result line: %r" % lines[-1][:200], 1)
    names = [m["name"] for m in wanted]
    if sorted(raw) != sorted(names):
        fail("metrics %s do not match BENCHMARK.json %s" % (sorted(raw), sorted(names)), 1)
    result["metrics"] = {m["name"]: {"value": raw[m["name"]], "unit": m["unit"]} for m in wanted}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
