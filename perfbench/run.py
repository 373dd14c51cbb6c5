#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N       # every workload
    python3 perfbench/run.py --self-check [--seed N]       # determinism check

Run from the repository root.  The build goes through dune into _build/;
its output goes to standard error, so the last line of standard output is
the benchmark's JSON result.  A failed build exits 2 without a result.
"""

import glob
import json
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return dune
    candidates = []
    if os.environ.get("OPAM_SWITCH_PREFIX"):
        candidates.append(os.path.join(os.environ["OPAM_SWITCH_PREFIX"], "bin", "dune"))
    candidates += sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    for c in candidates:
        if os.access(c, os.X_OK):
            return c
    return None


def build():
    dune = find_dune()
    if dune is None:
        sys.stderr.write("perfbench: dune not found\n")
        sys.exit(2)
    env = dict(os.environ)
    # the compiler lives next to dune; keep the build cache inside _build
    env["PATH"] = os.path.dirname(dune) + os.pathsep + env.get("PATH", "")
    env["DUNE_CACHE"] = "disabled"
    r = subprocess.run(
        [dune, "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
    )
    if r.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write("perfbench: build failed\n")
        sys.exit(2)


def run_exe(args):
    r = subprocess.run([EXE] + args, capture_output=True, text=True)
    sys.stderr.write(r.stdout)
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    return r.returncode, (json.loads(lines[-1]) if lines else None)


def self_check(seed):
    """Counters that must repeat exactly for a seed, then a clean short run
    of every workload on a second seed."""
    ok = True
    for workload in ("query-hot", "ingest"):
        runs = [run_exe(["--workload", workload, "--seed", str(seed), "--counters"]) for _ in range(2)]
        same = runs[0][0] == 0 and runs[0] == runs[1]
        print("%-12s seed %d counters %s: %s" % (workload, seed, "repeat" if same else "DIFFER", runs[0][1]))
        if runs[0][1] and runs[0][1].get("mismatched", 0) != 0:
            same = False
        ok = ok and same and (runs[1][1] or {}).get("failed", 0) == 0
    for workload in ("ingest", "query-hot", "serve-mixed"):
        for trace in ("0", "1"):
            rc, res = run_exe(
                ["--workload", workload, "--seed", str(seed + 1), "--seconds", "2", "--trace", trace]
            )
            clean = rc == 0 and res is not None and res["correct"] and res["failed"] == 0
            print("%-12s seed %d trace %s: %s" % (workload, seed + 1, trace, "clean" if clean else "FAILED"))
            ok = ok and clean
    print("self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    args = sys.argv[1:]
    build()
    if "--self-check" in args:
        seed = int(args[args.index("--seed") + 1]) if "--seed" in args else 1
        sys.exit(self_check(seed))
    os.execv(EXE, [EXE] + args)


if __name__ == "__main__":
    main()
