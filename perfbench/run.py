#!/usr/bin/env python3
"""Build the ivy benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Workloads: check-cold, serve-edit, vm-e2, fuzz-campaign (see
BENCHMARK.json and perfbench/main.ml). The program is built with dune
into _build/ inside the checkout, with dune's shared cache off, and
runs in its own process, so no warm state carries from one workload
into another; vm-e2's process runs with the glibc malloc settings in
WORKLOAD_ENV. Traces, per-run results and the count ledger go to
.perfbench/. The last line of stdout is the result object.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
OUT = ".perfbench"
RUN_TIMEOUT_S = 170

# vm-e2 boots a machine per op, and each machine's memory planes are
# 45 MB that glibc would map afresh and fault in page by page on every
# boot: on a shared host that kernel work swings by up to 2x from one
# minute to the next, which the op's timing cannot tell from the VM's
# own. With these settings the main arena keeps freed planes for the
# next boot (each plane is under the 32 MiB mmap threshold), so the op
# times the VM's allocation, boot and execution only. Not for
# the other workloads: the fuzz oracle boots its machines on pool
# domains, whose per-thread arenas cannot hold them and measured
# steadier without; check-cold and serve-edit allocate no such planes.
WORKLOAD_ENV = {
    "vm-e2": {"MALLOC_MMAP_THRESHOLD_": "33554432", "MALLOC_TRIM_THRESHOLD_": "1073741824"},
}


def workload_arg(argv):
    for i, a in enumerate(argv[:-1]):
        if a == "--workload":
            return argv[i + 1]
    return None


def main() -> int:
    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.abspath(os.path.join(OUT, "cache"))
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
            stdout=sys.stderr,
            env=env,
            timeout=850,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [EXE, "--expected", os.path.join("perfbench", "expected.txt"), "--out", OUT]
    env.update(WORKLOAD_ENV.get(workload_arg(sys.argv[1:]), {}))
    proc = subprocess.Popen(args + sys.argv[1:], env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
