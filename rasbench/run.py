#!/usr/bin/env python3
"""Build and run the RAS benchmark from the root of a checkout.

    python3 rasbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds rasbench/main.exe with dune, then runs it with the same arguments.
The last line of its standard output is the result JSON.  When the build
fails (for example outside a checkout of the repository) this exits with
code 1 and prints no result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    # keep every build artefact inside the checkout: no shared dune cache
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", root, "./rasbench/main.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("rasbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(root, "_build", "default", "rasbench", "main.exe")
    sys.stdout.flush()
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
