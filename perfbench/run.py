#!/usr/bin/env python3
"""Build the benchmark from source, then run one measurement.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload <campaign_mix|seq_stream|crash_restart> \
        --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default `.bench_build`), offline, and
its output goes to standard error, so the last line of standard output is
the benchmark's JSON result. Spans of a traced run are written to
`perfbench/out/spans-<workload>.tsv` unless `--spans-out` is given. The exit
code is the benchmark's: 0 only when it ran and every check passed.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    args = sys.argv[1:]
    if "--spans-out" not in args and "--workload" in args:
        workload = args[args.index("--workload") + 1 :][:1] or ["run"]
        spans = os.path.join(HERE, "out", f"spans-{workload[0]}.tsv")
        args += ["--spans-out", spans]
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
