#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload pack|get|serve_get|serve_screen \\
        --seed N --seconds S --trace 0|1 [--lines N] [--setup-reps N]

Run from anywhere; the benchmark works in the checkout that holds this
file. It builds `perfbench/` (a cargo package of its own that depends on
the repository's crates by path) in release mode, offline, into
$CARGO_TARGET_DIR (default `.bench_build` at the checkout root), then
runs it. Build output goes to stderr; the last line of stdout is the
result. See perfbench/README.md for the workloads and metrics.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(env, features=()):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if features:
        cmd += list(features)
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit("perfbench: build failed (exit %d)" % done.returncode)
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")


def git_commit():
    """HEAD of the checkout, when the checkout is itself a git work tree."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "none (not a git checkout)"
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() if head.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def source_digest():
    """SHA-256 over the sources the benchmark builds, so results from a
    checkout without git history still name the code they measured."""
    h = hashlib.sha256()
    tops = [os.path.join(ROOT, "crates"), HERE]
    files = [os.path.join(ROOT, "Cargo.toml")]
    for top in tops:
        for d, dirs, names in os.walk(top):
            dirs[:] = sorted(x for x in dirs if x not in ("target", ".bench_build"))
            files += [os.path.join(d, n) for n in names
                      if n.endswith((".rs", ".toml", ".dct", ".py"))]
    for f in sorted(files):
        try:
            with open(f, "rb") as fh:
                data = fh.read()
        except OSError:
            continue
        h.update(os.path.relpath(f, ROOT).encode() + b"\0" + data)
    return h.hexdigest()[:16]


def bench_env():
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    env["CARGO_TARGET_DIR"] = os.path.join(ROOT, target)
    return env


def main():
    env = bench_env()
    binary = build(env)
    env["PERFBENCH_GIT_COMMIT"] = git_commit()
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest()
    sys.stdout.flush()
    done = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
