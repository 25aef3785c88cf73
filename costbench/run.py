#!/usr/bin/env python3
"""Builds and runs the absolute-cost benchmark (see README.md).

    python3 costbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 costbench/run.py --self-test

Run from the repository root. The benchmark is built from source with
cargo (into $CARGO_TARGET_DIR, default .bench_build) before every run;
inputs and trace files go to .bench_work. The last line of standard output
is the result object; the line before it is the result row with the run
metadata. A failed build or correctness check exits non-zero and prints no
result.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170

# Per-layer timings of layers a workload never calls: reported as 0 and
# named in the result row's "not_exercised" field (see README.md).
NOT_EXERCISED = {
    "private_mutex": {"raw.lock_ns_p50", "raw.unlock_ns_p50",
                      "monitor.vaccinating_pass_us_p50", "history.read_ns_p50",
                      "predict.immune_ms_p50", "predict.immune_ms_max"},
    "live_learning": {"sync.lock_ns_p50", "sync.unlock_ns_p50",
                      "context.capture_ns_p50", "avoidance.intern_stack_ns_p50"},
}


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, stdout=sys.stderr)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"costbench: build failed: {e}", file=sys.stderr)
        return None
    path = os.path.join(target_dir(), "release", "costbench")
    return path if os.path.exists(path) else None


def source_digest():
    """SHA-256 over the sources the benchmark builds (the checkout it runs
    in need not be a git repository)."""
    h = hashlib.sha256()
    skip = {".git", "target", ".bench_build", ".bench_work"}
    for top in ["Cargo.toml", "rust-toolchain.toml", "src", "crates", "compat",
                os.path.basename(HERE)]:
        base = os.path.join(ROOT, top)
        files = []
        if os.path.isfile(base):
            files = [base]
        for d, dirs, names in os.walk(base):
            dirs[:] = sorted(x for x in dirs if x not in skip)
            files += [os.path.join(d, n) for n in sorted(names)]
        for f in files:
            if f.endswith(".lock"):
                continue
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def command_out(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def run(binary, args):
    """Runs the benchmark binary; returns (exit code, stdout lines, stderr)."""
    try:
        p = subprocess.run([binary] + args, cwd=ROOT, capture_output=True,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return 124, [], "costbench: run timed out\n"
    return p.returncode, p.stdout.splitlines(), p.stderr


def main(argv):
    if argv == ["--self-test"]:
        return self_test()
    binary = build()
    if binary is None:
        return 1
    code, lines, err = run(binary, argv)
    sys.stderr.write(err)
    if code != 0 or len(lines) < 2:
        return code or 1
    row = json.loads(lines[-2])
    row["git_rev"] = command_out(["git", "rev-parse", "HEAD"]) or "none"
    row["source_sha256"] = source_digest()
    row["toolchain"] = command_out(["rustc", "--version"])
    for line in lines[:-2]:
        print(line)
    print(json.dumps(row))
    print(lines[-1])
    return 0


def self_test():
    """Tiny-size runs: every metric BENCHMARK.json names is emitted with its
    unit, the result object has exactly the contract's keys, and planted
    faults trip the correctness checks instead of printing numbers."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = build()
    if binary is None:
        return 1
    failures = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    for wl in spec["workloads"]:
        for trace, key in [("0", "end_to_end"), ("1", "per_layer")]:
            name = f"{wl['name']} --trace {trace}"
            code, lines, err = run(binary, ["--workload", wl["name"], "--seed", "1",
                                            "--seconds", "1.2", "--trace", trace])
            if code != 0 or not lines:
                expect(False, f"{name} exits 0 with a result ({code}: {err.strip()})")
                continue
            res = json.loads(lines[-1])
            expect(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                   f"{name}: result has exactly the contract's keys")
            expect(res["correct"] is True and res["attempted"] >= 1,
                   f"{name}: correct with attempted >= 1")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            expect(got == want, f"{name}: emits every {key} metric with its unit")
            expect(all(isinstance(v.get("value"), (int, float))
                       for v in res["metrics"].values()),
                   f"{name}: every value is a number")
            if trace == "1":
                row = json.loads(lines[-2])
                idle = set(filter(None, row["not_exercised"].split(",")))
                expect(idle == NOT_EXERCISED[wl["name"]],
                       f"{name}: exactly the expected layers are not exercised")
                expect(all(res["metrics"][k]["value"] == 0 for k in idle),
                       f"{name}: the layers not exercised report 0")

    for wl, fault, needle in [
        ("hot_inversions", "withhold-inversions", "inner acquisitions expired"),
        ("live_learning", "withhold-prediction", "not Predicted"),
        ("live_learning", "unvaccinated-replay", "deadlocked on replay"),
    ]:
        code, lines, err = run(binary, ["--workload", wl, "--seed", "1", "--seconds", "1.2",
                                        "--trace", "0", "--fault", fault])
        expect(code != 0 and not any(l.startswith('{"correct"') for l in lines)
               and needle in err,
               f"{wl} with --fault {fault} fails the '{needle}' check and prints no result")

    print(f"self-test: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
