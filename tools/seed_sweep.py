#!/usr/bin/env python3
"""Reruns a seeded gtest property suite across extra seed blocks.

A seeded suite covers one block of random configurations per run; its
seed-offset environment variable shifts the whole block, so each offset
exercises a fresh set without a recompile. Run under ctest this sweeps
offsets 1..N over the full property set.

Defaults fit the scheduler suite (64 random fleet configurations per block,
`BKUP_SCHED_SEED_OFFSET`, filter SchedulerPropertyTest.*); the recovery
chaos soak reuses the tool with --filter/--env:

  seed_sweep.py /path/to/scheduler_test [num_offsets]
  seed_sweep.py /path/to/recovery_chaos_test 2 \\
      --filter=RecoveryChaosTest.KilledRestoresConvergeEverywhere \\
      --env=BKUP_RECOVERY_SEED_OFFSET
"""

import os
import subprocess
import sys


def main():
    args = sys.argv[1:]
    gtest_filter = "SchedulerPropertyTest.*"
    env_var = "BKUP_SCHED_SEED_OFFSET"
    positional = []
    for arg in args:
        if arg.startswith("--filter="):
            gtest_filter = arg[len("--filter="):]
        elif arg.startswith("--env="):
            env_var = arg[len("--env="):]
        else:
            positional.append(arg)
    if not positional:
        print("usage: seed_sweep.py /path/to/test_binary [num_offsets]"
              " [--filter=PATTERN] [--env=SEED_OFFSET_VAR]")
        return 2
    binary = positional[0]
    num_offsets = int(positional[1]) if len(positional) > 1 else 8
    if not os.path.exists(binary):
        print("FAIL: test binary %r not found" % binary)
        return 1

    failures = []
    for offset in range(1, num_offsets + 1):
        env = dict(os.environ)
        env[env_var] = str(offset)
        print("=== seed offset %d/%d (%s) ===" % (offset, num_offsets, env_var),
              flush=True)
        proc = subprocess.run(
            [binary, "--gtest_filter=" + gtest_filter],
            env=env,
        )
        if proc.returncode != 0:
            failures.append(offset)

    if failures:
        print("FAIL: property suite failed at seed offsets %s" % failures)
        return 1
    print("seed sweep: %d offsets of %s OK" % (num_offsets, gtest_filter))
    return 0


if __name__ == "__main__":
    sys.exit(main())
