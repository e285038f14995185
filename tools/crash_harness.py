#!/usr/bin/env python3
"""Kill -9 crash-recovery harness for the WAL-journaled attack service.

Drives ``crash_child`` (tests/crash_child.cc): a deterministic
submit -> drain -> churn script over a journaled AttackService that
publishes its final per-ticket results (seed, epoch, effective budget,
edge picks) to a text file via atomic rename.

Protocol:

  1. Reference run: one uninterrupted child (fresh journal) -> the
     expected byte-exact output.
  2. Crash loop (``--iterations`` times): fresh journal, then repeatedly
     launch the child and SIGKILL it after a random delay; relaunch on
     the SAME journal until one run exits cleanly.  Recovery must replay
     the durable prefix (admissions, churn epochs, finalized results)
     and recompute only the remainder.
  3. Gate: every surviving output must be byte-identical to the
     reference — a kill at ANY point must never change a single pick,
     seed, epoch, or budget.

Exit 0 on success, 1 on any mismatch or child failure.  Registered as
the ``crash_harness`` ctest (and a CI job); run manually with:

  python3 tools/crash_harness.py --child build/crash_child
"""

import argparse
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time


def run_child(child, journal, out, seed, kill_after=None):
    """One child run.  Returns (returncode, killed).

    With ``kill_after`` (seconds), SIGKILLs the child after that delay
    unless it exits first — returncode is then -SIGKILL and killed=True.
    """
    cmd = [
        child,
        "--journal=" + journal,
        "--out=" + out,
        "--seed=" + str(seed),
    ]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )
    if kill_after is None:
        return proc.wait(), False
    try:
        return proc.wait(timeout=kill_after), False
    except subprocess.TimeoutExpired:
        proc.kill()  # SIGKILL: no handlers, no flushes, no goodbyes.
        proc.wait()
        return -signal.SIGKILL, True


def run_to_completion(child, journal, out, seed, rng, max_launches, ref_t):
    """Crash loop for one iteration: kill, relaunch, until a clean exit.

    Returns the number of kills inflicted.  Kill delays are scaled to the
    measured uninterrupted run time ``ref_t`` so they land mid-run on any
    machine; the final launch always runs uninterrupted so the loop
    terminates.
    """
    kills = 0
    for launch in range(max_launches):
        last = launch == max_launches - 1
        kill_after = (
            None if last else max(0.003, rng.uniform(0.05, 0.95) * ref_t)
        )
        rc, killed = run_child(child, journal, out, seed, kill_after)
        if killed:
            kills += 1
            continue
        if rc != 0:
            print(
                "FAIL: child exited rc=%d on launch %d" % (rc, launch),
                file=sys.stderr,
            )
            sys.exit(1)
        return kills
    raise AssertionError("unreachable: final launch runs uninterrupted")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--child", required=True, help="path to the crash_child binary"
    )
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument(
        "--iterations",
        type=int,
        default=4,
        help="independent crash-recovery runs (each may take several kills)",
    )
    parser.add_argument(
        "--max-launches",
        type=int,
        default=12,
        help="per-iteration relaunch bound; the last launch is never killed",
    )
    parser.add_argument(
        "--work-dir",
        default=None,
        help="scratch directory (default: a fresh temp dir, removed on exit)",
    )
    args = parser.parse_args()

    if not os.path.exists(args.child):
        print("FAIL: child binary not found: " + args.child, file=sys.stderr)
        return 1

    work = args.work_dir or tempfile.mkdtemp(prefix="geattack_crash_")
    os.makedirs(work, exist_ok=True)
    rng = random.Random(args.seed)
    try:
        # Reference: one uninterrupted run on a fresh journal, timed so the
        # crash loop can scale its kill delays to this machine.
        ref_out = os.path.join(work, "reference.txt")
        ref_t0 = time.monotonic()
        rc, _ = run_child(
            args.child,
            os.path.join(work, "reference_journal.txt"),
            ref_out,
            args.seed,
        )
        ref_t = time.monotonic() - ref_t0
        if rc != 0:
            print("FAIL: reference run rc=%d" % rc, file=sys.stderr)
            return 1
        with open(ref_out, "rb") as f:
            reference = f.read()
        if not reference:
            print("FAIL: reference output is empty", file=sys.stderr)
            return 1
        print(
            "reference: %d tickets in %.2fs"
            % (len(reference.splitlines()), ref_t),
            flush=True,
        )

        t0 = time.time()
        total_kills = 0
        for it in range(args.iterations):
            journal = os.path.join(work, "journal_%d.txt" % it)
            out = os.path.join(work, "out_%d.txt" % it)
            kills = run_to_completion(
                args.child,
                journal,
                out,
                args.seed,
                rng,
                args.max_launches,
                ref_t,
            )
            total_kills += kills
            with open(out, "rb") as f:
                got = f.read()
            if got != reference:
                print(
                    "FAIL: iteration %d output diverges after %d kills"
                    % (it, kills),
                    file=sys.stderr,
                )
                print("--- expected ---\n" + reference.decode(), file=sys.stderr)
                print("--- got ---\n" + got.decode(), file=sys.stderr)
                return 1
            print(
                "iteration %d: byte-identical after %d kill(s)" % (it, kills),
                flush=True,
            )
        if total_kills == 0:
            # Every kill timer lost its race with a sub-ref_t run: the
            # harness proved nothing about recovery.  Scaled delays make
            # this vanishingly unlikely; fail loudly rather than greenwash.
            print("FAIL: no kill ever landed mid-run", file=sys.stderr)
            return 1
        print(
            "PASS: %d iterations, %d total kills, %.1fs"
            % (args.iterations, total_kills, time.time() - t0)
        )
        return 0
    finally:
        if args.work_dir is None:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
