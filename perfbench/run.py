#!/usr/bin/env python3
"""The repository benchmark: host time of the simulator on three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload mvee-dense --seed 1 --seconds 40 --trace 0

It builds perfbench/perfbench.exe with dune, then starts one process per
repetition until --seconds have passed (every repetition is a fresh process,
because the peak-heap reading is a process-global high-water mark). Each
repetition's virtual results are checked: no simulated operation may fail,
every repetition must give the same digest, and the digest must equal the
committed one in perfbench/reference.json when that file has the seed.

Each repetition is preceded by a fixed host-speed probe in its own process,
and the end-to-end times are scaled by PROBE_REF_S / probe time: seconds at
the reference host's speed (the host's own speed drifts by +-20% in phases
of tens of seconds). Raw medians are printed as host.* lines.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics (medians over the repetitions); --trace 1 alternates untraced and
traced repetitions and reports the per-layer metrics, with the tracing
overhead. See BENCHMARK.json for names and units.

Workloads:
  mvee-dense      ReMon, 2 replicas, NONSOCKET_RW: dispatch -> IK-B ->
                  IP-MON -> replication buffer. No world, net or recording.
  herd-100k       10^5 connections: 1000 echo cells, 2000 hosts, 200 us
                  links, 2 shards. No monitors.
  ghumvee-replay  the mvee-dense shape under GHUMVEE alone, recorded, then
                  encoded, decoded and replayed; replay must be identical.

Other modes:
  --selftest          herd at 1 and 2 shards: same digest, and minor words
                      (counted over all domains) within 1%.
  --write-reference A-B
                      regenerate reference.json for seeds A..B (the herd
                      digest comes from Topology.run_herd at one shard).
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ["mvee-dense", "herd-100k", "ghumvee-replay"]
SHARDS = {"herd-100k": 2}
# The probe's median time on the reference host (2 vCPUs). End-to-end times
# are scaled by PROBE_REF_S / the probe time taken just before the
# repetition: they read as seconds at reference host speed.
PROBE_REF_S = 0.125
REP_TIMEOUT_S = 60  # a repetition takes a few seconds; keeps a run under 180 s
MIN_REPS = 3

# Layers whose self times partition a traced run (with unattributed_s).
SPAN_TIMES = [
    "dispatch.self_s",
    "ikb.classify_s",
    "ipmon.self_s",
    "ghumvee.self_s",
    "recording.encode_s",
    "recording.decode_s",
    "replayer.replay_s",
]


# Per-layer metrics, in report order. Those in LAYER_COUNTERS are read from
# perfbench.exe's "layers" object; the rest are derived here.
PER_LAYER = [
    ("event_queue.events", "count"),
    ("event_queue.adds", "count"),
    ("event_queue.cancels", "count"),
    ("event_queue.lazy_drops", "count"),
    ("event_queue.events_per_syscall", "ratio"),
    ("unattributed_s", "s"),
    ("dispatch.calls", "count"),
    ("dispatch.self_s", "s"),
    ("dispatch.ns_per_call", "ns"),
    ("dispatch.route_plain", "count"),
    ("dispatch.route_ipmon", "count"),
    ("dispatch.route_monitored", "count"),
    ("ikb.classify_calls", "count"),
    ("ikb.classify_s", "s"),
    ("ikb.tokens_granted", "count"),
    ("ikb.tokens_rejected", "count"),
    ("ipmon.calls", "count"),
    ("ipmon.self_s", "s"),
    ("ipmon.fallbacks", "count"),
    ("replication_buffer.records", "count"),
    ("replication_buffer.resets", "count"),
    ("replication_buffer.bytes", "B"),
    ("ghumvee.stops", "count"),
    ("ghumvee.self_s", "s"),
    ("ghumvee.ns_per_stop", "ns"),
    ("ghumvee.rendezvous", "count"),
    ("recording.events", "count"),
    ("recording.bytes", "B"),
    ("recording.encode_s", "s"),
    ("recording.decode_s", "s"),
    ("replayer.replay_s", "s"),
    ("hostnet.opened", "count"),
    ("hostnet.refused", "count"),
    ("hostnet.resets", "count"),
    ("link.msgs", "count"),
    ("link.bytes", "B"),
    ("net.bytes_per_connection", "B"),
    ("world.setup_s", "s"),
    ("world.run_s", "s"),
    ("world.rounds", "count"),
    ("world.msgs_per_round", "ratio"),
    ("gc.minor_collections", "count"),
    ("gc.major_collections", "count"),
    ("gc.promoted_words", "words"),
    ("traced.run_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]
LAYER_COUNTERS = {k for k, _ in PER_LAYER} - {
    "net.bytes_per_connection", "traced.run_s", "trace.overhead_s",
    "trace.overhead_ratio"}


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("no simulator sources next to perfbench/ (expected dune-project and lib/)")
    if shutil.which("dune"):
        dune = ["dune"]
    elif shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    else:
        fail("neither dune nor opam is on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        dune + ["build", "--root", ROOT, "./perfbench/perfbench.exe"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=850)
    if proc.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(proc.stdout)
        fail("build failed")


def perfbench(*args):
    proc = subprocess.run(
        [EXE] + [str(a) for a in args], cwd=ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail("perfbench.exe %s exited with %d" % (" ".join(map(str, args)), proc.returncode), 1)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def rep(workload, seed, traced, shards):
    """One repetition, preceded by the host-speed probe in its own process."""
    probe = perfbench("probe")["probe_s"]
    r = perfbench("rep", workload, seed, 1 if traced else 0, shards)
    r["probe_s"] = probe
    r["speed"] = PROBE_REF_S / probe
    return r


def load_reference():
    try:
        with open(REFERENCE) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def source_digest():
    """Digest of the simulator sources, for runs outside a git checkout."""
    h = hashlib.md5()
    for top in ("lib", "bin"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(d, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def check(workload, seed, reps, reference):
    """Problems with the repetitions' virtual results, as strings."""
    problems = []
    digests = {r["digest_md5"] for r in reps}
    if len(digests) != 1:
        problems.append("repetitions disagree (traced vs untraced or nondeterminism): %s"
                        % sorted(digests))
    want = reference.get(workload, {}).get(str(seed))
    if want is not None and want not in digests:
        problems.append("digest %s differs from reference %s"
                        % (sorted(digests), want))
    for r in reps:
        if r["failed"]:
            problems.append("%d of %d simulated operations failed"
                            % (r["failed"], r["attempted"]))
        if r["traced"]:
            lay = r["layers"]
            total = sum(lay[k] for k in SPAN_TIMES) + lay["unattributed_s"]
            if abs(total - r["run_s"]) > 1e-6 * max(1.0, r["run_s"]):
                problems.append("layers sum to %.9f s, run_s is %.9f s"
                                % (total, r["run_s"]))
    for p in problems:
        print("CHECK FAILED: " + p)
    if problems:
        print("digest text: " + reps[0]["digest"].replace("\n", " | "))
    return problems


def end_to_end(reps):
    med = lambda f: statistics.median(f(r) for r in reps)
    return {
        "setup_s": (med(lambda r: r["setup_s"] * r["speed"]), "s"),
        "run_s": (med(lambda r: r["run_s"] * r["speed"]), "s"),
        "syscalls_per_s": (med(lambda r: r["syscalls"] / (r["run_s"] * r["speed"])), "1/s"),
        "minor_words_per_syscall": (med(lambda r: r["minor_words"] / r["syscalls"]), "words"),
        "peak_heap_mb": (med(lambda r: r["top_heap_words"] * r["word_bytes"] / 1e6), "MB"),
    }


def per_layer(untraced, traced):
    def med(rs, k):
        return statistics.median(r["layers"].get(k, 0) for r in rs)
    # GC counts and memory come from the untraced repetitions: the wrappers
    # allocate a closure per span.
    out = {k: (med(untraced if k.startswith("gc.") else traced, k), unit)
           for k, unit in PER_LAYER if k in LAYER_COUNTERS}
    conns = med(untraced, "net.connections")
    heap = statistics.median(r["top_heap_words"] * r["word_bytes"] for r in untraced)
    out["net.bytes_per_connection"] = (heap / conns if conns else 0.0, "B")
    traced_run = statistics.median(r["run_s"] for r in traced)
    untraced_run = statistics.median(r["run_s"] for r in untraced)
    out["traced.run_s"] = (traced_run, "s")
    out["trace.overhead_s"] = (traced_run - untraced_run, "s")
    out["trace.overhead_ratio"] = (traced_run / untraced_run - 1.0, "ratio")
    return {k: out[k] for k, _ in PER_LAYER}


def measure(args):
    build()
    reference = load_reference()
    shards = SHARDS.get(args.workload, 1)
    reps = []
    deadline = time.monotonic() + args.seconds
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        reps.append(rep(args.workload, args.seed, traced, shards))
        if time.monotonic() >= deadline and len(reps) >= (2 * MIN_REPS if args.trace else MIN_REPS):
            break
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    problems = check(args.workload, args.seed, reps, reference)
    attempted = sum(r["attempted"] for r in untraced)
    failed = sum(r["failed"] for r in untraced)
    metrics = end_to_end(untraced) if not args.trace else per_layer(untraced, traced)
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "repetitions": len(untraced), "traced_repetitions": len(traced),
        "shards": shards, "nproc": os.cpu_count(), "ocaml": reps[0]["ocaml"],
        "commit": git_commit(), "source_md5": source_digest(),
        "reference_checked": str(args.seed) in reference.get(args.workload, {}),
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    for k in ("setup_s", "run_s", "probe_s"):
        print("%-34s %16.10g s  (as measured, median)"
              % ("host." + k, statistics.median(r[k] for r in untraced)))
    for name, (value, unit) in metrics.items():
        print("%-34s %16.10g %s" % (name, value, unit))
    print("%-34s %16.10g %s  (%d failed / %d attempted)"
          % ("error_rate", failed / attempted, "ratio", failed, attempted))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def selftest(args):
    build()
    r1 = rep("herd-100k", args.seed, False, 1)
    r2 = rep("herd-100k", args.seed, False, 2)
    ok = True
    if r1["digest_md5"] != r2["digest_md5"]:
        print("FAIL herd digest differs between 1 and 2 shards")
        ok = False
    ratio = r2["minor_words"] / r1["minor_words"]
    print("herd minor words: 1 shard %.0f, 2 shards %.0f (ratio %.4f)"
          % (r1["minor_words"], r2["minor_words"], ratio))
    if abs(ratio - 1.0) > 0.01:
        print("FAIL minor words disagree by more than 1%")
        ok = False
    want = load_reference().get("herd-100k", {}).get(str(args.seed))
    if want is not None and want != r2["digest_md5"]:
        print("FAIL herd digest differs from reference")
        ok = False
    print("selftest " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def write_reference(args):
    build()
    lo, _, hi = args.write_reference.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    reference = load_reference()
    for w in WORKLOADS:
        table = reference.setdefault(w, {})
        for s in seeds:
            table[str(s)] = perfbench("reference", w, s)["digest_md5"]
        reference[w] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, indent=1)
        f.write("\n")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--write-reference", metavar="A-B")
    args = p.parse_args()
    if args.selftest:
        return selftest(args)
    if args.write_reference:
        return write_reference(args)
    if args.workload is None:
        p.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
