#!/usr/bin/env python3
"""Self-test of the benchmark at its smallest size.

    python3 perfbench/selftest.py

Run from the root of a checkout; takes about a minute.  For every
workload, at --size smoke (two registry inputs, three fuzz cases):

  * an untraced run passes every op and prints every end_to_end metric
    of BENCHMARK.json with its unit, and nothing else;
  * a traced run does the same for every per_layer metric (it fails an
    op itself if its spans do not nest), and its span file parses: one
    header line, then spans that each carry their op's root id;
  * a run against a copy of the expectations with one count changed
    fails that op, so the correctness gate is not vacuous.

It also checks that run.py refuses an unknown workload.  Exits 0 when
every check holds.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEED = 1
OUT = os.path.join(run.HERE, "out")
failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def bench(workload, trace, expected, trace_file=None):
    cmd = [run.EXE, "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace), "--size", "smoke", "--expected", expected]
    if trace_file:
        cmd += ["--trace-file", trace_file]
    r = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE, text=True,
                       timeout=run.RUN_TIMEOUT_S)
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode != 0 or not run.valid_result(lines[-1]):
        return None, r.stdout
    return json.loads(lines[-1]), r.stdout


def metrics_match(result, spec, label):
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    check(got == want, f"{label}: metrics are exactly the declared names and units")
    values = [v.get("value") for v in result["metrics"].values()]
    check(all(isinstance(v, (int, float)) for v in values), f"{label}: every value is a number")


def check_spans(path, label):
    try:
        with open(path) as f:
            rows = [json.loads(line) for line in f]
    except (OSError, ValueError) as e:
        check(False, f"{label}: span file parses ({e})")
        return
    header, spans = rows[0], rows[1:]
    check(header.get("schema") == "vpbench-spans/1" and header.get("spans") == len(spans),
          f"{label}: span file header names the schema and count ({len(spans)} spans)")
    roots = {s["id"] for s in spans if s["kind"] == "root" and s["op"] == s["id"]}
    bad = [s for s in spans if s["op"] not in roots]
    check(spans and not bad, f"{label}: every span carries its op's root id ({len(bad)} bad)")


def corrupted_copy(expected, workload):
    """The expectations with the first integer of one smoke op bumped."""
    prefix = {"repro-quick": "timing/099.go/A/baseline\t",
              "serve-drift": "step/099.go/A/0\t",
              "fuzz-corpus": "case/0\t"}[workload]
    with open(expected) as f:
        lines = f.readlines()
    out, hit = [], False
    for line in lines:
        if line.startswith(prefix) and not hit:
            key, fields = line.rstrip("\n").split("\t")
            name, value = fields.split(" ")[0].split("=")
            rest = fields.split(" ")[1:]
            line = key + "\t" + " ".join([f"{name}={int(value) + 1}"] + rest) + "\n"
            hit = True
        out.append(line)
    path = os.path.join(OUT, f"corrupt-{workload}.tsv")
    with open(path, "w") as f:
        f.writelines(out)
    return path if hit else None


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if not run.build():
        print("FAIL build", flush=True)
        sys.exit(1)
    os.makedirs(OUT, exist_ok=True)
    for w in [x["name"] for x in spec["workloads"]]:
        expected = os.path.join(run.HERE, "expected", w + ".tsv")
        res, text = bench(w, 0, expected)
        check(res is not None and res["correct"] and res["failed"] == 0,
              f"{w}: untraced smoke run passes every op")
        if res:
            metrics_match(res, spec["end_to_end"], f"{w} untraced")
        spans = os.path.join(OUT, f"selftest-{w}.spans.jsonl")
        res, text = bench(w, 1, expected, spans)
        check(res is not None and res["correct"] and res["failed"] == 0,
              f"{w}: traced smoke run passes every op")
        if res:
            metrics_match(res, spec["per_layer"], f"{w} traced")
            check("ledger " + w in text and "residual" in text,
                  f"{w}: traced run prints the ledger")
            check_spans(spans, w)
        bad = corrupted_copy(expected, w)
        check(bad is not None, f"{w}: expectations hold the op to corrupt")
        if bad:
            res, _ = bench(w, 0, bad)
            check(res is not None and not res["correct"] and res["failed"] >= 1,
                  f"{w}: a corrupted expected count fails its op")
    r = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"), "--workload", "nope",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=run.ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    check(r.returncode != 0 and r.stdout == b"", "run.py refuses an unknown workload")
    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
