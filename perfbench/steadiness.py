#!/usr/bin/env python3
"""Measure how steady the benchmark's end-to-end metrics are, in two sets.

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 1,2,...]
                                    [--markdown perfbench/STEADINESS.md]

Run from the root of a checkout. Makes two sets of runs, one after the
other: in each, `perfbench/run.py` runs once per workload and seed with
`--trace 0` for `run_seconds` of `BENCHMARK.json`. For every end-to-end
metric it reports, per set, the median and the spread (the distance between
the first and third quartile, `statistics.quantiles(values, n=4)`, as a
share of the median), and the shift of the second set's median against the
first's, signed so that positive is worse. A spread within a third of the
metric's bound is steady; a spread or a shift beyond the bound fails the
benchmark's own acceptance rule. The workload's own outputs (the
`# workload` line) are summarised the same way, without a bound.
`--markdown` writes the whole record, verdicts included, as Markdown.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETS = 2
SIMULATED = ("energy_saving_pct", "test_accuracy", "best_test_accuracy",
             "immediate_test_accuracy")


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed ({done.returncode}):\n{done.stderr[-2000:]}")
    meta, info = {}, {}
    for line in lines:
        if line.startswith("# meta "):
            meta = json.loads(line[len("# meta "):])
        elif line.startswith("# workload "):
            info = json.loads(line[len("# workload "):])
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed} reported a failed check: {result}")
    return meta, result, info


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--markdown", default=None, help="write the record as Markdown")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = args.workloads.split(",")
    e2e = {m["name"]: m for m in bench["end_to_end"]}

    # values[workload][set][name] -> one value per seed
    values = {w: [{} for _ in range(SETS)] for w in workloads}
    outputs = {w: [{} for _ in range(SETS)] for w in workloads}
    meta = {}
    for s in range(SETS):
        for workload in workloads:
            for seed in seeds:
                m, result, info = run(workload, seed, bench["run_seconds"])
                meta = meta or m
                for name, v in result["metrics"].items():
                    values[workload][s].setdefault(name, []).append(v["value"])
                for name, v in info.items():
                    outputs[workload][s].setdefault(name, []).append(v["value"])
                print(f"set {s + 1} {workload} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    rows, failures = {}, []
    for workload in workloads:
        rows[workload] = []
        for name, m in e2e.items():
            (med1, sp1), (med2, sp2) = (spread(values[workload][s][name]) for s in range(SETS))
            shift = med2 / med1 - 1.0
            if m["better"] == "higher":
                shift = -shift
            verdicts = []
            for s, sp in ((1, sp1), (2, sp2)):
                if sp > m["bound"]:
                    verdicts.append(f"spread {s} above bound")
                elif sp > m["bound"] / 3:
                    verdicts.append(f"spread {s} above bound/3")
            if shift > m["bound"]:
                verdicts.append("shift above bound")
            failures += [f"{workload} `{name}`: {v}" for v in verdicts if "/3" not in v]
            rows[workload].append((name, m["bound"], med1, sp1, med2, sp2, shift,
                                   "; ".join(verdicts) or "steady"))
            print(f"{workload:13} {name:12} median {med1:<12.6g} {med2:<12.6g} spread "
                  f"{sp1:.3f} {sp2:.3f} shift {shift:+.3f} bound {m['bound']} "
                  f"{rows[workload][-1][-1]}", flush=True)
    print("acceptance: " + ("met" if not failures else "NOT met: " + "; ".join(failures)))
    if args.markdown:
        with open(args.markdown, "w") as f:
            f.write(markdown(bench, seeds, meta, rows, values, outputs, failures))


def markdown(bench, seeds, meta, rows, values, outputs, failures):
    out = [
        "# Steadiness record",
        "",
        "Written by `python3 perfbench/steadiness.py --markdown perfbench/STEADINESS.md`: "
        f"two sets, one after the other, of one `--trace 0` run per workload and seed "
        f"(seeds {', '.join(map(str, seeds))}), `run_seconds` = {bench['run_seconds']}; "
        f"nproc {meta.get('nproc')} ({cpu_model()}), {meta.get('rustc')}, "
        f"commit {meta.get('commit')}.",
        "",
        "Spread = (q3 − q1) / median over the seeds of one set "
        "(`statistics.quantiles(values, n=4)`). Shift = second set's median ÷ first set's "
        "median − 1, signed so that positive is worse. Steady: both spreads within a third "
        "of the bound and the shift within the bound.",
        "",
        "**Acceptance (every spread and shift within its bound): "
        + ("met.**" if not failures else "NOT met.** " + "; ".join(failures) + "."),
        "",
    ]
    for workload, table in rows.items():
        out += [f"## {workload}", "",
                "| metric | bound | median (1) | spread (1) | median (2) | spread (2) | shift "
                "| verdict |",
                "|---|---|---|---|---|---|---|---|"]
        for name, bound, med1, sp1, med2, sp2, shift, verdict in table:
            out.append(f"| `{name}` | {bound} | {med1:.6g} | {sp1:.3f} | {med2:.6g} | "
                       f"{sp2:.3f} | {shift:+.3f} | {verdict} |")
        out += ["", "Values seed by seed:", ""]
        for name, _, *_ in table:
            for s in range(SETS):
                vals = ", ".join(f"{v:.4g}" for v in values[workload][s][name])
                out.append(f"* `{name}` set {s + 1}: {vals}")
        out += ["", "Workload outputs (the `# workload` line):", "",
                "| output | median (1) | spread (1) | median (2) | spread (2) |",
                "|---|---|---|---|---|"]
        for name in outputs[workload][0]:
            (m1, s1), (m2, s2) = (spread(outputs[workload][s][name]) for s in range(SETS))
            out.append(f"| {name} | {m1:.6g} | {s1:.3f} | {m2:.6g} | {s2:.3f} |")
        repeated = [n for n in SIMULATED if n in outputs[workload][0]]
        if repeated:
            same = [n for n in repeated if outputs[workload][0][n] == outputs[workload][1][n]]
            differ = [n for n in repeated if n not in same]
            out += ["", "Simulated outputs identical seed by seed in both sets: "
                    + (", ".join(f"`{n}`" for n in same) or "none")
                    + ("" if not differ else "; differing: "
                       + ", ".join(f"`{n}`" for n in differ)) + "."]
        out.append("")
    return "\n".join(out)


if __name__ == "__main__":
    main()
