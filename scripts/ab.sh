#!/usr/bin/env bash
# Paired A/B runs of vifbench workloads: a git revision against the
# working tree.
#
#   scripts/ab.sh <rev> <workload|all> <pairs> [seconds] [first-seed]
#
# Exports <rev> with `git archive` into target/ab/<commit>/ and builds its
# vifbench there, builds the working tree's vifbench, then runs <pairs>
# pairs of `vifbench --workload <workload> --seed <s> --seconds <seconds>`
# (default 10 s, seeds first-seed, first-seed + 1, ...; default 7). Within a
# pair both sides run the same seed; which side runs first alternates from
# pair to pair, so slow drift on the host lands on both sides alike.
# `all` runs the pairs of every workload in BENCHMARK.json, one workload
# after the other, from the same two builds.
#
# For each workload it prints every pair's end-to-end metrics (the
# `end_to_end` names of BENCHMARK.json), each side's median and
# interquartile range, on how many pairs the working tree came out
# better, and the median per-pair ratio change / base with a 95 %
# bootstrap interval (pairs resampled with a fixed seed), plus each side's
# failed share. Each run's result line is kept in
# target/ab/<workload>-<time>.jsonl.
#
# It only reports: it gates nothing and exits 0 whatever the numbers say.
# Building the working tree's vifbench rewrites vifbench/Cargo.lock; the
# script puts the file back as it found it.
set -euo pipefail

if [ $# -lt 3 ]; then
    sed -n '2,14p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
fi
rev=$1
pairs=$3
seconds=${4:-10}
first_seed=${5:-7}

root=$(git rev-parse --show-toplevel)
cd "$root"
if [ "$2" = all ]; then
    workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
else
    workloads=$2
fi
commit=$(git rev-parse --short "$rev^{commit}")
base="$root/target/ab/$commit"
mkdir -p "$root/target/ab"

build() { # <checkout>
    cargo build --release --quiet --offline --manifest-path "$1/vifbench/Cargo.toml"
}

if [ ! -x "$base/vifbench/target/release/vifbench" ]; then
    rm -rf "$base"
    mkdir -p "$base"
    git archive "$commit" | tar -x -C "$base"
    echo "building vifbench at $commit in $base" >&2
    build "$base"
fi

lock=$(mktemp)
cp vifbench/Cargo.lock "$lock"
trap 'cp "$lock" "$root/vifbench/Cargo.lock"; rm -f "$lock"' EXIT
echo "building vifbench in the working tree" >&2
build "$root"
cp "$lock" vifbench/Cargo.lock

run() { # <side> <checkout> <seed>
    local line
    # Each side runs from the root of its own checkout.
    line=$(cd "$2" && ./vifbench/target/release/vifbench --workload "$workload" \
        --seed "$3" --seconds "$seconds" --trace 0 --out "$root/target/ab/out" | tail -n 1) || true
    # A run that failed or printed something else last counts as failed
    # (`null`), so one bad run cannot spoil the summary of the others.
    if ! printf '%s' "$line" | python3 -c 'import json, sys; sys.exit(not isinstance(json.load(sys.stdin), dict))' 2>/dev/null; then
        echo "  $1 seed $3: no JSON result line" >&2
        line=null
    fi
    printf '{"side": "%s", "seed": %s, "result": %s}\n' "$1" "$3" "$line" >>"$results"
}

summarize() { # <results> <workload>
    python3 - "$1" "$commit" "$2" <<'EOF'
import json, random, statistics, sys

path, commit, workload = sys.argv[1:4]
decl = json.load(open("BENCHMARK.json"))
metrics = [(m["name"], m["better"]) for m in decl["end_to_end"]]
runs = {"base": {}, "change": {}}
failed = {"base": [0, 0], "change": [0, 0]}
for line in open(path):
    row = json.loads(line)
    res = row["result"] or {"metrics": {}, "failed": 1, "attempted": 1}
    runs[row["side"]][row["seed"]] = res["metrics"]
    failed[row["side"]][0] += res.get("failed", 0)
    failed[row["side"]][1] += res.get("attempted", 0)
seeds = sorted(set(runs["base"]) & set(runs["change"]))
present = [(n, b) for n, b in metrics
           if any(n in runs["base"][s] and n in runs["change"][s] for s in seeds)]

def ratio_interval(ratios, resamples=2000, seed=1):
    """Median per-pair ratio and its 95 % percentile-bootstrap interval:
    the pairs are resampled with replacement, with a fixed seed."""
    rng = random.Random(seed)
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                     for _ in range(resamples))
    return (statistics.median(ratios), medians[int(0.025 * resamples)],
            medians[int(0.975 * resamples) - 1])

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

print(f"{workload}: {commit} (base) vs working tree (change), {len(seeds)} pairs")
for name, better in present:
    pairs = [(runs["base"][s][name]["value"], runs["change"][s][name]["value"], s)
             for s in seeds if name in runs["base"][s] and name in runs["change"][s]]
    unit = runs["base"][pairs[0][2]][name]["unit"]
    print(f"\n{name} ({unit}, {better} is better)")
    wins = 0
    for b, c, s in pairs:
        won = c > b if better == "higher" else c < b
        wins += won
        print(f"  seed {s:>3}: base {b:12.4f}  change {c:12.4f}  {'win' if won else '   '}")
    bq = quartiles([p[0] for p in pairs])
    cq = quartiles([p[1] for p in pairs])
    for side, q in (("base", bq), ("change", cq)):
        print(f"  {side:>6}: median {q[1]:12.4f}  IQR {q[0]:.4f} .. {q[2]:.4f} ({q[2] - q[0]:.4f})")
    delta = (cq[1] - bq[1]) / bq[1] * 100 if bq[1] else float("nan")
    print(f"  change wins {wins}/{len(pairs)}; median {delta:+.1f} %; "
          f"|median shift| {'>' if abs(cq[1] - bq[1]) > bq[2] - bq[0] else '<='} base IQR")
    ratios = [c / b for b, c, _ in pairs if b]
    if ratios:
        mid, lo, hi = ratio_interval(ratios)
        print(f"  ratio change/base: median {mid:.4f}, 95 % bootstrap CI {lo:.4f} .. {hi:.4f}"
              f" ({len(ratios)} pairs)")
for side in ("base", "change"):
    f, a = failed[side]
    print(f"\nfailed share, {side}: {f}/{a}" + (f" = {f / a:.4f}" if a else ""))
print(f"\nresults: {path}")
EOF
}

for workload in $workloads; do
    results="$root/target/ab/$workload-$(date +%Y%m%dT%H%M%S).jsonl"
    : >"$results"
    for ((i = 0; i < pairs; i++)); do
        seed=$((first_seed + i))
        echo "$workload: pair $((i + 1))/$pairs, seed $seed" >&2
        if ((i % 2 == 0)); then
            run base "$base" "$seed"
            run change "$root" "$seed"
        else
            run change "$root" "$seed"
            run base "$base" "$seed"
        fi
    done
    summarize "$results" "$workload"
    echo
done
