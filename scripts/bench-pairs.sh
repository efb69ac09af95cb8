#!/bin/sh
# Alternating paired runs of the benchmark: a base commit against the
# working tree.
#
#   scripts/bench-pairs.sh BASE [PAIRS [SEED]]
#
# Builds the binary behind BENCHMARK.json's command twice: at BASE,
# extracted with `git archive` into a temporary directory with its own
# target directory, and from the working tree. Then, per workload, it runs PAIRS
# pairs (default 10) with `--seconds` set to BENCHMARK.json's
# `run_seconds` and `--seed SEED` (default 1), alternating which side runs
# first. For each workload and end-to-end metric it prints, as a Markdown
# table row: the base's median and quartile spread (Q3 - Q1, quartiles as
# Python's `statistics.quantiles` computes them), the change's median, the
# ratio change/base, the pairs the change won in the metric's `better`
# direction, and whether the change's median is within the metric's
# `bound` of the base's. A second table gives both sides' failed ops and
# correct runs.
#
# WORKLOADS="a b" limits the run to those workloads. The temporary
# directory comes from mktemp (set TMPDIR to move it). The script reads
# only BENCHMARK.json and perfbench/; a full run takes tens of minutes.
set -eu

if [ $# -lt 1 ] || [ $# -gt 3 ]; then
    echo "usage: $0 BASE [PAIRS [SEED]]" >&2
    exit 2
fi
base_rev=$(git rev-parse --verify "$1^{commit}")
pairs=${2:-10}
seed=${3:-1}

cd "$(git rev-parse --show-toplevel)"

# spec: one line per declared item, `seconds N`, `workload NAME` or
# `metric NAME BETTER BOUND`, from BENCHMARK.json's one-object-per-line layout
spec=$(awk '
    function str(key,   s) {
        if (!match($0, "\"" key "\": *\"[^\"]*\"")) return ""
        s = substr($0, RSTART, RLENGTH)
        sub(/^[^:]*: *"/, "", s)
        sub(/"$/, "", s)
        return s
    }
    function num(key,   s) {
        if (!match($0, "\"" key "\": *[-0-9.eE+]+")) return ""
        s = substr($0, RSTART, RLENGTH)
        sub(/^[^:]*: */, "", s)
        return s
    }
    /"run_seconds"/ { print "seconds", num("run_seconds") }
    /"workloads"/ { section = "workload" }
    /"end_to_end"/ { section = "metric" }
    /"per_layer"/ { section = "" }
    /"name"/ {
        if (section == "workload") print "workload", str("name")
        if (section == "metric") print "metric", str("name"), str("better"), num("bound")
    }' BENCHMARK.json)
seconds=$(printf '%s\n' "$spec" | awk '$1 == "seconds" { print $2 }')
workloads=${WORKLOADS:-$(printf '%s\n' "$spec" | awk '$1 == "workload" { print $2 }')}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM

echo "building the benchmark at $(git rev-parse --short "$base_rev") and from the working tree" >&2
mkdir "$tmp/base"
git archive "$base_rev" | tar -x -C "$tmp/base"
cargo build --release --offline --quiet --manifest-path "$tmp/base/perfbench/Cargo.toml" \
    --bin bench --target-dir "$tmp/target"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml --bin bench
base_bin=$tmp/target/release/bench
change_bin=perfbench/target/release/bench

# run SIDE WORKLOAD PAIR: one run, appended to the results as
# `workload side pair key value` lines (the key `correct` holds 1 or 0)
results=$tmp/results
run() {
    if [ "$1" = base ]; then bin=$base_bin; else bin=$change_bin; fi
    line=$("$bin" --workload "$2" --seed "$seed" --seconds "$seconds" 2>/dev/null | tail -n 1) || true
    printf '%s\n' "$line" | awk -v w="$2" -v side="$1" -v pair="$3" '{
        print w, side, pair, "correct", (index($0, "\"correct\": true") ? 1 : 0)
        if (match($0, /"failed": *[0-9]+/)) {
            s = substr($0, RSTART, RLENGTH); sub(/^[^:]*: */, "", s)
            print w, side, pair, "failed", s
        }
        rest = $0
        while (match(rest, /"[A-Za-z0-9_.]+": \{"value": [-0-9.eE+]+/)) {
            m = substr(rest, RSTART, RLENGTH)
            rest = substr(rest, RSTART + RLENGTH)
            split(m, parts, "\"")
            v = m; sub(/^.*"value": /, "", v)
            print w, side, pair, parts[2], v
        }
    }' >>"$results"
}

: >"$results"
for w in $workloads; do
    i=1
    while [ "$i" -le "$pairs" ]; do
        echo "$w: pair $i/$pairs" >&2
        if [ $((i % 2)) -eq 1 ]; then
            run base "$w" "$i"
            run change "$w" "$i"
        else
            run change "$w" "$i"
            run base "$w" "$i"
        fi
        i=$((i + 1))
    done
done

{
    printf '%s\n' "$spec" | awk '$1 == "metric" { print "spec", $2, $3, $4 }'
    printf 'order %s\n' $workloads
    cat "$results"
} | awk -v pairs="$pairs" -v seed="$seed" -v seconds="$seconds" '
    function sort(a, n,   i, j, t) {
        for (i = 2; i <= n; i++) {
            t = a[i]
            for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
            a[j + 1] = t
        }
    }
    function median(a, n) {
        return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
    }
    # Python statistics.quantiles(n=4), exclusive method, on sorted a[1..n]
    function quartile(a, n, i,   m, j, delta) {
        m = n + 1
        j = int(i * m / 4)
        if (j < 1) j = 1
        if (j > n - 1) j = n - 1
        delta = i * m - j * 4
        return (a[j] * (4 - delta) + a[j + 1] * delta) / 4
    }
    $1 == "spec" { nm++; mname[nm] = $2; better[$2] = $3; bound[$2] = $4; next }
    $1 == "order" { nw++; wname[nw] = $2; next }
    { val[$1, $2, $3, $4] = $5 }
    END {
        printf "%d alternating pairs per workload, --seconds %s, --seed %s; base median [quartile spread]\n\n", pairs, seconds, seed
        print "| workload | metric | base | change | ratio | change better | within bound |"
        print "|---|---|---:|---:|---:|---:|---|"
        for (wi = 1; wi <= nw; wi++) {
            w = wname[wi]
            for (mi = 1; mi <= nm; mi++) {
                m = mname[mi]
                nb = nc = wins = 0
                for (p = 1; p <= pairs; p++) {
                    hb = ((w, "base", p, m) in val); hc = ((w, "change", p, m) in val)
                    if (hb) b[++nb] = val[w, "base", p, m] + 0
                    if (hc) c[++nc] = val[w, "change", p, m] + 0
                    if (hb && hc) {
                        x = val[w, "base", p, m] + 0; y = val[w, "change", p, m] + 0
                        if ((better[m] == "lower" && y < x) || (better[m] == "higher" && y > x)) wins++
                    }
                }
                if (nb == 0 || nc == 0) {
                    printf "| %s | %s | missing | missing | | | |\n", w, m
                    continue
                }
                sort(b, nb); sort(c, nc)
                mb = median(b, nb); mc = median(c, nc)
                spread = nb >= 2 ? quartile(b, nb, 3) - quartile(b, nb, 1) : 0
                ratio = mb != 0 ? mc / mb : 0
                if (better[m] == "lower") ok = mc <= mb * (1 + bound[m])
                else ok = mc >= mb * (1 - bound[m])
                printf "| %s | %s | %.3f [%.3f] | %.3f | %.3f | %d/%d | %s |\n", \
                    w, m, mb, spread, mc, ratio, wins, pairs, ok ? "yes" : "NO"
            }
        }
        print ""
        print "| workload | base failed ops | base correct runs | change failed ops | change correct runs |"
        print "|---|---:|---:|---:|---:|"
        for (wi = 1; wi <= nw; wi++) {
            w = wname[wi]
            fb = fc = cb = cc = 0
            for (p = 1; p <= pairs; p++) {
                fb += val[w, "base", p, "failed"]; fc += val[w, "change", p, "failed"]
                cb += val[w, "base", p, "correct"]; cc += val[w, "change", p, "correct"]
            }
            printf "| %s | %d | %d/%d | %d | %d/%d |\n", w, fb, cb, pairs, fc, cc, pairs
        }
    }'
