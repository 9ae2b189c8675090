#!/usr/bin/env bash
# Neutrality gate: prove a change leaves the simulation and every exported
# artifact byte-identical to a base ref.
#
#   ci/neutral.sh <base-ref> [bench ...]
#
# Builds <base-ref> (checked out in a temporary git worktree) and the
# working tree side by side in Release mode, runs the same bench commands
# on seed 1 in a fresh directory for each, and cmp's every file they
# leave behind: stdout, the fig17 --timeline-ascii stderr, BENCH_* and
# TIMELINE_* JSON, Chrome traces (fig09/fig17 with --trace-sample=64, the
# unsampled fig_qos_interference trace), the fig09 --metrics-json snapshot
# and --exemplars JSONL. fig09 and fig17 also run a second time at their
# default flags, in a directory of their own, so the default BENCH_*,
# TIMELINE_* and stdout (built from the span sinks with no span store)
# are compared too; that run's BENCH_simcore.json is not, because its
# span and counter retention counts move with where spans are kept.
# BENCH_simcore.json carries host wall-clock times,
# so it is compared through the same timing-stripped projection as CI's
# profile-determinism step; telemetry_overhead.retained_bytes is a
# size-based memory estimate that legitimately moves with record layout,
# so its two values are printed instead of compared. A row that differs
# is listed key by key (path: base -> head).
#
# Benches: fig09_normal_read fig17_reconstruction fig_qos_interference
# campaign_durability (the default is these four), and every other
# figure binary: the degraded-path figures fig15_degraded_read_io_size
# fig16_degraded_read_stripe_width fig18_degraded_write
# fig28_r6_degraded_read fig29_r6_degraded_stripe_width
# fig30_r6_degraded_write, the store-heavy table1_overheads
# fig10_write_io_size fig20_objstore_normal fig21_objstore_degraded,
# the timer-heavy fig14_latency_throughput fig19_minikv_ycsb
# fig27_r6_latency_throughput, which arm the most per-op deadlines, the
# read-path figures fig13_write_read_ratio (mixed reads and writes on
# all three systems), fig22_r6_normal_read and fig26_r6_write_read_ratio,
# the write figures fig10_write_io_size and fig23_r6_write_io_size,
# which run every host-centric write mode (RMW, RCW, full stripe) on MD
# and SPDK at RAID-5 and RAID-6, the write-geometry sweeps
# fig11_write_chunk_size fig12_write_stripe_width
# fig24_r6_write_chunk_size fig25_r6_write_stripe_width, and
# ablation_design (stdout, BENCH_* JSON and the timing-stripped
# BENCH_simcore.json). Exit 0 when neutral.
set -euo pipefail

usage="usage: ci/neutral.sh <base-ref> [bench ...]"
base_ref=${1:?$usage}
shift
benches=("$@")
if [ ${#benches[@]} -eq 0 ]; then
    benches=(fig09_normal_read fig17_reconstruction fig_qos_interference
             campaign_durability)
fi
for b in "${benches[@]}"; do
    case $b in
      fig09_normal_read|fig17_reconstruction|fig_qos_interference|\
      campaign_durability|fig15_degraded_read_io_size|\
      fig18_degraded_write|fig28_r6_degraded_read|\
      fig30_r6_degraded_write|table1_overheads|fig10_write_io_size|\
      fig20_objstore_normal|fig14_latency_throughput|fig19_minikv_ycsb|\
      fig13_write_read_ratio|fig22_r6_normal_read|\
      fig23_r6_write_io_size|fig11_write_chunk_size|\
      fig12_write_stripe_width|fig16_degraded_read_stripe_width|\
      fig21_objstore_degraded|fig24_r6_write_chunk_size|\
      fig25_r6_write_stripe_width|fig26_r6_write_read_ratio|\
      fig27_r6_latency_throughput|fig29_r6_degraded_stripe_width|\
      ablation_design) ;;
      *) echo "neutral: unknown bench '$b'" >&2; echo "$usage" >&2; exit 2 ;;
    esac
done

repo=$(git rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/draid-neutral.XXXXXX")
cleanup() {
    git -C "$repo" worktree remove --force "$work/base-src" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

git -C "$repo" worktree add --detach --quiet "$work/base-src" "$base_ref"

jobs=$(nproc 2>/dev/null || echo 2)

build() { # <source-dir> <build-dir>
    cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release >/dev/null
    cmake --build "$2" -j "$jobs" --target "${benches[@]}" >/dev/null
}

default_run() { # <binary> <figure tag>, from inside an out-dir
    mkdir default
    (cd default && "$1" --seed=1 --strict-flags > "../default_stdout_$2.txt")
    mv "default/BENCH_$2.json" "default_BENCH_$2.json"
    mv "default/TIMELINE_$2.json" "default_TIMELINE_$2.json"
    rm -rf default
}

run() { # <build-dir> <out-dir>
    local bin=$1/bench
    mkdir -p "$2"
    (
        cd "$2"
        for b in "${benches[@]}"; do
            case $b in
              fig09_normal_read)
                "$bin/$b" --seed=1 --strict-flags --trace-sample=64 \
                    --trace=trace_fig09.json \
                    --metrics-json=metrics_fig09.json \
                    --exemplars=exemplars_fig09.jsonl > stdout_fig09.txt
                default_run "$bin/$b" fig09 ;;
              fig17_reconstruction)
                "$bin/$b" --seed=1 --strict-flags --trace-sample=64 \
                    --trace=trace_fig17.json --timeline-ascii \
                    > stdout_fig17.txt 2> ascii_fig17.txt
                default_run "$bin/$b" fig17 ;;
              fig_qos_interference)
                "$bin/$b" --seed=1 --strict-flags --trace=trace_qos.json \
                    > stdout_qos.txt ;;
              campaign_durability)
                "$bin/$b" --seed=1 --strict-flags --trials=8 \
                    > stdout_campaign.txt ;;
              *)
                "$bin/$b" --seed=1 --strict-flags \
                    --profile=BENCH_simcore.json > "stdout_$b.txt" ;;
            esac
            if [ -f BENCH_simcore.json ]; then
                mv BENCH_simcore.json "simcore_$b.json"
            fi
        done
    )
}

echo "neutral: building $base_ref and the working tree"
build "$work/base-src" "$work/base-build"
build "$repo" "$work/head-build"
echo "neutral: running ${benches[*]}"
run "$work/base-build" "$work/base-out"
run "$work/head-build" "$work/head-out"

status=0
base_files=$(cd "$work/base-out" && ls | sort)
head_files=$(cd "$work/head-out" && ls | sort)
if [ "$base_files" != "$head_files" ]; then
    echo "neutral: artifact sets differ" >&2
    diff <(echo "$base_files") <(echo "$head_files") >&2 || true
    status=1
fi
for f in $base_files; do
    case $f in simcore_*) continue ;; esac
    [ -f "$work/head-out/$f" ] || continue
    if cmp -s "$work/base-out/$f" "$work/head-out/$f"; then
        echo "  same  $f"
    else
        echo "  DIFF  $f" >&2
        status=1
    fi
done

python3 - "$work/base-out" "$work/head-out" <<'EOF' || status=1
import json, os, sys

def stripped(path):
    rows, retained = [], []
    for line in open(path):
        r = json.loads(line)
        r.pop("wall_ns", None)
        r.pop("events_per_sec", None)
        t = r.get("telemetry_overhead")
        if t is not None:
            t.pop("host_ns", None)
            t.pop("host_share", None)
            retained.append(t.pop("retained_bytes", None))
        srcs = r.pop("top_sources", [])
        for s in srcs:
            for k in ("total_ns", "min_ns", "max_ns", "mean_ns", "share"):
                s.pop(k, None)
        r["top_sources"] = sorted(srcs, key=lambda s: s["label"])
        rows.append(r)
    return rows, retained

def diffs(a, b, path):
    """Yield (key path, base value, head value) for every leaf that differs."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b), key=str):
            yield from diffs(a.get(k, "<absent>"), b.get(k, "<absent>"),
                             f"{path}.{k}")
    elif (isinstance(a, list) and isinstance(b, list) and
          all(isinstance(x, dict) and "label" in x for x in a + b)):
        yield from diffs({x["label"]: x for x in a},
                         {x["label"]: x for x in b}, path)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from diffs(x, y, f"{path}[{i}]")
    elif a != b:
        yield path, a, b

base_dir, head_dir = sys.argv[1], sys.argv[2]
ok = True
for name in sorted(os.listdir(base_dir)):
    if not name.startswith("simcore_"):
        continue
    a, ra = stripped(os.path.join(base_dir, name))
    b, rb = stripped(os.path.join(head_dir, name))
    same = a == b
    ok = ok and same
    print(f"  {'same' if same else 'DIFF'}  {name} (timing-stripped); "
          f"retained_bytes {ra} -> {rb}")
    for path, x, y in diffs(a, b, "rows"):
        print(f"        {path}: {x} -> {y}")
sys.exit(0 if ok else 1)
EOF

if [ $status -eq 0 ]; then
    echo "neutral: byte-identical to $base_ref"
else
    echo "neutral: output differs from $base_ref" >&2
fi
exit $status
