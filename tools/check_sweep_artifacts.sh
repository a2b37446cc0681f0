#!/usr/bin/env bash
# Pin the sweep artifacts: run every figure, table and ablation binary
# in quick mode at ASAP_JOBS=1 and at ASAP_JOBS=4, and require that the
# two runs leave byte-identical result files (journals included) and
# stdout. With REF_DIR (the OUT_DIR of another build, e.g. the parent
# commit's), both runs must also match that reference byte for byte.
#
# Usage: tools/check_sweep_artifacts.sh BUILD_DIR OUT_DIR [REF_DIR]
#
# OUT_DIR/jobs<N>/results/ holds what ASAP_RESULTS_DIR received and
# OUT_DIR/jobs<N>/stdout/<binary>.txt each binary's stdout. Stderr
# (progress lines, scheduling-dependent order) goes to
# OUT_DIR/jobs<N>/stderr/ and is not compared. Exits non-zero on any
# difference or on any binary that fails.

set -euo pipefail

if [[ $# -lt 2 || $# -gt 3 ]]; then
    echo "usage: $0 BUILD_DIR OUT_DIR [REF_DIR]" >&2
    exit 2
fi
build=$1
out=$2
ref=${3:-}
src=$(cd "$(dirname "$0")/.." && pwd)

# Every bench/*.cc binary except the calibration probe and the two
# host-timing benchmarks, whose output is wall-clock by design.
benches=()
for file in "$src"/bench/*.cc; do
    name=$(basename "$file" .cc)
    case $name in
        calibrate | micro_structures | perf_hotpath) continue ;;
    esac
    benches+=("$name")
done

status=0
rm -rf "$out"
for jobs in 1 4; do
    dir=$out/jobs$jobs
    mkdir -p "$dir/results" "$dir/stdout" "$dir/stderr"
    for name in "${benches[@]}"; do
        args=()
        case $name in
            fig_drift | fig_server) args=(--quick) ;;
        esac
        # Unset every knob that makes artifacts nondeterministic or
        # changes what a sweep runs.
        if ! env -u ASAP_PROFILE -u ASAP_TIMELINE -u ASAP_FAULT \
            -u ASAP_RESUME -u ASAP_CELL_TIMEOUT -u ASAP_CELL_RETRIES \
            -u ASAP_RETRY_BASE_MS \
            ASAP_QUICK=1 ASAP_JOBS=$jobs ASAP_RESULTS_DIR="$dir/results" \
            "$build/$name" "${args[@]}" \
            > "$dir/stdout/$name.txt" 2> "$dir/stderr/$name.txt"; then
            echo "FAIL: $name exited non-zero at ASAP_JOBS=$jobs" \
                "(see $dir/stderr/$name.txt)" >&2
            status=1
        fi
    done
done

compare() {
    if ! diff -r "$1/results" "$2/results" > /dev/null ||
        ! diff -r "$1/stdout" "$2/stdout" > /dev/null; then
        echo "FAIL: $1 and $2 differ:" >&2
        diff -rq "$1/results" "$2/results" >&2 || true
        diff -rq "$1/stdout" "$2/stdout" >&2 || true
        status=1
    fi
}

compare "$out/jobs1" "$out/jobs4"
if [[ -n $ref ]]; then
    compare "$ref/jobs1" "$out/jobs1"
    compare "$ref/jobs4" "$out/jobs4"
fi

files=$(find "$out/jobs1/results" -type f | wc -l)
if [[ $status -eq 0 ]]; then
    echo "OK: ${#benches[@]} binaries, $files result files per run," \
        "identical at ASAP_JOBS=1 and 4${ref:+ and to $ref}"
fi
exit $status
