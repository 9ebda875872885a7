#!/bin/bash
# Regenerates every table and figure of the paper; logs under results/.
#
# Table 1 is analytic and has its own binary; every other table and
# figure is a grid of the sweep engine. Flags are forwarded to `sweep`
# and `summarize`: --full (larger configuration, records under
# results/sweep-full), --seed <n> or --seeds <n|a,b,c>, --jobs <n>,
# --experiments <a,b>, --resume <dir>, and --trace <dir>. Records
# already on disk are skipped, so rerunning this script after a crash
# or interruption continues where it stopped; with --resume each job
# also checkpoints into its own subdirectory of <dir> every few rounds
# and continues from its newest valid snapshot. With --trace each job
# streams a .jsonl trace into <dir>, and the script renders a combined
# trace_report at the end.
#
# pipefail matters: every run is piped through tee, and without it a
# crashed experiment would vanish into tee's exit status 0.
set -uo pipefail
cd "$(dirname "$0")"
mkdir -p results/logs

# Detect --trace <dir> among the forwarded flags so we can render the
# report afterwards; the flag itself still reaches the sweep.
trace_dir=""
prev=""
for a in "$@"; do
    if [ "$prev" = "--trace" ]; then
        trace_dir="$a"
    fi
    prev="$a"
done

run() {
    local name="$1"
    shift
    echo "=== running $name ($(date +%H:%M:%S)) ==="
    if ! ./target/release/"$name" "$@" 2>&1 | tee "results/logs/$name.log"; then
        echo "=== FAILED: $name — see results/logs/$name.log ===" >&2
        exit 1
    fi
}

run table1
run sweep "$@"
run summarize "$@"
if [ -n "$trace_dir" ]; then
    run trace_report "$trace_dir"
fi
echo "=== all experiments done ($(date +%H:%M:%S)) ==="
