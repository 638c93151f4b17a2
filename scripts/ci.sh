#!/usr/bin/env bash
# Repo CI gate: formatting, lints, release build (with examples), tests.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

# start_server LOG WHAT CMD...: runs CMD in the background with its
# stdout in LOG and waits (30 s) for the line
# "serving WHAT at http://ADDR ..." to appear there. Leaves the
# address in SERVER_ADDR and the job's pid in SERVER_PID (`wait` on it
# once the scrapes are done); on timeout prints the log and fails.
start_server() {
    local log=$1 what=$2
    shift 2
    : >"$log" # exists before the first poll, whichever process runs first
    "$@" >"$log" &
    SERVER_PID=$!
    for _ in $(seq 1 150); do
        SERVER_ADDR=$(sed -n "s|^serving $what at http://\([0-9.:]*\) .*|\1|p" "$log")
        [ -n "$SERVER_ADDR" ] && return 0
        sleep 0.2
    done
    echo "error: $what server never came up" >&2
    cat "$log" >&2
    kill "$SERVER_PID" 2>/dev/null || true
    exit 1
}

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

# Diagnostics in the pipeline crates must flow through the telemetry
# event log (leveled, kept by the flight recorder), not raw stderr.
# odin-telemetry's Registry::event is the one place allowed to eprintln.
echo "==> eprintln gate (crates/core, crates/store)"
if grep -rn 'eprintln!' crates/core/src crates/store/src; then
    echo "error: eprintln! in pipeline crates; use Telemetry::event" >&2
    exit 1
fi

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release --workspace --bins --examples"
# --bins matters: the smokes below invoke target/release/odin by path,
# which a bare --examples build never produces on a cold target dir.
cargo build --release --workspace --bins --examples

echo "==> cargo test -q"
cargo test -q

# The tensor backend must be bit-identical at any thread count; run the
# suite once more with a 2-thread worker pool to catch regressions that
# only show up when kernels actually fan out.
echo "==> ODIN_THREADS=2 cargo test -q"
ODIN_THREADS=2 cargo test -q

# ...and bit-identical across SIMD dispatch: run the kernel-owning
# crates once more with the vector paths disabled, so the scalar
# fallbacks (the semantics reference) stay green on their own. This
# includes the pinned inference hashes (`inference_identity`: teacher,
# Small detector and DA-GAN encoder outputs), which the step above ran
# at 2 threads; each run also pins every level the CPU offers in-process.
echo "==> ODIN_NO_SIMD=1 cargo test -q -p odin-tensor -p odin-detect -p odin-gan"
ODIN_NO_SIMD=1 cargo test -q -p odin-tensor -p odin-detect -p odin-gan

# The pinned training and inference hashes ran above at the machine's
# thread count, at 2 threads and with SIMD off; a serial pool is the
# one setting left. The tensor crate's own suite runs there too: the
# serial branch of every product (the convolution's `dW` included) and
# the steady-state allocation count on a one-thread pool.
echo "==> ODIN_THREADS=1 training + inference identity (odin-detect, odin-gan), odin-tensor"
ODIN_THREADS=1 cargo test -q -p odin-detect -p odin-gan --test training_identity \
    --test inference_identity
ODIN_THREADS=1 cargo test -q -p odin-tensor

# The trainer's scheduling (workers, a barrier that trains queued jobs
# itself, panicking jobs, drop) ran above at the machine's thread count
# and at 2 threads; run it once more on a serial tensor pool.
echo "==> ODIN_THREADS=1 trainer tests (odin-core training unit tests, training_modes)"
ODIN_THREADS=1 cargo test -q -p odin-core --lib training::
ODIN_THREADS=1 cargo test -q -p odin-core --test training_modes

# Crash-recovery smoke: write a checkpoint with a 2-thread tensor
# backend, truncate / bit-flip it, and require that (a) the corruption
# is reported through the CRC/version checks and (b) a cold bootstrap
# still comes up clean. The warm_restart example then drives the full
# checkpoint -> crash -> restore -> bit-identical-serving path in a
# real process. The crash-window test cuts the WAL between a Drift
# record and its Install and requires the restored cluster to retrain.
# The prefix sweep cuts a WAL and an event log at every byte and
# requires each prefix to read, reopen and append cleanly.
echo "==> crash-recovery smoke (ODIN_THREADS=2)"
ODIN_THREADS=2 cargo test -q -p odin-core --test checkpoint -- \
    truncated_checkpoint_falls_back_to_cold_bootstrap bit_flip_is_detected \
    crash_between_drift_and_install_retrains_the_cluster
ODIN_THREADS=2 cargo test -q -p odin-log --test prefix_sweep
ODIN_THREADS=2 cargo run --release -p odin-core --example warm_restart >/dev/null

# Telemetry smoke: the stage-latency table must run end-to-end (store
# enabled, drift recovered, metrics and Chrome trace dumped) without a
# single store error. The HTTP exposition is scraped in the
# multi-stream smoke below.
echo "==> telemetry smoke (table_telemetry --scale 0.05)"
SMOKE_DIR=/tmp/odin-ci-telemetry
rm -rf "$SMOKE_DIR"
mkdir -p "$SMOKE_DIR"
cargo run --release -p odin-bench --bin table_telemetry -- --scale 0.05 --out "$SMOKE_DIR" \
    >"$SMOKE_DIR/run.log"
grep -q "store errors: 0" "$SMOKE_DIR/run.log"
jq -e '.traceEvents | length > 0' "$SMOKE_DIR/table_telemetry_trace.json" >/dev/null

# Multi-stream serving smoke: bring up the 4-stream OdinServer example
# with the per-shard event log enabled, let its client threads feed all
# four streams concurrently through the real HTTP ingest route, and
# scrape the merged exposition: /healthz must be live with 4 streams,
# and /metrics must carry per-stream labeled serving gauges/counters
# for every shard. The live-observability verbs then run against the
# same window: `odin tail` must stream the detect -> install arc with
# per-stream monotonic seqs, `tail -f` must follow, `top --once` and
# `status` must render and exit zero, and `flight` must pull a
# non-empty Chrome trace.
echo "==> multi-stream serving smoke (multistream_server example)"
ODIN_BIN=target/release/odin
MS_DIR=/tmp/odin-ci-multistream
rm -rf "$MS_DIR"
mkdir -p "$MS_DIR"
start_server "$MS_DIR/run.log" multistream \
    env ODIN_SERVE_MS=15000 ODIN_STORE_DIR="$MS_DIR/store" \
    cargo run --release -p odin-core --example multistream_server
MS_ADDR=$SERVER_ADDR
# Wait for the in-process HTTP clients to finish feeding the streams.
for _ in $(seq 1 150); do
    grep -q '^http ingest: ' "$MS_DIR/run.log" && break
    sleep 0.2
done
grep -q '^http ingest: 40 frames accepted across 4 streams' "$MS_DIR/run.log"
curl -fsS "http://$MS_ADDR/healthz" | jq -e '.status == "ok" and .streams == 4' >/dev/null
# grep -c (not -q): -q bails at the first match and the echo side of
# the pipe dies with 141 (SIGPIPE) once the exposition outgrows the
# pipe buffer; -c drains the whole stream and still fails when there is
# no match.
MS_METRICS=$(curl -fsS "http://$MS_ADDR/metrics")
for s in 0 1 2 3; do
    echo "$MS_METRICS" | grep -c "^odin_server_queue_depth{stream=\"$s\"}" >/dev/null
    echo "$MS_METRICS" | grep -c "^odin_server_admitted_total{stream=\"$s\"} 50$" >/dev/null
    echo "$MS_METRICS" | grep -c "^odin_frames_total{stream=\"$s\"}" >/dev/null
    echo "$MS_METRICS" | grep -c "^odin_serve_precision{stream=\"$s\"}" >/dev/null
done
# `odin tail` over GET /events: the one-shot drain must carry the full
# recovery arc (drift detected and model installed on every stream) and
# per-stream seqs must be strictly monotonic — no dropped or torn
# records across the cursor pages.
"$ODIN_BIN" tail --addr "$MS_ADDR" --json --limit 4096 >"$MS_DIR/tail.json"
jq -s -e '[.[].kind] | (contains(["drift_detected"]) and contains(["model_installed"]))' \
    "$MS_DIR/tail.json" >/dev/null
jq -s -e 'group_by(.stream) | length == 4 and all(.[];
    ([.[].seq] as $s | $s == ($s|sort) and ($s|length == ($s|unique|length))))' \
    "$MS_DIR/tail.json" >/dev/null
# Follow mode long-polls the same route; a bounded window must replay
# the backlog and exit cleanly.
"$ODIN_BIN" tail -f --for 1500ms --addr "$MS_ADDR" --json >"$MS_DIR/tail_follow.json"
jq -s -e 'length > 0' "$MS_DIR/tail_follow.json" >/dev/null
"$ODIN_BIN" top --addr "$MS_ADDR" --once >"$MS_DIR/top.log"
grep -q 'status: ok' "$MS_DIR/top.log"
# `status` against the sharded exposition: its /healthz carries
# queue_cap and queue_depths, and its metrics and recovery histogram
# are labeled per stream.
"$ODIN_BIN" status --addr "$MS_ADDR" >"$MS_DIR/status.log"
grep -q '"status":"ok"' "$MS_DIR/status.log"
grep -q '^odin_frames_total{stream="0"}' "$MS_DIR/status.log"
grep -q '^odin_recovery_ms{stream="3"} p50 ' "$MS_DIR/status.log"
"$ODIN_BIN" flight --addr "$MS_ADDR" --out "$MS_DIR/flight.json" >/dev/null
jq -e '.traceEvents | length > 0' "$MS_DIR/flight.json" >/dev/null
wait "$SERVER_PID"

# Event-log + ops-CLI smoke: run a drift stream with the log enabled at
# two tensor thread counts and require byte-identical events.odlg and
# events.wal (both logs inherit replay determinism), then drive the `odin` CLI over the
# written store: `scan` must find the drift records with predicate
# filters and report zone-map pruning, and `explain` must reconstruct
# the detect -> queued -> installed arc (`status` runs against the live
# server in the multi-stream smoke). A small log_throughput run keeps
# the bench bin itself green.
echo "==> event log + odin CLI smoke (event_log example, both thread counts)"
EL_DIR=/tmp/odin-ci-eventlog
rm -rf "$EL_DIR"
mkdir -p "$EL_DIR"
ODIN_THREADS=1 ODIN_STORE_DIR="$EL_DIR/t1" \
    cargo run --release -p odin-core --example event_log >"$EL_DIR/t1.log"
ODIN_THREADS=2 ODIN_STORE_DIR="$EL_DIR/t2" \
    cargo run --release -p odin-core --example event_log >"$EL_DIR/t2.log"
grep -q '^drift detected: ' "$EL_DIR/t1.log"
grep -q '^model installed: ' "$EL_DIR/t1.log"
cmp "$EL_DIR/t1/events.odlg" "$EL_DIR/t2/events.odlg"
cmp "$EL_DIR/t1/events.wal" "$EL_DIR/t2/events.wal"
"$ODIN_BIN" scan --log "$EL_DIR/t1/events.odlg" --kind drift --stats \
    >"$EL_DIR/scan.log" 2>"$EL_DIR/scan.stats"
grep -q 'drift_detected' "$EL_DIR/scan.log"
grep -q 'pruned by zone maps' "$EL_DIR/scan.stats"
"$ODIN_BIN" scan --log "$EL_DIR/t1/events.odlg" --since 60ms --served teacher --json \
    | jq -e '(length > 0) and all(.[]; .served == "teacher" and .ts_us >= 60000)' >/dev/null
"$ODIN_BIN" explain --log "$EL_DIR/t1/events.odlg" >"$EL_DIR/explain.log"
grep -q 'drift detected' "$EL_DIR/explain.log"
grep -q 'train queued' "$EL_DIR/explain.log"
grep -q 'model installed' "$EL_DIR/explain.log"
cargo run --release -p odin-bench --bin log_throughput -- \
    --scale 0.1 --out /tmp/odin-ci-bench >/dev/null

# Model-attic smoke: a recurring night/day stream under a 1-cluster cap
# must archive evicted models and reinstall them on regime return, at
# both tensor thread counts with byte-identical event logs and WALs. The `odin`
# CLI must surface the new arc: `scan --kind attic_hit` finds the
# reinstall records, `explain` shows the attic stage inside the arc.
echo "==> model attic smoke (attic_reinstall example, both thread counts)"
AT_DIR=/tmp/odin-ci-attic
rm -rf "$AT_DIR"
mkdir -p "$AT_DIR"
ODIN_THREADS=1 ODIN_STORE_DIR="$AT_DIR/t1" \
    cargo run --release -p odin-core --example attic_reinstall >"$AT_DIR/t1.log"
ODIN_THREADS=2 ODIN_STORE_DIR="$AT_DIR/t2" \
    cargo run --release -p odin-core --example attic_reinstall >"$AT_DIR/t2.log"
grep -q '^attic hit: ' "$AT_DIR/t1.log"
cmp "$AT_DIR/t1/events.odlg" "$AT_DIR/t2/events.odlg"
cmp "$AT_DIR/t1/events.wal" "$AT_DIR/t2/events.wal"
"$ODIN_BIN" scan --log "$AT_DIR/t1/events.odlg" --kind attic_hit >"$AT_DIR/scan.log"
grep -q 'attic_hit' "$AT_DIR/scan.log"
# File-mode tail over the same log: the kind filter must page through
# to the reinstall records even when whole pages are filtered out.
"$ODIN_BIN" tail --log "$AT_DIR/t1/events.odlg" --kind attic --json >"$AT_DIR/tail.json"
jq -s -e '(length > 0) and all(.[]; .kind == "attic_hit")' "$AT_DIR/tail.json" >/dev/null
"$ODIN_BIN" explain --log "$AT_DIR/t1/events.odlg" >"$AT_DIR/explain.log"
grep -q 'attic reinstall' "$AT_DIR/explain.log"

# Multi-stream scaling gate: re-measure the sharded-serving table at
# reduced scale (open-loop rates make the FPS columns scale-invariant)
# and require (a) aggregate FPS within 30% of the committed baseline
# per row and (b) the headline scaling property — 4 concurrent streams
# deliver at least 1.5x the aggregate FPS of 1 stream at 4 tensor
# threads (the committed table shows 4x; 1.5x absorbs CI noise).
echo "==> bench gate (table_multistream vs results/table_multistream.json)"
cargo run --release -p odin-bench --bin table_multistream -- \
    --scale 0.3 --out /tmp/odin-ci-bench >/dev/null
cp /tmp/odin-ci-bench/table_multistream.json results/BENCH_table_multistream.json
cargo run --release -p odin-bench --bin bench_gate -- \
    --baseline results/table_multistream.json \
    --candidate results/BENCH_table_multistream.json \
    --column 2 --max-drop-pct 30
jq -e '
  (.rows[] | select(.[0] == "1s/4t") | .[2] | tonumber) as $one
  | (.rows[] | select(.[0] == "4s/4t") | .[2] | tonumber) as $four
  | ($four / $one) >= 1.5
' results/BENCH_table_multistream.json >/dev/null || {
    echo "error: 4-stream aggregate FPS did not scale >= 1.5x over 1 stream" >&2
    exit 1
}

# Benchmark regression gate: re-measure table 4 and require throughput
# within 15% of the committed baseline (results/table4.json). The fresh
# run is recorded as results/BENCH_table4.json for inspection. The run
# itself asserts (and prints) the install-time int8 mAP gate; the grep
# makes the PASS line a CI artifact.
echo "==> bench gate (table4 throughput vs results/table4.json)"
cargo run --release -p odin-bench --bin table4_throughput_memory -- \
    --out /tmp/odin-ci-bench >/tmp/odin-ci-bench/table4.log
grep 'int8 mAP gate' /tmp/odin-ci-bench/table4.log
grep -q 'int8 mAP gate.*PASS' /tmp/odin-ci-bench/table4.log
cp /tmp/odin-ci-bench/table4.json results/BENCH_table4.json
cargo run --release -p odin-bench --bin bench_gate -- \
    --baseline results/table4.json --candidate results/BENCH_table4.json \
    --column 2 --max-drop-pct 15

# ServePrecision headline gate: the int8 serving path must deliver at
# least 2x the frozen pre-SIMD scalar-f32 throughput for the
# specialized/lite detectors. results/table4_pre_simd.json is never
# overwritten by CI, and the negative drop budget inverts the gate into
# a required improvement (drop <= -100% == candidate >= 2x baseline).
echo "==> bench gate (int8 >= 2x pre-SIMD f32, results/table4_pre_simd.json)"
cargo run --release -p odin-bench --bin bench_gate -- \
    --baseline results/table4_pre_simd.json --candidate results/BENCH_table4.json \
    --column 2 --max-drop-pct -100 \
    --rows YOLO-SPECIALIZED-INT8,YOLO-LITE-INT8

# Attic headline gate: on the recurring-drift schedule, the median
# recovery with the attic on (signature match + reinstall) must be at
# least 10x faster than a full retrain. bench_gate compares same-labeled
# rows across two files, so the fresh run's retrain row is relabeled as
# the attic row to serve as the baseline: the negative drop budget
# (-900% == candidate >= 10x baseline) then gates the rec/s ratio
# between the two rows of the same run — self-calibrating across boxes.
echo "==> bench gate (table8 recurring: attic reinstall >= 10x retrain)"
cargo run --release -p odin-bench --bin table8_recovery_latency -- \
    --scale 0.3 --out /tmp/odin-ci-bench >/tmp/odin-ci-bench/table8.log
grep -q 'attic shape check' /tmp/odin-ci-bench/table8.log
cp /tmp/odin-ci-bench/table8_recurring.json results/BENCH_table8_recurring.json
jq '.rows = [ .rows[] | select(.[0] == "Recurring-retrain") | .[0] = "Recurring-attic" ]' \
    results/BENCH_table8_recurring.json >/tmp/odin-ci-bench/table8_retrain_as_baseline.json
cargo run --release -p odin-bench --bin bench_gate -- \
    --baseline /tmp/odin-ci-bench/table8_retrain_as_baseline.json \
    --candidate results/BENCH_table8_recurring.json \
    --column 4 --max-drop-pct -900 --rows Recurring-attic

# Kernel-level regression gate: re-measure the tensor micro-benchmarks
# and require GFLOP/s within 40% of the committed baseline
# (results/tensor_gflops.json) for the numeric rows — the wide budget
# absorbs thermal noise on small CI boxes; --rows skips the
# latency-only rows whose GFLOP/s cell is "-". The whole int8 frame
# (detect_small_int8), a whole training step (train_step_small_b8),
# the input-gradient scatter (col2im_small1) and the teacher-served
# frame's two halves (detect_teacher_b1, dagan_encode_b1) are such
# rows, so they are gated on their own column: ms per call may not grow
# by more than the same 40 %.
echo "==> bench gate (tensor_gflops vs results/tensor_gflops.json)"
cargo run --release -p odin-bench --bin tensor_gflops -- \
    --out /tmp/odin-ci-bench >/dev/null
cp /tmp/odin-ci-bench/tensor_gflops.json results/BENCH_tensor_gflops.json
cargo run --release -p odin-bench --bin bench_gate -- \
    --baseline results/tensor_gflops.json --candidate results/BENCH_tensor_gflops.json \
    --column 2 --max-drop-pct 40 \
    --rows matmul,matmul_nt,matmul_tn,matmul_scalar,matmul_nt_scalar,matmul_tn_scalar,matmul_avx2,matmul_nt_avx2,matmul_tn_avx2,conv2d_fwd,conv2d_fwd_bwd,matmul_tn_small0,matmul_tn_small1,matmul_tn_small2,conv2d_b1_teacher12,conv2d_b1_teacher6,conv2d_b1_encoder48,dense_b1,conv2d_int8,qconv_small0,qconv_small1,qconv_small2,qconv_small3,dot_i8
for row in detect_small_int8 train_step_small_b8 col2im_small1 detect_teacher_b1 dagan_encode_b1; do
    jq -e --arg row "$row" --slurpfile base results/tensor_gflops.json '
      def ms(t): t.rows[] | select(.[0] == $row) | .[3] | tonumber;
      ms(.) <= 1.4 * ms($base[0])
    ' results/BENCH_tensor_gflops.json >/dev/null || {
        echo "error: $row is more than 40% slower than results/tensor_gflops.json" >&2
        exit 1
    }
done

# Wire-level benchmark: its own workspace (the root build and tests do
# not see it), so it needs its own step. Unit tests plus its 2-second
# smoke of all four workloads, then one short run each of the teacher
# (f32) and the post-recovery (int8) workload through the real command,
# whose result line must report correct outputs.
echo "==> benchmark/ tests + 2 s compute_dagan_teacher and edge_int8 runs"
(cd benchmark && cargo test --release --offline)
for workload in compute_dagan_teacher edge_int8; do
    benchmark/run.sh --workload "$workload" --seed 1 --seconds 2 --trace 0 \
        | tail -n 1 | jq -e '.correct == true' >/dev/null
done

echo "CI OK"
