#!/usr/bin/env bash
# Tier-1 verification: offline build + tests, then formatting and lints.
# The workspace has zero external dependencies, so everything runs with
# --offline against an empty registry cache.
set -euo pipefail
cd "$(dirname "$0")/.."

# Usage: thread_invariant ARTIFACT... -- COMMAND...
# Runs COMMAND at DUET_NUM_THREADS=1, 4 and 7 and checks with cmp that
# every ARTIFACT it writes comes out byte-identical in all three runs.
# The 7-thread artifacts stay in place for the caller to inspect and
# remove; the 1- and 4-thread copies are removed here.
thread_invariant() {
    local artifacts=() f t
    while [ "$1" != -- ]; do artifacts+=("$1"); shift; done
    shift
    rm -f "${artifacts[@]}"
    for t in 1 4 7; do
        DUET_NUM_THREADS=$t "$@" >/dev/null
        [ "$t" = 7 ] && break
        for f in "${artifacts[@]}"; do mv "$f" "${f%.*}.t$t.${f##*.}"; done
    done
    for f in "${artifacts[@]}"; do
        cmp "${f%.*}.t1.${f##*.}" "${f%.*}.t4.${f##*.}"
        cmp "${f%.*}.t1.${f##*.}" "$f"
        rm -f "${f%.*}.t1.${f##*.}" "${f%.*}.t4.${f##*.}"
    done
}

echo "== cargo build --release --offline =="
cargo build --workspace --release --offline

echo "== cargo test --offline =="
cargo test -q --workspace --offline

echo "== cargo test (DUET_NUM_THREADS=4) =="
# Simulator results must be bitwise thread-count invariant; re-run the
# sim suite with a pinned 4-thread fan-out to catch divergence.
DUET_NUM_THREADS=4 cargo test -q -p duet-sim --offline

echo "== every deterministic exhibit reproduces =="
# The figure and table exhibits print no timing and no thread count, so
# each is a pure function of the code, and the committed tables come from
# the release build above: each must print byte for byte what results/
# holds. fig10 covers the conv/MLP/RNN quality numbers, the others the
# simulator's cycle, energy and area models. BENCH_transformer.json (its
# sim_* fields price the transformer block) and FAULTS.json (its
# campaign_checksum covers the sweep's RNN and CNN latencies) are
# rewritten in place, so the committed copies are set aside and compared.
for exhibit in fig01_sensitivity fig02_insensitive_fraction fig10_quality_tradeoff \
    fig11_speedup_energy fig11b_sota_comparison fig12a_layerwise_speedup fig12b_utilization \
    fig12c_latency fig12d_rnn_latency fig12ef_energy_breakdown fig13_dse table1_area ablations \
    sensitivity_analysis; do
    ./target/release/$exhibit | cmp - results/$exhibit.txt
done
committed=$(mktemp -d)
cp results/BENCH_transformer.json results/FAULTS.json "$committed"/
./target/release/transformer_bench >/dev/null
./target/release/fault_campaign >/dev/null
cmp "$committed"/BENCH_transformer.json results/BENCH_transformer.json
cmp "$committed"/FAULTS.json results/FAULTS.json
rm -rf "$committed"

echo "== the full serving exhibits reproduce =="
# serve_bench, obs_report and control_bench charge virtual ticks and
# print no thread count, so their full runs (~2 s) are pure functions of
# the code too: the three stdout tables and the three JSON artifacts must
# match results/ byte for byte. serve_bench rewrites BENCH_serve.json and
# the recorder stream that obs_report joins into SERVE_REPORT.json, and
# control_bench rewrites BENCH_control.json, so the committed copies are
# set aside and compared; the intermediate RECORDER_serve.jsonl goes.
committed=$(mktemp -d)
cp results/BENCH_serve.json results/SERVE_REPORT.json results/BENCH_control.json \
    results/serve_bench.txt results/obs_report.txt results/control_bench.txt "$committed"/
DUET_RECORDER=1 ./target/release/serve_bench > results/serve_bench.txt
./target/release/obs_report > results/obs_report.txt
./target/release/control_bench > results/control_bench.txt
for f in BENCH_serve.json SERVE_REPORT.json BENCH_control.json serve_bench.txt obs_report.txt \
    control_bench.txt; do
    cmp "$committed/$f" "results/$f"
done
rm -rf "$committed" results/RECORDER_serve.jsonl

echo "== every example reproduces =="
# The examples print no timing and write no files, so each output is a
# pure function of the code too. translation is the only end-to-end run
# of train_seq2seq and DualSeq2Seq.
cargo build --release --offline --examples
for example in quickstart image_classification language_model design_space \
    accelerator_comparison translation; do
    ./target/release/examples/$example | cmp - results/examples/$example.txt
done

echo "== telemetry smoke (sim_bench --smoke under DUET_TRACE) =="
# End-to-end telemetry check: a reduced sweep with metrics + tracing on
# must produce a parseable, balanced Chrome trace (trace_check uses the
# in-tree duet_obs::json parser). duet-obs itself is linted/tested by the
# workspace-wide sweeps above. Smoke mode writes BENCH_sim_smoke.json /
# METRICS_sim_smoke.json, never the committed full-sweep BENCH_sim.json;
# all smoke outputs are scratch and removed after validation.
rm -f results/trace_verify.json results/BENCH_sim_smoke.json results/METRICS_sim_smoke.json
DUET_METRICS=1 DUET_TRACE=results/trace_verify.json ./target/release/sim_bench --smoke
test -s results/trace_verify.json
test -s results/BENCH_sim_smoke.json
./target/release/trace_check results/trace_verify.json
rm -f results/trace_verify.json results/BENCH_sim_smoke.json results/METRICS_sim_smoke.json

echo "== sparse skip-throughput smoke (sparse_bench --smoke under DUET_METRICS=1) =="
# Word-parallel map scanning must visit the same sensitive set as the
# bit-serial reference (in-binary checksum assertion); metrics on to
# exercise the kernels' counters. Smoke output is scratch.
rm -f results/BENCH_sparse_smoke.json
DUET_METRICS=1 ./target/release/sparse_bench --smoke
test -s results/BENCH_sparse_smoke.json
rm -f results/BENCH_sparse_smoke.json

echo "== fault campaign determinism (fault_campaign --smoke at 1/4/7 threads) =="
# The fault-injection campaign must be a pure function of its seed:
# FAULTS_smoke.json (no timings, no thread counts) has to come out
# byte-identical at any DUET_NUM_THREADS. Smoke output is scratch.
thread_invariant results/FAULTS_smoke.json -- ./target/release/fault_campaign --smoke
rm -f results/FAULTS_smoke.json

echo "== serving determinism + flight recorder (serve_bench --smoke at 1/4/7 threads) =="
# The serving layer charges virtual ticks from each batch's own MAC
# accounting, so a seeded open-loop trace — responses, per-tenant
# p50/p90/p99, occupancy — must replay byte-identically at any
# DUET_NUM_THREADS. The binary itself asserts the two serving
# invariants (zero dropped requests, θ-degradation under overload).
# With DUET_RECORDER=1 and DUET_TRACE set, one flight-recorder ring holds
# both the request events and the spans, and the run exports both: the
# canonically sorted request events to RECORDER_serve_smoke.jsonl, which
# must be byte-identical across thread counts too (so no span event may
# leak into it), and the spans to a Chrome trace, which trace_check
# validates for the 7-thread run. obs_report then joins the stream — it
# exits nonzero unless every enqueue balances with a respond and
# per-request stages sum to end-to-end latency — and its
# SERVE_REPORT_smoke.json must parse. Smoke outputs are scratch.
rm -f results/SERVE_REPORT_smoke.json results/trace_serve_smoke.json
thread_invariant results/BENCH_serve_smoke.json results/RECORDER_serve_smoke.jsonl -- \
    env DUET_RECORDER=1 DUET_TRACE=results/trace_serve_smoke.json ./target/release/serve_bench --smoke
./target/release/trace_check results/trace_serve_smoke.json
./target/release/obs_report --smoke >/dev/null
test -s results/SERVE_REPORT_smoke.json
rm -f results/BENCH_serve_smoke.json results/RECORDER_serve_smoke.jsonl results/SERVE_REPORT_smoke.json \
    results/trace_serve_smoke.json

echo "== chaos campaign determinism + control loop (control_bench --smoke at 1/4/7 threads) =="
# The closed-loop θ-controller under chaos: the seeded campaign (guard
# trips, speculator corruption, stalls, backlog spikes) must be a pure
# function of its seed, so BENCH_control_smoke.json — calibrated bands,
# per-trip recovery ticks, setpoint-tracking error, response checksum —
# has to come out byte-identical at any DUET_NUM_THREADS. The binary
# itself asserts the control invariants in-binary (zero dropped
# requests, bounded re-admission after every injected trip, steady-tail
# setpoint error inside the deadband). Smoke output is scratch.
thread_invariant results/BENCH_control_smoke.json -- ./target/release/control_bench --smoke
rm -f results/BENCH_control_smoke.json

echo "== dual transformer + never-switch + speculator + conv (equivalence at 1/4/7 threads + transformer_bench --smoke) =="
# The dual-attention contract: θ = −∞ is bitwise the dense model for the
# projection, the whole block (whose dense pass shares the dual pass's
# composition) and the re-backed DualModuleLayer, at any engine pool
# width. The never-switch contract: the FC, conv, LSTM and GRU dual paths
# are bitwise their own row order and match their dense twins (the
# recurrent cells' teachers, whose gate arithmetic they share) to
# rounding. The speculator's contract: its blocked projection and GEMV are
# bitwise the whole-tensor chain, including the module large enough for
# the GEMV to stripe its eight-row blocks over the pool, at any width.
# The conv layer's contract: quantizing the feature map and lowering the
# codes is bitwise quantizing the patch matrix, including the layer large
# enough for the speculator's column GEMM to stripe, at any width.
# The smoke exhibit then runs the distilled transformer LM end to end —
# it asserts the bitwise pin and the MAC-savings invariant in-binary —
# and its artifact must be byte-identical at 1/4/7 threads. Smoke
# outputs are scratch.
for t in 1 4 7; do
    DUET_NUM_THREADS=$t cargo test -q -p duet-core --offline --test transformer_equivalence
    DUET_NUM_THREADS=$t cargo test -q -p duet-core --offline --test never_switch_equivalence
    DUET_NUM_THREADS=$t cargo test -q -p duet-core --offline --test speculator_equivalence
    DUET_NUM_THREADS=$t cargo test -q -p duet-core --offline --test conv_equivalence
done
thread_invariant results/BENCH_transformer_smoke.json -- ./target/release/transformer_bench --smoke
rm -f results/BENCH_transformer_smoke.json

echo "== bench regression gate (bench_check vs results/baselines) =="
# Every committed results/BENCH_*.json is diffed against its checked-in
# baseline: deterministic metrics (ticks, checksums, counts) must match;
# hardware-dependent timings (_ns/_ms/gflops/...) only report drift.
# After an intentional change, promote the changed artifacts by name,
# comma-separated (any other value fails and lists the artifacts), e.g.
#   DUET_BENCH_BASELINE_UPDATE=BENCH_kernels.json ./target/release/bench_check
# and commit the updated results/baselines/.
./target/release/bench_check

echo "== perfbench (build, tests, traced lm + cnn + rnn replays) =="
# The wall-clock benchmark is a package of its own that calls the
# library's public pieces (DualProjection::speculate,
# ApproxLinear::forward_columns, DualLstmCell::approx_preactivations,
# TernaryProjection::additions_per_projection, Tensor::at), so nothing
# above builds it. A traced run replays each layer from those pieces and
# reports the per-layer split only when the replay is bitwise equal to
# the library's own forward; a run that exits nonzero failed a check.
# The cnn replay runs the per-output column kernel and correction, so it
# also checks the conv layer's column executor on real images; the rnn
# replay checks approx_preactivations and the two-segment gate rows.
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
cargo test --release -q --offline --manifest-path perfbench/Cargo.toml
for w in lm cnn rnn; do
    out=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$w" --seconds 1 --trace 1)
    if ! grep -qF "replay of public pieces is bitwise equal to the layer forward" <<<"$out"; then
        echo "perfbench $w: the replay differs from the layer forward" >&2
        exit 1
    fi
done

echo "== serve determinism test (DUET_NUM_THREADS=4) =="
# The in-process workers sweep {1,4,7} plus the env-driven path must
# agree bit for bit when the env pins a different pool width.
DUET_NUM_THREADS=4 cargo test -q -p duet-serve --offline

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo doc (-D warnings) =="
# Every intra-doc link must resolve, so a deleted or renamed item cannot
# leave a dangling reference behind in the docs.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== cargo clippy (-D warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo clippy (unwrap_used in library code) =="
# Library code in every workspace crate must not use .unwrap() —
# caller-facing failure paths are typed errors or documented panics.
# Tests and bins are exempt (--lib only).
cargo clippy --workspace --lib --offline -- -D clippy::unwrap_used

echo "verify: OK"
