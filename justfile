# Local dev targets mirroring .github/workflows/ci.yml step-for-step, so
# local runs and CI cannot drift. `just ci` is the full gate.

# Full CI gate: everything the workflow runs, in the same order.
ci: fmt-check no-shim-use clippy build test rayon-release-test unionfind-release-test perfbench-test doc smoke netpbm-smoke stream-smoke tiles-smoke demo-smoke perfbench-smoke bench-smoke

# Format the whole workspace in place (perfbench is its own workspace).
fmt:
    cargo fmt --all
    cargo fmt --manifest-path perfbench/Cargo.toml

# CI's format gate (check only).
fmt-check:
    cargo fmt --all --check
    cargo fmt --check --manifest-path perfbench/Cargo.toml

# One name per type: fails when a manifest or source outside the
# perfbench-only re-export shims (crates/tiles, crates/pipeline) and
# perfbench names a shim crate or one of its second names.
no-shim-use:
    sh scripts/no_shim_use.sh

# CI's lint gate.
clippy:
    cargo clippy --locked --workspace --all-targets -- -D warnings

# Release build of every crate.
build:
    cargo build --locked --release --workspace

# Full test suite: unit, integration, property and doc tests.
test:
    cargo test --locked -q --workspace

# The rayon shim's tests in release mode: the pool's lifetime erasure is
# unsafe code, so it is also tested with optimizations on.
rayon-release-test:
    cargo test --locked --release -p rayon

# The union-find crate's tests in release mode: PAREMSP's lock-free code
# is the two concurrent boundary mergers, whose stress tests should also
# run with optimizations on.
unionfind-release-test:
    cargo test --locked --release -p ccl-unionfind

# The benchmark's own tests: perfbench is a separate workspace that
# compiles against the crates' public APIs, so this catches API breaks.
perfbench-test:
    cargo test --locked --release --manifest-path perfbench/Cargo.toml

# CI's rustdoc gate: every public item documented, no broken links.
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --locked --no-deps --workspace

# Run the quickstart example end to end.
smoke:
    cargo run --locked --release --example quickstart

# Run the Netpbm pipeline example end to end: PPM -> im2bw -> PAREMSP,
# with the written PPM and PBM read back by the whole-buffer readers.
netpbm-smoke:
    cargo run --locked --release --example pipeline_netpbm

# Run the streaming (ccl-stream) example end to end.
stream-smoke:
    cargo run --locked --release --example stream_components

# Run the tile-grid spill example (ccl_stream::spill) end to end.
tiles-smoke:
    cargo run --locked --release --example tiles_outofcore

# Run a one-rep stream_demo at 1 and 2 threads end to end: the height
# sweep of strip bands and tile rows, the execution-mode table (which
# asserts that every mode finds the same components) and the spill rows.
# The snapshot goes to /tmp, so the committed history is untouched.
demo-smoke:
    cargo run --locked --release -p ccl-bench --bin stream_demo -- --reps 1 --threads 1,2 --json /tmp/BENCH_stream_smoke.json

# Run every benchmark workload once, for one second, with its output
# check: a workload whose records disagree with whole-image AREMSP
# exits non-zero.
perfbench-smoke:
    for w in strip-noise strip-landcover tiles-spill frames-paremsp; do \
        cargo run --locked --release --quiet --manifest-path perfbench/Cargo.toml -- --workload $w --seed 1 --seconds 1 --trace 0 || exit 1; \
    done

# Compile all nine criterion benches without running them.
bench-smoke:
    cargo bench --locked --no-run --workspace

# Non-test lines of each crates/*/src tree: the lines of every .rs file
# before its first `#[cfg(test)]`, summed per crate.
loc:
    #!/usr/bin/env sh
    total=0
    for d in crates/*/src; do
        n=$(find "$d" -name '*.rs' -exec awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' {} \; | awk '{ s += $1 } END { print s + 0 }')
        printf '%6d %s\n' "$n" "$d"
        total=$((total + n))
    done
    printf '%6d total\n' "$total"

# Order-alternated perfbench pairs of the committed tree at REV against
# the working tree: PAIRS pairs of SECONDS-long `--seed 3 --trace 0`
# runs of WORKLOAD, one process at a time, each tree built into its own
# target dir under target/perf-pairs. Prints every run, then each
# end-to-end metric's median, quartiles and range per side.
perf-pairs REV WORKLOAD PAIRS SECONDS:
    sh scripts/perf_pairs.sh {{REV}} {{WORKLOAD}} {{PAIRS}} {{SECONDS}}

# Run the criterion benches (shim harness; CCL_BENCH_MS bounds per-bench time).
bench:
    cargo bench --workspace

# Reproduce the paper's tables and figures (synthetic datasets) and
# refresh the results/BENCH_*.json perf snapshots.
repro:
    cargo run --release -p ccl-bench --bin repro_all

# Full-scale streaming acceptance run: 268 Mpixel in 1024-row bands,
# analysis identical to whole-image AREMSP, <= 2 bands resident.
stream-stress:
    cargo test --release -p ccl-stream --test stream_equivalence -- --ignored

# Full-scale tile-grid acceptance run: 100 Mpixel in 512x512 tiles with
# spill-to-disk output through `label_tiles` + `SpillSink`, exact
# reconstruction — synchronous (<= 1 tile row + carry resident) and
# `pipelined: true` (<= 2 tile rows + carry).
tiles-stress:
    cargo test --release -p ccl-stream --test tiles_equivalence -- --ignored

# Full-scale staged-pipeline run: 67 Mpixel through the composed
# decode ∥ scan ∥ merge stack, <= 2 tile rows + carry resident, analysis
# identical to whole-image AREMSP.
pipeline-stress:
    cargo test --release -p ccl-stream --test pipeline_equivalence -- --ignored
