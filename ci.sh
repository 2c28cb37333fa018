#!/usr/bin/env bash
# Local CI: everything a PR must keep green.
#
#   ./ci.sh          run the full gate: build, tests, lints, formatting,
#                    bench compile + figure-bench goldens, the perf
#                    trajectory artifact, and the manifests/ scenario
#                    batch with schema-validated result.json artifacts
#   ./ci.sh --quick  the fast inner loop: build, tests, clippy, fmt,
#                    rustdoc, the capy-run smoke batch and the fuzz,
#                    faults and fleet smoke runs — skips the benches and
#                    the other example smoke runs (minutes → seconds)
#
# The bench compile check (`cargo bench --no-run`) keeps the
# harness = false figure binaries from rotting — `cargo test` alone
# never builds them.
set -euo pipefail
cd "$(dirname "$0")"

QUICK=0
if [[ "${1:-}" == "--quick" ]]; then
    QUICK=1
fi

run() {
    echo "==> $*"
    "$@"
}

# Rust line counts, the size figures CHANGES.md reports: every .rs file
# under crates/, src/, examples/ and tests/, per crate or top directory.
# Test code is everything in a tests/ directory plus each file from its
# first top-level #[cfg(test)] on. Informational only: no threshold.
rust_lines() {
    echo "==> rust lines (non-test / test)"
    find crates src examples tests -name '*.rs' -not -path '*/target/*' | sort | awk '
    {
        file = $0
        n = split(file, part, "/")
        unit = (part[1] == "crates") ? part[1] "/" part[2] : part[1]
        in_test = (file ~ /(^|\/)tests\//)
        while ((getline line < file) > 0) {
            if (!in_test && line ~ /^#\[cfg\(test\)\]/) in_test = 1
            if (in_test) { test[unit]++; all_test++ } else { code[unit]++; all_code++ }
            units[unit] = 1
        }
        close(file)
    }
    END {
        for (u in units) printf "    %-20s %6d / %6d\n", u, code[u], test[u] | "sort"
        close("sort")
        printf "    %-20s %6d / %6d\n", "total", all_code, all_test
    }'
}
rust_lines

# The root manifest is both the facade package and the workspace, so
# every step pins --workspace: without it cargo only covers the facade.
run cargo build --release --workspace
run cargo test -q --workspace
# Cycle skipping again in release: capy-run and the benchmark run
# release code, where the debug-only re-check after each skipped jump
# is off, so the skip-versus-step identity must hold without it, and
# so must the restore suites, which resume TA and manifests through
# skipping runs, and the fleet suite, whose `()` devices now go through
# cycle detection too.
run cargo test --release -q --test cycle_skip --test snapshot_identity --test kill_grid --test fleet
run cargo clippy --workspace --all-targets -- -D warnings
run cargo fmt --all -- --check
# Rustdoc: every intra-doc link must resolve, so a renamed or deleted
# item cannot leave a dead link behind in the docs.
run env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# The benchmark package is a workspace of its own (so the benchmark can
# build the repo's crates by path without joining this workspace), which
# means none of the --workspace steps above compile it. Gate it on its
# own manifest: it calls the public runner API, so an API change that
# breaks it must fail here.
BENCH_MANIFEST=benchmark/Cargo.toml
run cargo build --release --manifest-path "$BENCH_MANIFEST"
run cargo clippy --manifest-path "$BENCH_MANIFEST" --all-targets -- -D warnings
run cargo fmt --manifest-path "$BENCH_MANIFEST" -- --check
run cargo test --release --manifest-path "$BENCH_MANIFEST"

# The scenario-manifest batch: compile capy-run, execute every checked-in
# manifest headlessly, and fail the gate on any nonzero exit (assertion
# failure, limit hit, manifest error) or malformed artifact. The runner
# regenerates the checked-in result.json files in place, so a copy of
# each is taken first; golden tests in tests/manifest_protocol.rs pin
# their content, the stale-artifact batch below compares against the
# copies, and `git status` shows any drift to commit.
CI_TMP=$(mktemp -d)
trap 'rm -rf "$CI_TMP"' EXIT
mkdir "$CI_TMP/golden" "$CI_TMP/stale"
for manifest in manifests/*.capy; do
    cp "manifests/$(basename "$manifest" .capy).result.json" "$CI_TMP/golden/"
done
run cargo build --release --bin capy-run
CAPY_RUN=target/release/capy-run
run "$CAPY_RUN" manifests/
for artifact in manifests/*.result.json; do
    run "$CAPY_RUN" --validate-json "$artifact" --schema capy-result/v1
done
# A batch writes each artifact in place over whatever is at its path:
# over junk 4 KiB longer than every golden artifact, each result must
# still equal its golden copy byte for byte, with no stale tail.
for golden in "$CI_TMP"/golden/*.result.json; do
    head -c "$(($(wc -c <"$golden") + 4096))" /dev/zero | tr '\0' '#' \
        >"$CI_TMP/stale/$(basename "$golden")"
done
run "$CAPY_RUN" --out-dir "$CI_TMP/stale" manifests/
for golden in "$CI_TMP"/golden/*.result.json; do
    run cmp "$golden" "$CI_TMP/stale/$(basename "$golden")"
done

# Seeded fuzz smoke gate: a fixed master seed and a small case budget of
# randomized kill/fault schedules (including correlated rail surges)
# must recover cleanly; any violation's digest prints the
# (master_seed, case_index) reproducer. Cheap enough for the quick gate.
run cargo run --release --example fuzz -- --smoke
# The TA kill grid and the stuck-open alarm-bank degradation run: both
# skip TA's steady cycles in release, where the debug-only re-check after
# each skipped jump is off, and the example asserts a clean grid and a
# diagnosed bank.
run cargo run --release --example faults -- --smoke

# Fleet smoke gate: a 1k-device population must stream through the
# fleet engine, and --check pins the parallel-vs-serial bit-identity of
# the merged report. The checked-in perf artifact must also carry the
# fleet_devices_per_s series (the schema validator rejects it without).
run cargo run --release --example fleet -- --devices 1000 --check
run "$CAPY_RUN" --validate-json BENCH_sim_throughput.json --schema capybara-sim-throughput/v1

# Trace-driven fleet gate: the checked-in heterogeneous 10k-device
# manifest (template mix + recorded harvest trace) must reproduce its
# golden artifact bit-for-bit, and the artifact must be identical
# whether it runs on 1 worker or 8 — `--workers` sizes the fleet itself,
# not only the batch, so this compares two genuinely different shard
# schedules of the mixed/trace fleet path. The checked-in perf artifact must also
# carry the trace-driven fleet series (the schema validator above
# rejects it without).
run "$CAPY_RUN" --workers 1 --out-dir "$CI_TMP/w1" manifests/fleet_trace.capy
run "$CAPY_RUN" --workers 8 --out-dir "$CI_TMP/w8" manifests/fleet_trace.capy
run cmp manifests/fleet_trace.result.json "$CI_TMP/w1/fleet_trace.result.json"
run cmp "$CI_TMP/w1/fleet_trace.result.json" "$CI_TMP/w8/fleet_trace.result.json"

# Adversarial inputs: every checked-in tests/inputs/*.capy must be
# refused with exit 3 (a typed manifest error), never wrapped into a
# wrong run, run without bound, or crashed. Each runs on the release
# capy-run and on a debug one, where integer overflow panics instead of
# wrapping. Two JSON documents are generated here: one nests 200,000
# arrays deep and must be refused; one holds a single string of
# 2,000,000 two-byte characters and must validate well inside the
# timeout (string decoding is linear in the input).
expect_exit() {
    local want=$1
    shift
    echo "==> (expect exit $want) $*"
    local got=0
    "$@" || got=$?
    if [[ "$got" != "$want" ]]; then
        echo "ci.sh: expected exit $want, got $got" >&2
        exit 1
    fi
}
run cargo build --bin capy-run
for input in tests/inputs/*.capy; do
    for capy_run in "$CAPY_RUN" target/debug/capy-run; do
        expect_exit 3 "$capy_run" --out-dir "$CI_TMP/adversarial" "$input"
    done
done
{
    head -c 200000 /dev/zero | tr '\0' '['
    head -c 200000 /dev/zero | tr '\0' ']'
} >"$CI_TMP/deep.json"
expect_exit 3 "$CAPY_RUN" --validate-json "$CI_TMP/deep.json"
{
    printf '"'
    { yes é || true; } | head -n 2000000 | tr -d '\n'
    printf '"'
} >"$CI_TMP/wide.json"
expect_exit 0 timeout 20 "$CAPY_RUN" --validate-json "$CI_TMP/wide.json"

if [[ "$QUICK" == "1" ]]; then
    echo "==> ci.sh: quick gate passed (benches skipped)"
    exit 0
fi

# Full gate scales the fleet smoke to 100k devices: the streaming
# accumulator keeps peak memory flat no matter the population size.
run cargo run --release --example fleet -- --devices 100000

run cargo bench --no-run --workspace
run cargo run --release --example policy_compare -- --smoke
# Figure and ablation goldens: every bench except sim_throughput runs
# end to end and must print its checked-in crates/bench/golden/<bench>.txt
# exactly, apart from the `# sweep` trailer lines (wall time, worker
# count). A bench without a golden fails the gate. A change that moves a
# figure on purpose regenerates that bench's golden with the same pipeline.
for src in crates/bench/benches/*.rs; do
    bench=$(basename "$src" .rs)
    [[ "$bench" == sim_throughput ]] && continue
    golden=crates/bench/golden/$bench.txt
    echo "==> cargo bench -p capy-bench --bench $bench | diff against $golden"
    cargo bench -q -p capy-bench --bench "$bench" | grep -v '^# sweep' >"$CI_TMP/$bench.txt"
    diff -u "$golden" "$CI_TMP/$bench.txt"
done

# Perf trajectory: the sim-kernel throughput bench must run and emit a
# well-formed BENCH_sim_throughput.json at the repo root; the artifact
# is checked in per PR as the recorded trajectory. Quick mode keeps the
# gate fast — for steadier numbers run the bench without --quick.
# (`cargo bench` runs the binary with the package dir as CWD, so the
# output path must be absolute to land at the workspace root.)
run cargo bench -p capy-bench --bench sim_throughput -- --quick --out "$PWD/BENCH_sim_throughput.json"
run "$CAPY_RUN" --validate-json BENCH_sim_throughput.json --schema capybara-sim-throughput/v1

echo "==> ci.sh: all checks passed"
