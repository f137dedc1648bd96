#!/usr/bin/env sh
# Repo CI gate: formatting, lints, then the tier-1 verify
# (build + full test suite). Run from the repo root:
#
#   sh scripts/ci.sh
#
# Fails fast: the first failing step aborts the run.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, all targets)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release"
cargo build --release --workspace

echo "==> tier-1: cargo test -q"
cargo test -q --workspace

echo "==> ftmpi-check lint"
cargo run -q --release -p ftmpi-check -- lint

echo "==> examples (the public API's end-to-end users: all four must run)"
for ex in nas_cluster protocol_comparison grid_failures; do
    cargo run -q --release --example "$ex"
done
# quickstart's verdict line is checked, not just its exit status.
QUICKSTART_LAST="$(cargo run -q --release --example quickstart | tail -n 1)"
test "$QUICKSTART_LAST" = \
    "The job lost less than one checkpoint period of work and completed."

DIFF_TMP="${TMPDIR:-/tmp}/ftmpi-ci-storm-$$"
rm -rf "$DIFF_TMP"
mkdir -p "$DIFF_TMP"

echo "==> ftmpi-check smoke (invariants + perturbation)"
cargo run -q --release -p ftmpi-check -- smoke | tee "$DIFF_TMP/smoke.log"
# `tee` hides the checker's exit status, so its verdict line is checked
# instead. All seven perturbation targets (three smoke probes, four
# class-S figure probes) must run and pass their three seeded schedules —
# a target silently dropped from the pass would leave smoke green.
grep -q '^smoke: ok$' "$DIFF_TMP/smoke.log"
test "$(grep -c '^perturb\..* seeds=3 ok$' "$DIFF_TMP/smoke.log")" -eq 7

echo "==> ftmpi-check figures --full (class-A figure probes, with kills)"
cargo run -q --release -p ftmpi-check -- figures --full | tee "$DIFF_TMP/figures.log"
# As for smoke, the verdict line is checked through the tee, and it counts
# the probes: one dropped from the bench's figure probe set would
# otherwise leave this step green.
grep -q '^figures: ok (16 probes)$' "$DIFF_TMP/figures.log"

echo "==> ftmpi-check storm --smoke (kills, partitions, node deaths, corruption)"
cargo run -q --release -p ftmpi-check -- storm --smoke | tee "$DIFF_TMP/storm.log"
# The integrity families must actually be in the campaign for both
# protocols — a silent drop here would un-pin the corruption machinery.
for fam in flipfetch scrubrace allreplicas tornwrite quarantine; do
    grep -q "storm.corrupt.$fam.pcl" "$DIFF_TMP/storm.log"
    grep -q "storm.corrupt.$fam.vcl" "$DIFF_TMP/storm.log"
done

echo "==> storm --smoke again (must be byte-identical)"
cargo run -q --release -p ftmpi-check -- storm --smoke > "$DIFF_TMP/storm-2.log"
cmp "$DIFF_TMP/storm.log" "$DIFF_TMP/storm-2.log"

echo "==> ftmpi-check explore --smoke (DPOR over tied schedules, BENCH_explore.json)"
# The file holds every config's counts, verdict, minimized schedule and
# canonical fingerprint, and no timing: it must match the committed one.
cp BENCH_explore.json "$DIFF_TMP/explore.json"
cargo run -q --release -p ftmpi-check -- explore --smoke
cmp "$DIFF_TMP/explore.json" BENCH_explore.json

echo "==> ftmpi-check storm --mine (full-budget miner: zero violations)"
# The full budget reaches genomes the smoke budget does not (e.g. a rot
# and a corrupt gene landing on one replica). It runs before the smoke
# pair so the smoke pair still writes BENCH_storm.json and the corpus last.
cargo run -q --release -p ftmpi-check -- storm --mine

echo "==> ftmpi-check storm --mine --smoke (coverage-guided miner, BENCH_storm.json)"
cargo run -q --release -p ftmpi-check -- storm --mine --smoke | tee "$DIFF_TMP/mine-1.log"
cp BENCH_storm.json "$DIFF_TMP/mine-1.json"
cp results/storm/corpus.txt "$DIFF_TMP/mine-1-corpus.txt"
# The corruption genes must survive into the mined corpus: the seed
# genomes carry a targeted flip and a rotting disk, and both encode.
grep -q "corrupt@" "$DIFF_TMP/mine-1-corpus.txt"
grep -q "rot@" "$DIFF_TMP/mine-1-corpus.txt"

echo "==> storm --mine --smoke again (must be byte-identical)"
cargo run -q --release -p ftmpi-check -- storm --mine --smoke \
    > "$DIFF_TMP/mine-2.log"
cmp "$DIFF_TMP/mine-1.log" "$DIFF_TMP/mine-2.log"
cmp "$DIFF_TMP/mine-1.json" BENCH_storm.json
cmp "$DIFF_TMP/mine-1-corpus.txt" results/storm/corpus.txt
rm -rf "$DIFF_TMP"

echo "==> cache prune round trip (ftmpi-bench cache --prune)"
PRUNE_TMP="${TMPDIR:-/tmp}/ftmpi-ci-prune-$$"
rm -rf "$PRUNE_TMP"
mkdir -p "$PRUNE_TMP/results/.cache"
# An orphaned temp file and a corrupt entry: both must be swept.
printf 'half-written' > "$PRUNE_TMP/results/.cache/.tmp-123-0"
printf 'not a cache entry' > "$PRUNE_TMP/results/.cache/r-deadbeef"
cargo run -q --release -p ftmpi-bench --bin ftmpi-bench -- \
    cache --prune --out "$PRUNE_TMP/results" | grep -q "removed 2"
test ! -e "$PRUNE_TMP/results/.cache/.tmp-123-0"
test ! -e "$PRUNE_TMP/results/.cache/r-deadbeef"
rm -rf "$PRUNE_TMP"

echo "==> figure goldens + result-cache round trip (ftmpi-bench figure all, cold then warm)"
FIG_TMP="${TMPDIR:-/tmp}/ftmpi-ci-figures-$$"
GOLDENS="$(pwd)/crates/bench/figures.sha256"
rm -rf "$FIG_TMP"
mkdir -p "$FIG_TMP"
# Cold: a fresh --out holds no cache, so every configuration is simulated.
# Every figure JSON must match its committed digest, and every JSON the
# run writes must have one.
cargo run -q --release -p ftmpi-bench --bin ftmpi-bench -- \
    figure all --fast --out "$FIG_TMP/results" > "$FIG_TMP/cold.log"
(cd "$FIG_TMP/results" && sha256sum -c --quiet "$GOLDENS")
test "$(ls "$FIG_TMP/results" | grep -c '\.json$')" -eq "$(wc -l < "$GOLDENS")"
# Warm: the same run against the now-populated cache must come entirely
# from disk (zero misses, zero simulations) and match the digests again:
# a disk replay never changes a result.
rm "$FIG_TMP/results"/*.json
cargo run -q --release -p ftmpi-bench --bin ftmpi-bench -- \
    figure all --fast --out "$FIG_TMP/results" > "$FIG_TMP/warm.log"
grep -q "/ 0 misses" "$FIG_TMP/warm.log"
(cd "$FIG_TMP/results" && sha256sum -c --quiet "$GOLDENS")
# Figure stdout depends only on the build: the cold and the warm log agree
# line for line, apart from the one cache-summary line each ends with.
for run in cold warm; do
    test "$(grep -c '^memo cache: ' "$FIG_TMP/$run.log")" -eq 1
    grep -v '^memo cache: ' "$FIG_TMP/$run.log" > "$FIG_TMP/$run.body"
done
cmp "$FIG_TMP/cold.body" "$FIG_TMP/warm.body"
rm -rf "$FIG_TMP"

echo "==> kernel microbench (event queue, BENCH_kernel.json)"
# The run rewrites the timing fields, which may move. Its six pop-order
# checksums (three event-time densities, each at 16,384 and 100,000 pending
# events) may not: they pin the queue's exact pop order where its radix
# buckets work hardest.
CK_TMP="${TMPDIR:-/tmp}/ftmpi-ci-kernel-$$"
grep '"checksum"' BENCH_kernel.json > "$CK_TMP.committed"
test "$(wc -l < "$CK_TMP.committed")" -eq 6
cargo run -q --release -p ftmpi-bench --bin kernel_bench -- --quick
grep '"checksum"' BENCH_kernel.json > "$CK_TMP.fresh"
cmp "$CK_TMP.committed" "$CK_TMP.fresh"
rm -f "$CK_TMP.committed" "$CK_TMP.fresh"

echo "==> rank-scale bench (512-rank ladder, 10^5-rank runs, BENCH_scale.json)"
# As for the kernel bench, the timing fields may move, but each record's
# outcome may not: its rank count, executed events, completion time and
# committed checkpoints pin the 10^5-rank Mlog ring and the 102,400-rank
# halo, where a change in event order would show.
SC_TMP="${TMPDIR:-/tmp}/ftmpi-ci-scale-$$"
SC_FIELDS='"(nranks|events|completion_ns|waves_committed)":'
grep -E "$SC_FIELDS" BENCH_scale.json > "$SC_TMP.committed"
test "$(wc -l < "$SC_TMP.committed")" -eq 12
cargo run -q --release -p ftmpi-bench --bin scale_bench -- --quick
grep -E "$SC_FIELDS" BENCH_scale.json > "$SC_TMP.fresh"
cmp "$SC_TMP.committed" "$SC_TMP.fresh"
rm -f "$SC_TMP.committed" "$SC_TMP.fresh"

echo "CI green."
