#!/usr/bin/env bash
# Tier-1 gate for the DistMSM reproduction.
#
#   ./ci.sh            # build, test, lint, analyze
#
# Every step must pass; the analyze step runs the simulated-GPU race
# detector, the kernel resource linter, the comm-schedule checker, the
# fault-recovery checker, and the service-invariant checker
# (crates/analyze) over traced executions and fails on any warning- or
# error-level finding. The verify step runs the static plan verifier:
# symbolic write-set disjointness/coverage proofs, static collective
# deadlock checks over every topology preset, the mutant corpus and the
# workspace determinism lint — no execution, all N/window/GPU shapes.
# The soak smokes replay seeded chaos scenarios through the
# multi-tenant service and the multi-pod fleet coordinator (whole-pod
# loss plus a byzantine pod caught by the 2G2T check), the journaling
# crash soak, and the partition soak (heartbeat leases, epoch fencing,
# anti-entropy rejoin) and diff their byte-stable reports against
# goldens (BLESS=1 ./ci.sh regenerates).
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo build --release --workspace =="
# one feature resolution: every later step runs the binaries built here
cargo build --release --workspace

echo "== one build: no cargo feature may creep back =="
if grep -rn 'cfg(.*feature' crates --include='*.rs' ||
    grep -n '^\[features\]\|optional = true' crates/*/Cargo.toml; then
    echo "FAIL: the workspace builds one way; gate hooks on a running capture, not a feature" >&2
    exit 1
fi

echo "== one record per decision: each journaled layer appends and pushes events in one place =="
# the coordinator's and the service's events are derived from their
# journal records inside one private `record`; a second append or a
# hand-written event beside one is the parallel bookkeeping this deleted
for layer in crates/fleet/src/fleet.rs crates/service/src/service.rs; do
    APPENDS="$({ grep -o 'wal\.append(' "$layer" || true; } | wc -l)"
    PUSHES="$({ grep -oE 'events\.(push|extend)\(' "$layer" || true; } | wc -l)"
    if [[ "$APPENDS" -ne 1 || "$PUSHES" -ne 1 ]]; then
        echo "FAIL: $layer has $APPENDS 'wal.append(' and $PUSHES 'events.push(/extend('; route every decision through its one record()" >&2
        exit 1
    fi
done

echo "== cargo test -q --workspace =="
cargo test -q --workspace

# soak (seeded chaos, zero violations), fleet_soak (4 pods, 1024
# tenants, byzantine + pod loss), crash_soak (journal kill points, torn
# writes, ckpt resume), partition_soak (leases, fencing, anti-entropy
# rejoin): each report JSON is byte-stable, so any drift from its golden
# is a behaviour change. The first stdout line of every soak is its spec
# as re-runnable flags; replaying exactly that line (no --smoke) must
# reproduce the same golden, so a printed reproducer is a gate too.
for bin in soak fleet_soak crash_soak partition_soak; do
    echo "== $bin smoke + golden + reproducer replay =="
    SMOKE_JSON="$(mktemp "/tmp/distmsm_ci_${bin}.XXXXXX.json")"
    SECONDS=0
    OUT="$("target/release/$bin" --smoke --json "$SMOKE_JSON")" || { echo "$OUT"; exit 1; }
    echo "$OUT"
    # CI's chaos budget, for the next anchor to see move (fleet_soak is
    # the unit cost of most of it)
    echo "$bin smoke wall time: ${SECONDS} s"
    REPRODUCER="${OUT%%$'\n'*}"
    GOLDEN="crates/bench/golden/${bin}_smoke.json"
    if [[ "${BLESS:-0}" == "1" ]]; then
        cp "$SMOKE_JSON" "$GOLDEN"
        echo "blessed $GOLDEN"
    fi
    diff -u "$GOLDEN" "$SMOKE_JSON"
    echo "replaying: $REPRODUCER"
    # shellcheck disable=SC2086 # the flags are meant to word-split
    "target/release/$bin" ${REPRODUCER#"$bin "} --json "$SMOKE_JSON" > /dev/null
    diff -u "$GOLDEN" "$SMOKE_JSON"
    rm -f "$SMOKE_JSON"
done

echo "== cargo clippy --workspace -- -D warnings =="
cargo clippy --workspace -- -D warnings

echo "== cargo doc --no-deps =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "== telemetry smoke runs (--telemetry + trace validation; soak and fleet_soak goldens with the recorder on) =="
TRACE="$(mktemp /tmp/distmsm_ci_trace.XXXXXX.json)"
target/release/fault_sweep --telemetry "$TRACE" > /dev/null
grep -q '"producer":"distmsm_telemetry"' "$TRACE"
target/release/distmsm-analyze trace "$TRACE"
# recording must not move a byte of the simulated outcome
SMOKE_JSON="$(mktemp /tmp/distmsm_ci_soak_traced.XXXXXX.json)"
for bin in soak fleet_soak; do
    SECONDS=0
    "target/release/$bin" --smoke --telemetry "$TRACE" --json "$SMOKE_JSON" > /dev/null
    diff -u "crates/bench/golden/${bin}_smoke.json" "$SMOKE_JSON"
    target/release/distmsm-analyze trace "$TRACE"
    echo "$bin traced smoke + trace check wall time: ${SECONDS} s"
done
rm -f "$TRACE" "$SMOKE_JSON"

echo "== distmsm-analyze check (race + lint + comm + fault + service + ckpt + partition + fleet + telemetry) =="
target/release/distmsm-analyze check

echo "== distmsm-analyze verify --all-presets (static proofs incl. fleet plans + mutants + det lint) =="
target/release/distmsm-analyze verify --all-presets

echo "== unsafe audit: every crate root must forbid unsafe_code =="
for lib in crates/*/src/lib.rs; do
    if ! grep -q '#!\[forbid(unsafe_code)\]' "$lib"; then
        echo "FAIL: $lib does not carry #![forbid(unsafe_code)]" >&2
        exit 1
    fi
done

echo "== counted source (ROADMAP item 7: non-blank, non-// lines before a file's first #[cfg(test)]) =="
# the figure every CHANGES.md entry quotes before/after; printed, not gated
TOTAL=0
for crate in crates/*/; do
    N="$(find "${crate}src" -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { live = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { live = 0 }
        live && !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ }
        END { print n + 0 }')"
    printf '  %-10s %6d\n' "$(basename "$crate")" "$N"
    TOTAL=$((TOTAL + N))
done
printf '  %-10s %6d\n' total "$TOTAL"

echo "== fig9 scaling smoke vs the committed BENCH_msm.json trajectory artefact =="
# written beside the tree, not over it: only the `git` stamp may differ
# from the committed rows (BLESS=1 re-baselines after a model change)
BENCH_JSON="$(mktemp /tmp/distmsm_ci_bench_msm.XXXXXX.json)"
target/release/fig9_scaling --smoke --bench-json "$BENCH_JSON"
grep -q '"bench": "fig9_scaling"' "$BENCH_JSON"
grep -q '"pods": 4' "$BENCH_JSON"
grep -q '"ckpt_rows"' "$BENCH_JSON"
grep -q '"interval": 1' "$BENCH_JSON"
grep -q '"partition_rows"' "$BENCH_JSON"
if [[ "${BLESS:-0}" == "1" ]]; then
    cp "$BENCH_JSON" BENCH_msm.json
    echo "blessed BENCH_msm.json"
fi
diff -u <(grep -v '^  "git": ' BENCH_msm.json) <(grep -v '^  "git": ' "$BENCH_JSON")
rm -f "$BENCH_JSON"

echo "== repo benchmark: harness tests + 2-second traced smokes of all four workloads (output checks on) =="
# the benchmark package is its own workspace (BENCHMARK.json drives it);
# this only proves it still builds against the crates and checks clean:
# the independent-Pippenger oracle and the layer walk's bit-equality with
# `execute`, on the signed/sliced path and on the large-bucket path where
# every slice runs batched-affine rounds; `check_fleet_invariants` and a
# byte-identical `FleetReport` on the fleet path, where an op is a few
# hundred tiny `execute`s
# Six crates in its graph gained a hard edge to distmsm-telemetry, so
# cargo re-resolves the committed benchmark/Cargo.lock in place; restore
# it so CI leaves the tree clean. Delete these lines with the
# benchmark-archetype follow-up that commits the refreshed lock
# (ROADMAP item 5).
LOCK_KEEP="$(mktemp /tmp/distmsm_ci_bench_lock.XXXXXX)"
cp benchmark/Cargo.lock "$LOCK_KEEP"
trap 'cp "$LOCK_KEEP" benchmark/Cargo.lock; rm -f "$LOCK_KEEP"' EXIT
cargo test -q --offline --manifest-path benchmark/Cargo.toml
for workload in msm_bls381_sliced msm_bn254_64k groth16_4k fleet_serve; do
    SECONDS=0
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 2 --trace 1 | tail -n 1 | grep -q '"correct": true'
    # input building included: groth16_4k's is three trusted setups
    echo "$workload smoke wall time: ${SECONDS} s"
done

echo "CI OK"
