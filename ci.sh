#!/usr/bin/env sh
# CI gate: formatting, lints, build, tests, and the gmr-lint battery.
# .github/workflows/ci.yml runs this script, so the same checks run locally.
set -eu

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> unsafe blocks carry SAFETY comments"
# Every `unsafe` in source must have a `SAFETY` comment within the 12
# preceding lines (block comments count once, at their first line).
# `unsafe fn`/`unsafe impl` are matched only as declarations (line-start,
# optional visibility) so `unsafe fn` *pointer types* — thunk tables and
# kernel-table entries in threaded.rs/simd.rs — don't false-positive.
find crates -name '*.rs' -path '*/src/*' -exec awk '
    FNR == 1 { last = -100 }
    /SAFETY/ { last = FNR }
    /^[ \t]*(pub(\([a-z]+\))? )?unsafe (impl|fn)|unsafe \{/ {
        if (FNR - last > 12) {
            printf "%s:%d: unsafe without a SAFETY comment\n", FILENAME, FNR
            bad = 1
        }
    }
    END { exit bad }
' {} + || { echo "FAIL: undocumented unsafe"; exit 1; }

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test --workspace -q

echo "==> perfbench builds against the workspace crates and its tests pass"
cargo test --release --manifest-path perfbench/Cargo.toml -q

echo "==> perfbench gmr_search answers: grouped and per-member evaluation agree"
# The untraced half scores each evaluation round's chunks as groups
# (`Gmr::run_with_lint`); the traced half scores member by member through
# perfbench's timing wrapper, and each search's champion and scores must
# be equal. perfbench exits 0 on a wrong answer, so the gate reads its
# last line, `{"correct": ..., ...}`.
mkdir -p perfbench/out
cargo run --release --manifest-path perfbench/Cargo.toml -- \
    --workload gmr_search --seed 1 --seconds 2 --trace 1 > perfbench/out/ci-gmr_search.txt
tail -n 1 perfbench/out/ci-gmr_search.txt | grep -q '"correct": true' || {
    echo "FAIL: perfbench gmr_search answered incorrectly:"
    tail -n 1 perfbench/out/ci-gmr_search.txt
    exit 1
}

echo "==> gmr-lint --builtin (zero errors required)"
cargo run --release -q -p gmr-lint -- --builtin

echo "==> gmr-lint --bytecode (abstract interpretation + unsafe-bounds proof)"
cargo run --release -q -p gmr-lint -- --builtin --bytecode --json \
    --safety-out SAFETY_bytecode.json > LINT_bytecode.json
diff -u results/SAFETY_bytecode.json SAFETY_bytecode.json || {
    echo "FAIL: SafetyReport drifted from the committed baseline"
    echo "      (review and copy SAFETY_bytecode.json to results/ if intended)"
    exit 1
}

echo "==> bench_engine smoke (determinism + speedup + obsv overhead gates)"
cargo run --release -q -p gmr-bench --bin bench_engine -- --quick --out BENCH_engine.json --journal BENCH_engine.jsonl
cargo run --release -q -p gmr-bench --bin bench_engine -- --validate BENCH_engine.json

echo "==> run journal round-trip (gmr-trace validate + summary + chrome)"
cargo run --release -q -p gmr-obsv --bin gmr-trace -- validate BENCH_engine.jsonl
cargo run --release -q -p gmr-obsv --bin gmr-trace -- summary BENCH_engine.jsonl
cargo run --release -q -p gmr-obsv --bin gmr-trace -- chrome BENCH_engine.jsonl --out BENCH_engine.chrome.json

echo "==> committed benchmark baselines re-validate against current gates"
cargo run --release -q -p gmr-bench --bin bench_vm -- --validate results/BENCH_vm.json
cargo run --release -q -p gmr-bench --bin bench_engine -- --validate results/BENCH_engine.json
cargo run --release -q -p gmr-bench --bin bench_serve -- --validate results/BENCH_serve.json
cargo run --release -q -p gmr-bench --bin bench_scenario -- --validate results/BENCH_scenario.json

echo "==> bench_vm smoke, scalar build (bit-identity to the interpreter + speedup-vs-interpreter floors)"
cargo run --release -q -p gmr-bench --bin bench_vm -- --quick --out BENCH_vm.json
cargo run --release -q -p gmr-bench --bin bench_vm -- --validate BENCH_vm.json

echo "==> bench_serve solo smoke (bit-identity + batched work-sharing gate)"
cargo run --release -q -p gmr-bench --bin bench_serve -- --solo --quick --out BENCH_serve.json
cargo run --release -q -p gmr-bench --bin bench_serve -- --validate BENCH_serve.json

echo "==> bench_serve cluster smoke (2 backends: scaling floor, bit-identity, 429 propagation)"
cargo run --release -q -p gmr-bench --bin bench_serve -- --cluster --quick --backends 2 --out BENCH_cluster.json
cargo run --release -q -p gmr-bench --bin bench_serve -- --validate BENCH_cluster.json

echo "==> gmr-serve smoke (artifact load, concurrent requests, SIGTERM drain)"
rm -rf smoke-serve
mkdir -p smoke-serve/artifacts
./target/release/gmr-serve export --out smoke-serve/artifacts/table5.json
echo "==> gmr-lint --bytecode over the exported artifact"
./target/release/gmr-lint --artifact smoke-serve/artifacts/table5.json --bytecode
./target/release/gmr-serve serve --no-builtin --artifacts smoke-serve/artifacts \
    --days 1461 --port-file smoke-serve/port --journal smoke-serve/journal.jsonl &
SERVE_PID=$!
i=0
while [ ! -f smoke-serve/port ]; do
    i=$((i + 1))
    if [ "$i" -gt 200 ]; then
        echo "FAIL: gmr-serve never wrote its port file"
        kill "$SERVE_PID" 2>/dev/null || true
        exit 1
    fi
    sleep 0.1
done
ADDR=$(cat smoke-serve/port)
./target/release/gmr-serve request "$ADDR" GET /healthz > smoke-serve/healthz.json
REQ_PIDS=""
for n in 1 2 3 4; do
    ./target/release/gmr-serve request "$ADDR" POST /simulate --data \
        "{\"model\": \"table5-manual\", \"forcings_ref\": \"target\", \"mode\": \"summary\", \"init\": [$n, 1.0]}" \
        > "smoke-serve/sim-$n.json" &
    REQ_PIDS="$REQ_PIDS $!"
done
for p in $REQ_PIDS; do
    wait "$p" || { echo "FAIL: concurrent simulate request failed"; exit 1; }
done
# A network run answers every station; the "network" flag on a single
# table and a method /simulate does not answer are refused. `request`
# prints "HTTP <status>" on stderr and exits non-zero on a non-2xx.
./target/release/gmr-serve request "$ADDR" POST /simulate --data \
    '{"model": "table5-manual", "forcings_ref": "network", "network": true, "mode": "summary"}' \
    > smoke-serve/sim-network.json
grep -q '"stations"' smoke-serve/sim-network.json || {
    echo "FAIL: a network /simulate answered without \"stations\""
    exit 1
}
refused() { # STATUS METHOD [BODY]: the request must answer HTTP STATUS
    if ./target/release/gmr-serve request "$ADDR" "$2" /simulate --data "${3:-}" \
        > /dev/null 2> smoke-serve/refused.err; then
        echo "FAIL: $2 /simulate ${3:-} was accepted"
        exit 1
    fi
    grep -q "HTTP $1" smoke-serve/refused.err || {
        echo "FAIL: $2 /simulate ${3:-} did not answer HTTP $1:"
        cat smoke-serve/refused.err
        exit 1
    }
}
refused 400 POST '{"model": "table5-manual", "forcings_ref": "target", "network": true}'
refused 405 PUT
./target/release/gmr-serve request "$ADDR" GET /metrics > smoke-serve/metrics.json
for f in smoke-serve/healthz.json smoke-serve/sim-1.json smoke-serve/sim-2.json \
         smoke-serve/sim-3.json smoke-serve/sim-4.json smoke-serve/sim-network.json \
         smoke-serve/metrics.json; do
    cargo run --release -q -p gmr-obsv --bin gmr-trace -- json "$f"
done
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || { echo "FAIL: gmr-serve did not drain cleanly on SIGTERM"; exit 1; }
cargo run --release -q -p gmr-obsv --bin gmr-trace -- validate smoke-serve/journal.jsonl
grep -q '"type": "access"' smoke-serve/journal.jsonl || {
    echo "FAIL: journal carries no access events"
    exit 1
}

echo "==> gmr-serve cluster smoke (2 supervised backends, gateway fleet metrics, journal stitch, SIGTERM drain)"
rm -rf smoke-cluster
mkdir -p smoke-cluster
./target/release/gmr-serve cluster --backends 2 --days 365 \
    --dir smoke-cluster/scratch --port-file smoke-cluster/port \
    --journal smoke-cluster/gateway.jsonl &
CLUSTER_PID=$!
i=0
while [ ! -f smoke-cluster/port ]; do
    i=$((i + 1))
    if [ "$i" -gt 300 ]; then
        echo "FAIL: gmr-serve cluster never wrote its gateway port file"
        kill "$CLUSTER_PID" 2>/dev/null || true
        exit 1
    fi
    sleep 0.1
done
GW_ADDR=$(cat smoke-cluster/port)
./target/release/gmr-serve request "$GW_ADDR" GET /healthz > smoke-cluster/healthz.json
grep -q '"alive": 2' smoke-cluster/healthz.json || {
    echo "FAIL: gateway does not see 2 live backends"
    exit 1
}
./target/release/gmr-serve request "$GW_ADDR" POST /simulate --data \
    '{"model": "table5-manual", "forcings_ref": "target", "mode": "summary", "init": [4.0, 1.0]}' \
    > smoke-cluster/sim.json
./target/release/gmr-serve request "$GW_ADDR" GET /metrics > smoke-cluster/metrics.json
for f in smoke-cluster/healthz.json smoke-cluster/sim.json smoke-cluster/metrics.json; do
    cargo run --release -q -p gmr-obsv --bin gmr-trace -- json "$f"
done
grep -q '"backends"' smoke-cluster/metrics.json || {
    echo "FAIL: cluster /metrics carries no backends array"
    exit 1
}
grep -q '"fleet"' smoke-cluster/metrics.json || {
    echo "FAIL: cluster /metrics carries no fleet snapshot"
    exit 1
}
grep -q '"slo"' smoke-cluster/metrics.json || {
    echo "FAIL: cluster /metrics carries no slo section"
    exit 1
}
kill -TERM "$CLUSTER_PID"
wait "$CLUSTER_PID" || { echo "FAIL: gmr-serve cluster did not drain cleanly on SIGTERM"; exit 1; }
for j in smoke-cluster/gateway.jsonl smoke-cluster/scratch/backend-0.jsonl \
         smoke-cluster/scratch/backend-1.jsonl; do
    [ -f "$j" ] || { echo "FAIL: missing journal $j"; exit 1; }
    cargo run --release -q -p gmr-obsv --bin gmr-trace -- validate "$j"
done
# Stitch the three journals into one cross-process Chrome trace; a
# gateway hop with no matching backend span exits non-zero.
cargo run --release -q -p gmr-obsv --bin gmr-trace -- stitch \
    smoke-cluster/gateway.jsonl \
    smoke-cluster/scratch/backend-0.jsonl smoke-cluster/scratch/backend-1.jsonl \
    --out smoke-cluster/stitched.trace.json
cargo run --release -q -p gmr-obsv --bin gmr-trace -- json smoke-cluster/stitched.trace.json

echo "==> bench_scenario smoke (one /sweep >= 4x solo what-if + per-variant bit-identity, gateway included)"
cargo run --release -q -p gmr-bench --bin bench_scenario -- --quick --backends 2 --out BENCH_scenario.json
cargo run --release -q -p gmr-bench --bin bench_scenario -- --validate BENCH_scenario.json

echo "==> scenario what-if smoke (scenario-spec CLI -> cluster broadcast -> /sweep via gateway)"
rm -rf smoke-scenario
mkdir -p smoke-scenario
./target/release/gmr-serve scenario-spec --name ci-what-if --stations 12 --out smoke-scenario/spec.json
./target/release/gmr-serve cluster --backends 2 --days 365 \
    --dir smoke-scenario/scratch --port-file smoke-scenario/port &
SCN_PID=$!
i=0
while [ ! -f smoke-scenario/port ]; do
    i=$((i + 1))
    if [ "$i" -gt 300 ]; then
        echo "FAIL: scenario smoke cluster never wrote its gateway port file"
        kill "$SCN_PID" 2>/dev/null || true
        exit 1
    fi
    sleep 0.1
done
SCN_ADDR=$(cat smoke-scenario/port)
./target/release/gmr-serve request "$SCN_ADDR" POST /scenarios \
    --body-file smoke-scenario/spec.json > smoke-scenario/admit.json
grep -q '"admitted": true' smoke-scenario/admit.json || {
    echo "FAIL: scenario admission through the gateway did not succeed"
    exit 1
}
printf '%s\n' '{"scenario": "ci-what-if", "model": "table5-manual", "variants": 32, "reduce": {"threshold": 22.5}}' \
    > smoke-scenario/sweep-req.json
./target/release/gmr-serve request "$SCN_ADDR" POST /sweep \
    --body-file smoke-scenario/sweep-req.json > smoke-scenario/summaries.json
for f in smoke-scenario/admit.json smoke-scenario/summaries.json; do
    cargo run --release -q -p gmr-obsv --bin gmr-trace -- json "$f"
done
grep -q '"summaries"' smoke-scenario/summaries.json || {
    echo "FAIL: /sweep response carries no summaries"
    exit 1
}
kill -TERM "$SCN_PID"
wait "$SCN_PID" || { echo "FAIL: scenario smoke cluster did not drain cleanly on SIGTERM"; exit 1; }

echo "==> SIMD tier tests (vector kernels live where the host has AVX2+FMA)"
cargo test -q -p gmr-expr --features simd
cargo test -q -p gmr-serve --features simd --lib

echo "==> bench_vm smoke, simd build (relaxed fidelity + headline gates)"
cargo run --release -q -p gmr-bench --features simd --bin bench_vm -- --quick --out BENCH_vm_simd.json
cargo run --release -q -p gmr-bench --features simd --bin bench_vm -- --validate BENCH_vm_simd.json

echo "CI OK"
