#!/usr/bin/env bash
# CI gate: formatting, lints, the tier-1 verify (ROADMAP.md), and the
# schedule-exploring protocol checker's smoke tier.
# Everything runs offline — the workspace has no external dependencies.
#
# Usage: scripts/ci.sh [check-smoke|fault-smoke|obs-smoke|bakeoff-smoke|chaos-smoke|serve-smoke|bench-smoke]
#   (no arg)       run the full gate
#   check-smoke    run only the time-capped protocol-checker tier
#   fault-smoke    run only the time-capped unreliable-fabric recovery tier
#   obs-smoke      run only the observability export/leak-oracle tier
#   bakeoff-smoke  run only the cross-protocol tier (MESI/Dragon x directory,
#                  plus the per-block update protocol)
#   chaos-smoke    run only the node-failure containment tier
#   serve-smoke    run only the capacity-planning service tier
#   bench-smoke    run only the end-to-end benchmark's digest/count-pin tier
set -euo pipefail
cd "$(dirname "$0")/.."

check_smoke() {
    echo "==> protocol checker smoke tier (time-capped)"
    cargo build --release --offline -p cenju4-check
    local check=target/release/cenju4-check
    # A machine the config builder rejects is a usage error (exit 2)
    # naming the rule, never a fake counterexample.
    local bad_out bad_rc=0
    bad_out="$("$check" random --nodes 2 --protocol dragon --protocol nack 2>&1)" \
        || bad_rc=$?
    [ "$bad_rc" -eq 2 ] || {
        echo "FAIL: dragon over nack exited $bad_rc, want 2: $bad_out"
        exit 1
    }
    echo "$bad_out" | grep -q "dragon protocol requires the queuing home" || {
        echo "FAIL: dragon over nack rejected without naming the rule: $bad_out"
        exit 1
    }
    if echo "$bad_out" | grep -q "counterexample"; then
        echo "FAIL: dragon over nack printed a counterexample: $bad_out"
        exit 1
    fi
    # Zero walks would be a hollow green: a usage error (exit 2).
    local zero_rc=0
    "$check" random --walks 0 >/dev/null 2>&1 || zero_rc=$?
    [ "$zero_rc" -eq 2 ] || {
        echo "FAIL: random --walks 0 exited $zero_rc, want 2"
        exit 1
    }
    # Unreduced 2-node/1-block: the full schedule space, every oracle.
    local full_out
    full_out="$("$check" reduced --dpor off --nodes 2 --blocks 1 --ops 2 \
        --max-seconds 120)"
    echo "$full_out"
    echo "$full_out" | grep -q "all oracles green over 9298 schedules" || {
        echo "FAIL: unreduced 2-node exploration not green over 9298 schedules"
        exit 1
    }
    # A capped random walk over a larger scenario.
    "$check" random --nodes 3 --blocks 2 --ops 2 --seed 1 --walks 200 \
        --max-seconds 30
    # The check-walks benchmark scenario: seeded walks over the lossy
    # recovery configuration, timers and retransmissions included.
    local walks_out
    walks_out="$("$check" random --nodes 3 --blocks 2 --ops 2 --recovery on \
        --drop-rate 100 --fault-seed 1 --seed 1 --walks 4000 --max-seconds 120)"
    echo "$walks_out"
    echo "$walks_out" | grep -q "all oracles green over 4000 schedules" || {
        echo "FAIL: lossy recovery walks not green over 4000 schedules"
        exit 1
    }
    # Every fault-injection mutant must be killed (counterexample found),
    # byte-identically to the committed golden: the shrunk schedules pin
    # the controlled scheduler's choice-index order. A protocol panic the
    # checker reports as a `panic` violation prints nothing to stderr.
    local golden=crates/check/tests/golden/mutants.txt mutants_out mutants_err
    mutants_err=$(mktemp)
    mutants_out="$("$check" mutants --nodes 2 --blocks 1 --ops 2 --max-seconds 120 \
        2>"$mutants_err")"
    diff -u "$golden" <(printf '%s\n' "$mutants_out") || {
        echo "FAIL: mutant gauntlet output drifted from $golden"
        exit 1
    }
    if grep -q "panicked at" "$mutants_err"; then
        echo "FAIL: a caught protocol panic still printed to stderr:"
        head -5 "$mutants_err"
        exit 1
    fi
    rm -f "$mutants_err"
    # A printed replay command must reproduce its counterexample (exit 1),
    # including one found under a non-default step cap.
    local replay_cmd replay_rc=0
    replay_cmd="$("$check" random --nodes 2 --max-steps 5 \
        | sed -n 's/^  replay: cenju4-check //p' || true)"
    [ -n "$replay_cmd" ] || {
        echo "FAIL: a 5-step cap printed no replay command"
        exit 1
    }
    # shellcheck disable=SC2086 # the printed command is a flag list
    "$check" $replay_cmd >/dev/null || replay_rc=$?
    [ "$replay_rc" -eq 1 ] || {
        echo "FAIL: printed replay exited $replay_rc, want 1: $replay_cmd"
        exit 1
    }
    # Reduced-exhaustive at 4 nodes: DPOR + state dedup make the 4-node
    # space tractable. The unique-state count is pinned like the 9298
    # schedule pin in crates/check/tests/checker.rs — a drift means the
    # independence relation or the fingerprint moved.
    local reduced_out
    reduced_out="$("$check" reduced --nodes 4 --blocks 2 --ops 1 \
        --max-seconds 120)"
    echo "$reduced_out"
    echo "$reduced_out" | grep -q "480 unique states" || {
        echo "FAIL: 4-node reduced state count drifted from pin (480)"
        exit 1
    }
    echo "$reduced_out" | grep -q "1357 transitions" || {
        echo "FAIL: 4-node reduced transition count drifted from pin (1357)"
        exit 1
    }
    echo "$reduced_out" | grep -q "791 dedup hits" || {
        echo "FAIL: 4-node reduced dedup-hit count drifted from pin (791)"
        exit 1
    }
    echo "$reduced_out" | grep -q "all oracles green over 8 schedules" || {
        echo "FAIL: 4-node reduced exploration not green over 8 schedules"
        exit 1
    }
    # The unreduced lossy 2-node space (recovery on, one drop in ten):
    # the parallel DFS over frontier jobs, pinned by its leaf count.
    local lossy_out
    lossy_out="$("$check" reduced --nodes 2 --blocks 1 --ops 2 --recovery on \
        --drop-rate 100 --fault-seed 1 --max-seconds 120)"
    echo "$lossy_out"
    echo "$lossy_out" | grep -q "all oracles green over 2036 schedules" || {
        echo "FAIL: unreduced lossy exploration not green over 2036 schedules"
        exit 1
    }
    # DPOR soundness: reduction preserves the falsifiable-oracle set for
    # every (protocol, directory) pair, green and mutated.
    cargo test --release --offline -q -p cenju4-check --test dpor_soundness
    # The touched-block step oracles against the full-scan reference over
    # the green scenarios and every mutant, the step, backtrack and walk
    # allocation pins, and walks from a campaign's recycled position
    # against walks on fresh engines, in the release profile the checker
    # runs in.
    cargo test --release --offline -q -p cenju4-check --lib --test step_alloc \
        --test recycled_walks
    # The multiset state fingerprint against its sort-based reference:
    # the same partition of every state reached (explored graphs, lossy
    # recovery walks, node-down walks).
    cargo test --release --offline -q -p cenju4-check --test fingerprint_diff
    # Engine::fork_into against a plain fork (destinations of another
    # configuration at another position), optimised like the explorer.
    cargo test --release --offline -q -p cenju4-protocol --test engine_fork
    # The value litmus tests: every load observes the last store, across
    # forwards, writebacks, upgrades, update pushes and L3 refills.
    cargo test --release --offline -q -p cenju4-protocol --test value_tests
}

fault_smoke() {
    echo "==> unreliable-fabric recovery tier (time-capped)"
    cargo build --release --offline -p cenju4-check
    local check=target/release/cenju4-check
    local fault
    # Each fabric mutant must falsify an oracle with recovery off (the
    # faults are real) and be fully masked with recovery on. Three nodes,
    # so invalidations actually cross the fabric.
    for fault in drop-unicast dup-reply delay-inval; do
        if "$check" random --nodes 3 --ops 2 --fault "$fault" \
            --recovery off --seed 7 --walks 150 --max-seconds 60; then
            echo "FAIL: $fault survived with recovery off"
            exit 1
        fi
        "$check" random --nodes 3 --ops 2 --fault "$fault" \
            --recovery on --seed 7 --walks 150 --max-seconds 60
    done
    # Seeded probabilistic loss (10% per message), fully recovered.
    "$check" random --nodes 2 --ops 2 --recovery on --fault-seed 99 \
        --drop-rate 100 --seed 7 --walks 100 --max-seconds 60
}

obs_smoke() {
    echo "==> observability smoke tier"
    cargo build --release --offline -p cenju4-bench --bin obs_smoke
    local out
    out=$(mktemp -d)
    trap 'rm -rf "$out"' RETURN
    # End-to-end span pipeline: leak oracle, trace-shape validation,
    # percentile determinism — and the exported artifacts must land.
    target/release/obs_smoke \
        --trace-out "$out/fig12_trace.json" \
        --metrics-out "$out/fig12_metrics.json"
    local f
    for f in fig12_trace.json fig12_metrics.json; do
        [[ -s "$out/$f" ]] || { echo "FAIL: $f missing or empty"; exit 1; }
    done
    # The metrics dump must match the golden `tests/golden_obs.rs` pins
    # name for name and value for value.
    diff -u tests/golden/fig12_span_metrics.json "$out/fig12_metrics.json" || {
        echo "FAIL: fig12_metrics.json differs from tests/golden/fig12_span_metrics.json"
        exit 1
    }
    # The checker attaches a SpanCollector to every explored schedule;
    # this unreduced pass exercises the span-leak oracle on the full
    # 2-node/1-block schedule space.
    cargo build --release --offline -p cenju4-check
    target/release/cenju4-check reduced --dpor off --nodes 2 --blocks 1 --ops 2 \
        --max-seconds 120
}

bakeoff_smoke() {
    echo "==> cross-protocol bakeoff smoke tier (time-capped)"
    # Oracle matrix: every (coherence protocol, directory format) pair
    # under the checker — bounded-exhaustive at 2 nodes, deterministic
    # seeded walks at 3 nodes, and the Dragon-side mutant kill.
    timeout 600 cargo test -q --release --offline -p cenju4-check --test matrix
    # The CLI flags end to end: one Dragon x non-default-directory run
    # through the cenju4-check binary itself.
    cargo build --release --offline -p cenju4-check
    target/release/cenju4-check reduced --nodes 2 --blocks 1 --ops 2 \
        --protocol dragon --directory full-map --max-seconds 120
    # Tiny 16-node bakeoff point per variant; --smoke asserts each
    # protocol's signature (MESI's second store and Dragon's reread are
    # zero-traffic local hits) instead of writing the JSON artifact.
    cargo build --release --offline -p cenju4-bench --bin fig_bakeoff
    timeout 120 target/release/fig_bakeoff --smoke
    # The third CoherenceProtocol, selected per block: the update-block
    # tests and traces (on MESI, Dragon and nack machines), and the CG
    # update-protocol run pinned by its work counts.
    cargo test -q --release --offline -p cenju4-protocol --test update_tests --test golden_trace
    cargo test -q --release --offline --test golden_hotpath cg_update_work_counts_pinned
}

chaos_smoke() {
    echo "==> node-failure chaos smoke tier (time-capped)"
    cargo build --release --offline -p cenju4-check
    local check=target/release/cenju4-check
    # Contained when armed: node 1 dies at 1us mid-walk, the detector
    # quarantines it, and every oracle stays green (blocks=2 puts one
    # block's home *on* the casualty, exercising the typed escalation).
    "$check" random --nodes 3 --blocks 2 --ops 2 --fault node-down \
        --recovery on --seed 7 --walks 50 --max-seconds 60
    # Unarmed, the same death wedges the machine: quiescence must fire.
    if "$check" random --nodes 3 --ops 2 --fault node-down \
        --recovery off --seed 7 --walks 150 --max-seconds 60; then
        echo "FAIL: node-down survived with recovery off"
        exit 1
    fi
    # Quarantine disabled with recovery on: the detector suspects the
    # dead node but never reconfigures, so a retry budget must blow.
    if "$check" random --nodes 3 --ops 2 --fault quarantine-off \
        --recovery on --seed 7 --walks 150 --max-seconds 60; then
        echo "FAIL: quarantine-off survived with recovery on"
        exit 1
    fi
    # Unarmed golden no-rebless: the node-failure machinery must not
    # move a byte of any golden trace.
    timeout 600 cargo test -q --release --offline -p cenju4-protocol \
        --test golden_trace
    # The seeded chaos campaign, from a scratch dir: green, and the
    # machine-readable artifact must land.
    cargo build --release --offline -p cenju4-bench --bin chaos
    local root=$PWD out
    out=$(mktemp -d)
    trap 'rm -rf "$out"' RETURN
    (cd "$out" && timeout 300 "$root/target/release/chaos")
    [[ -s "$out/BENCH_chaos.json" ]] || { echo "FAIL: BENCH_chaos.json missing"; exit 1; }
}

serve_smoke() {
    echo "==> capacity-planning service smoke tier (time-capped)"
    # Declarative scenarios: every tests/testdata/*.scn request/response
    # stanza replays byte-identically against a fresh server. Then the
    # concurrency stress (exact dedup counters, responses bit-identical
    # to sequential ground truth), the snapshot/resume property test,
    # and the config-fingerprint stability/sensitivity suite.
    timeout 600 cargo test -q --release --offline \
        --test serve_scenarios --test serve_stress \
        --test snapshot_resume --test config_fingerprint
    # The crate's own tests: the byte-bounded CLOCK cache and the
    # request-line cap over an in-memory session and over TCP.
    timeout 600 cargo test -q --release --offline -p cenju4-serve
    # The binary end to end over stdin: a ping, a cached pair of what-if
    # queries, the dedup counter pinned through the real front end, and a
    # live run checkpointed mid-flight, drained, resumed and drained again.
    cargo build --release --offline -p cenju4-serve
    local out
    out=$(printf '%s\n' \
        '{"id":1,"cmd":"ping"}' \
        '{"id":2,"cmd":"simulate","config":{"nodes":8},"workload":{"app":"ft","scale":0.25}}' \
        '{"id":3,"cmd":"simulate","config":{"nodes":8},"workload":{"app":"ft","scale":0.25}}' \
        '{"id":4,"cmd":"stats"}' \
        '{"id":5,"cmd":"run_start","config":{"nodes":8},"workload":{"app":"ft","scale":0.25}}' \
        '{"id":6,"cmd":"run_step","run":1,"steps":500}' \
        '{"id":7,"cmd":"run_checkpoint","run":1}' \
        '{"id":8,"cmd":"run_step","run":1,"steps":1000000000}' \
        '{"id":9,"cmd":"run_resume","snapshot":1}' \
        '{"id":10,"cmd":"run_step","run":2,"steps":1000000000}' \
        '{"id":11,"cmd":"run_result","run":1}' \
        '{"id":12,"cmd":"run_result","run":2}' \
        '{"id":13,"cmd":"shutdown"}' \
        | timeout 120 target/release/cenju4-serve)
    echo "$out" | grep -q '"pong":true' || { echo "FAIL: no pong"; exit 1; }
    [[ "$(echo "$out" | sed -n 2p)" == "$(echo "$out" | sed -n 3p | sed 's/"id":3/"id":2/')" ]] \
        || { echo "FAIL: cached response not byte-identical to fresh"; exit 1; }
    echo "$out" | grep -q '"sims":1,"deduped":1' \
        || { echo "FAIL: dedup counters wrong through the binary"; exit 1; }
    echo "$out" | grep -q '"id":7,"ok":true,"result":{"snapshot":1,"run":1,"steps":500}' \
        || { echo "FAIL: checkpoint through the binary"; exit 1; }
    local uninterrupted resumed
    uninterrupted="$(echo "$out" | grep '^{"id":11,"ok":true,"result":{"fingerprint"')" \
        || { echo "FAIL: no result for the uninterrupted run"; exit 1; }
    resumed="$(echo "$out" | grep '^{"id":12,' | sed 's/"id":12/"id":11/')"
    [[ "$resumed" == "$uninterrupted" ]] \
        || { echo "FAIL: resumed run's result differs from the uninterrupted run's"; exit 1; }
}

bench_smoke() {
    echo "==> end-to-end benchmark smoke tier (time-capped)"
    # Every BENCHMARK.json workload at about 1/20 size with every
    # correctness gate: the dsm result digests and the checker's count
    # pins must match benchmark/pins.json. Exits non-zero on any drift.
    # First the event queue's, the workload programs' and the protocol
    # library's own tests, optimised: the differential tests against the
    # whole-event reference heap, the materialising step builder and the
    # cache's per-set model, the causality assert and the program's
    # allocation pin all run in the release profile the benchmark uses.
    cargo test --release --offline -q -p cenju4-des
    cargo test --release --offline -q -p cenju4-workloads
    cargo test --release --offline -q -p cenju4-protocol --lib
    timeout 600 cargo run --release --offline --quiet \
        --manifest-path benchmark/Cargo.toml -- --smoke
}

if [[ "${1:-}" == "check-smoke" ]]; then
    check_smoke
    echo "CI OK (check-smoke)"
    exit 0
fi

if [[ "${1:-}" == "fault-smoke" ]]; then
    fault_smoke
    echo "CI OK (fault-smoke)"
    exit 0
fi

if [[ "${1:-}" == "obs-smoke" ]]; then
    obs_smoke
    echo "CI OK (obs-smoke)"
    exit 0
fi

if [[ "${1:-}" == "bakeoff-smoke" ]]; then
    bakeoff_smoke
    echo "CI OK (bakeoff-smoke)"
    exit 0
fi

if [[ "${1:-}" == "chaos-smoke" ]]; then
    chaos_smoke
    echo "CI OK (chaos-smoke)"
    exit 0
fi

if [[ "${1:-}" == "serve-smoke" ]]; then
    serve_smoke
    echo "CI OK (serve-smoke)"
    exit 0
fi

if [[ "${1:-}" == "bench-smoke" ]]; then
    bench_smoke
    echo "CI OK (bench-smoke)"
    exit 0
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> tier-1 verify: cargo build --release && cargo test -q"
cargo build --release --offline
cargo test -q --offline

echo "==> workspace tests"
cargo test -q --workspace --offline

check_smoke

fault_smoke

obs_smoke

bakeoff_smoke

chaos_smoke

serve_smoke

bench_smoke

echo "CI OK"
