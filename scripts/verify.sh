#!/usr/bin/env bash
# Tier-1 verification plus style gates. Run from anywhere in the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (all targets, warnings are errors) =="
cargo clippy --all-targets -- -D warnings

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
cargo test -q

echo "== tracing compiled out: cargo test (vm + core, --no-default-features) =="
cargo test -q -p hipec-vm -p hipec-core --no-default-features

echo "== metrics compiled out: cargo test (core, --features trace) =="
# Histogram storage is unconditional; only the recording sites are gated.
# Kernel behavior, snapshot shapes and all tests must hold with the
# metrics feature off.
cargo test -q -p hipec-core --no-default-features --features trace

echo "== observability, device-table and executor modules carry no dead-code waivers =="
if grep -n '#\[allow(dead_code)\]' \
    crates/vm/src/trace.rs crates/core/src/trace.rs crates/core/src/metrics.rs \
    crates/bench/src/analyze.rs \
    crates/sim/src/hist.rs crates/core/src/hist.rs crates/core/src/obs.rs \
    crates/vm/src/device.rs crates/vm/src/lifecycle.rs crates/vm/src/breaker.rs \
    crates/core/src/health.rs \
    crates/core/src/executor.rs crates/lang/src/opt.rs \
    crates/workloads/src/tournament.rs crates/workloads/src/zipf_kv.rs \
    crates/workloads/src/web_cache.rs crates/policies/src/native.rs \
    crates/core/src/admission.rs crates/workloads/src/tenants.rs \
    crates/bench/src/bin/tenants_soak.rs \
    tests/executor_contract.rs tests/tournament.rs; then
  echo "error: dead_code allowed in an observability, device-table or executor module" >&2
  exit 1
fi

echo "== streaming sinks: seeded soak is lossless, replayable and clean =="
SOAK_DIR="$(mktemp -d)"
trap 'rm -rf "$SOAK_DIR"' EXIT
cargo run -q --release --bin trace_soak -- \
  --seed 0x5EED --steps 1500 --out "$SOAK_DIR/a.jsonl" \
  --stats-export "$SOAK_DIR/a.prom" >/dev/null
cargo run -q --release --bin trace_soak -- \
  --seed 0x5EED --steps 1500 --out "$SOAK_DIR/b.jsonl" \
  --stats-export "$SOAK_DIR/b.prom" >/dev/null
if ! cmp -s "$SOAK_DIR/a.jsonl" "$SOAK_DIR/b.jsonl"; then
  echo "error: identically seeded soaks streamed different JSONL traces" >&2
  exit 1
fi
# The exported histogram snapshot (every latency bucket included) must be
# byte-identical too — this is the determinism gate for the hist/obs layer.
if ! cmp -s "$SOAK_DIR/a.prom" "$SOAK_DIR/b.prom"; then
  echo "error: identically seeded soaks exported different histogram snapshots" >&2
  exit 1
fi
if ! grep -q '^# TYPE hipec_latency_ns histogram' "$SOAK_DIR/a.prom"; then
  echo "error: stats export carries no latency histogram family" >&2
  exit 1
fi
echo "   traces replay bit-for-bit ($(wc -l <"$SOAK_DIR/a.jsonl") records," \
  "$(wc -l <"$SOAK_DIR/a.prom") export lines)"
# trace_analyze exits non-zero on any anomaly (frame leaks, retry storms,
# checker timeouts) or malformed input, so this line is the gate itself —
# the generous percentile gates additionally pin the latency tails. The
# substrate fault p99 on this seed is ~0.5 ms (delay-only plan, max
# injected delay 500 µs), so the 10 ms fault gate flags order-of-magnitude
# regressions; flush spans include queue wait under the soak's pressure
# (observed p99 ~268 ms), so the flush gate sits at 2 s.
cargo run -q --release --bin trace_analyze -- "$SOAK_DIR/a.jsonl" \
  --gate-p99-fault-ns 10000000 --gate-p99-flush-ns 2000000000

echo "== chaos: two-device degradation cycle completes, replays and analyzes clean =="
# chaos_soak itself exits non-zero unless the full cycle was observed on
# the faulty device (breaker trip -> close, quarantine -> ramped restore,
# invariants clean, no livelock, zero dropped records) while the clean
# device's breaker never trips and its container stays Healthy.
cargo run -q --release --bin chaos_soak -- \
  --seed 0xC4A05 --steps 2500 --out "$SOAK_DIR/c1.jsonl" >/dev/null
cargo run -q --release --bin chaos_soak -- \
  --seed 0xC4A05 --steps 2500 --out "$SOAK_DIR/c2.jsonl" >/dev/null
if ! cmp -s "$SOAK_DIR/c1.jsonl" "$SOAK_DIR/c2.jsonl"; then
  echo "error: identically seeded chaos soaks streamed different traces" >&2
  exit 1
fi
if ! grep -q '"type":"quarantined"' "$SOAK_DIR/c1.jsonl" ||
   ! grep -q '"type":"fallback_restored"' "$SOAK_DIR/c1.jsonl"; then
  echo "error: chaos trace shows no quarantine-then-recovery cycle" >&2
  exit 1
fi
# The storm must be confined to the second device: every breaker trip
# record names dev#1, never the boot device.
if ! grep -q '"type":"vm.breaker_trip","device":1' "$SOAK_DIR/c1.jsonl"; then
  echo "error: chaos trace shows no breaker trip on the faulty device" >&2
  exit 1
fi
if grep -q '"type":"vm.breaker_trip","device":0' "$SOAK_DIR/c1.jsonl"; then
  echo "error: the clean device's breaker tripped during the chaos soak" >&2
  exit 1
fi
echo "   chaos traces replay bit-for-bit ($(wc -l <"$SOAK_DIR/c1.jsonl") records)"
# Degradation-aware analysis, gated per device: collateral inside a
# device's own breaker window is expected; collateral on a closed-breaker
# device, an unclosed breaker or an unrestored container is an anomaly.
cargo run -q --release --bin trace_analyze -- "$SOAK_DIR/c1.jsonl"

echo "== chaos on flash: GC latency spikes degrade gracefully without spurious trips =="
# Same degradation cycle over a flash translation layer doing garbage
# collection. The binary's own gates additionally require visible wear
# (gc_pauses, max_wear, write amplification) and that the breaker EWMA
# tolerates erase stalls: every trip closes again and the breaker ends
# closed — GC pauses are slow successes, not failures.
cargo run -q --release --bin chaos_soak -- \
  --kind flash --seed 0xC4A05 --steps 2500 --out "$SOAK_DIR/cf1.jsonl" >/dev/null
cargo run -q --release --bin chaos_soak -- \
  --kind flash --seed 0xC4A05 --steps 2500 --out "$SOAK_DIR/cf2.jsonl" >/dev/null
if ! cmp -s "$SOAK_DIR/cf1.jsonl" "$SOAK_DIR/cf2.jsonl"; then
  echo "error: identically seeded flash chaos soaks streamed different traces" >&2
  exit 1
fi
echo "   flash chaos traces replay bit-for-bit ($(wc -l <"$SOAK_DIR/cf1.jsonl") records)"

echo "== unplug: lifecycle soak drains, escalates and replays bit-for-bit =="
# unplug_soak exits non-zero unless the whole lifecycle story completes:
# tier rebalancing cycles both ways, the mid-storm hot-unplug reaches
# Removed, the all-torn device's breaker exhausts its dead budget and the
# forced drain completes (devices_dead_drained), zero pages are abandoned
# and every drained page reads back through the survivor.
cargo run -q --release --bin unplug_soak -- \
  --seed 0xD15C --out "$SOAK_DIR/u1.jsonl" >/dev/null
cargo run -q --release --bin unplug_soak -- \
  --seed 0xD15C --out "$SOAK_DIR/u2.jsonl" >/dev/null
if ! cmp -s "$SOAK_DIR/u1.jsonl" "$SOAK_DIR/u2.jsonl"; then
  echo "error: identically seeded unplug soaks streamed different traces" >&2
  exit 1
fi
for ev in vm.device_draining vm.device_drained vm.device_dead vm.object_migrated; do
  if ! grep -q "\"type\":\"$ev\"" "$SOAK_DIR/u1.jsonl"; then
    echo "error: unplug trace carries no $ev event" >&2
    exit 1
  fi
done
echo "   unplug traces replay bit-for-bit ($(wc -l <"$SOAK_DIR/u1.jsonl") records)"

echo "== tournament: seeded short matrix is schema-v8, clean and replayable =="
# The tournament binary exits non-zero if any cell's invariant audit fails,
# so the run itself gates whole-kernel consistency across every policy ×
# workload × plan combination. On top of that: the --json document must
# have the full shape (cross product, no per-cell executor column,
# per-cell latency percentile columns, a complete ranking) and be
# bit-identical across reruns.
cargo run -q --release --bin tournament -- --short --json >"$SOAK_DIR/t1.json"
cargo run -q --release --bin tournament -- --short --json >"$SOAK_DIR/t2.json"
if ! cmp -s "$SOAK_DIR/t1.json" "$SOAK_DIR/t2.json"; then
  echo "error: identically seeded tournaments emitted different matrices" >&2
  exit 1
fi
python3 - "$SOAK_DIR/t1.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == 8, f"schema {doc['schema']} != 8"
assert "backend" not in doc, "the v8 envelope carries no backend field"
data = doc["data"]
policies, workloads, cells = data["policies"], data["workloads"], data["cells"]
assert len(workloads) == 6, workloads
assert len(cells) == len(policies) * len(workloads) * 2, len(cells)
assert all("backend" not in c for c in cells), "v8 cells carry no backend column"
assert {c["plan"] for c in cells} == {"clean", "chaos"}
for c in cells:
    assert c["hits"] + c["faults"] <= c["accesses"], c
    for col in ("p50_fault_ns", "p99_fault_ns", "p99_event_ns", "p99_flush_ns"):
        assert isinstance(c[col], int), (col, c)
assert any(c["p99_event_ns"] > 0 for c in cells), "no cell recorded event latency"
assert [r["policy"] for r in data["ranking"]] and len(data["ranking"]) == len(policies)
print(f"   v8 matrix OK: {len(cells)} cells, winner {data['ranking'][0]['policy']}")
PY

echo "== tenants: multi-tenant QoS gauntlet gates isolation and replays bit-for-bit =="
# tenants_soak exits non-zero unless its own QoS gates hold (throttle
# tripped, throttled healthy tenants all eventually installed, healthy
# classes under the isolation bound, storm class visibly degraded). On
# top of that the v8 document must carry all three class rows with the
# per-class p99s the binary gated on, and be bit-identical across runs.
cargo run -q --release --bin tenants_soak -- --json >"$SOAK_DIR/q1.json"
cargo run -q --release --bin tenants_soak -- --json >"$SOAK_DIR/q2.json"
if ! cmp -s "$SOAK_DIR/q1.json" "$SOAK_DIR/q2.json"; then
  echo "error: identically seeded tenants soaks emitted different documents" >&2
  exit 1
fi
python3 - "$SOAK_DIR/q1.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == 8, f"schema {doc['schema']} != 8"
data = doc["data"]
assert data["admission_throttled"] > 0, "arrival bursts never tripped the throttle"
rows = {c["class"]: c for c in data["classes"]}
assert set(rows) == {"free", "standard", "premium"}, rows.keys()
bound = data["healthy_p99_bound_ns"]
for name in ("standard", "premium"):
    row = rows[name]
    assert row["installed"] == row["tenants"], f"{name}: uninstalled tenants"
    assert row["faults"] > 0, f"{name}: served no faults"
    assert 0 < row["p99_fault_ns"] <= bound, f"{name}: p99 {row['p99_fault_ns']} vs bound {bound}"
healthy_worst = max(rows[n]["p99_fault_ns"] for n in ("standard", "premium"))
assert rows["free"]["p99_fault_ns"] > healthy_worst, "storm class did not degrade"
keys = {r["key"] for r in data["kernel"]["latency"] if r["metric"] == "class_fault"}
assert keys == {"free", "standard", "premium"}, keys
print(f"   v8 tenants OK: free p99 {rows['free']['p99_fault_ns']} ns"
      f" > healthy worst {healthy_worst} ns (bound {bound} ns)")
PY

echo "== perfbench: benchmark tests, stored fingerprints and shape guards =="
# Each perfbench run checks that every episode of a seed repeats its
# virtual-time results bit for bit, that they match the fingerprints stored
# for --seed 1, and the workload's shape guards; any miss makes the result
# line say "correct": false. Host speed is not gated: no wall-clock
# threshold holds on a shared machine.
cargo test -q --release --manifest-path perfbench/Cargo.toml
for w in join kv_zipf tenants_storm; do
  if ! out="$(python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 --trace 0)"; then
    printf '%s\n' "$out" | tail -n 5 >&2
    echo "error: perfbench $w run failed" >&2
    exit 1
  fi
  python3 - "$w" "$(printf '%s\n' "$out" | tail -n 1)" <<'PY'
import json, sys
workload, line = sys.argv[1], sys.argv[2]
doc = json.loads(line)
assert doc["correct"] is True, f"perfbench {workload}: {line}"
print(f"   perfbench {workload} OK: {doc['attempted']} accesses, fingerprints match")
PY
done

echo "verify: OK"
