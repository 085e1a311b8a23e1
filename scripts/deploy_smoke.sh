#!/usr/bin/env bash
# Deployment smoke test: boots two sqpeerd tenant hosts and the
# multi-tenant gateway on loopback TCP, poses one query per tenant,
# asserts hard cross-tenant isolation and the admission quota, captures
# the telemetry status page, and checks that idle gateway and host
# processes sleep (nobody polls for a connection or a command).
#
# Usage: scripts/deploy_smoke.sh [outdir]   (default: deploy-smoke/)
# Requires: target/release/sqpeerd (cargo build --release -p sqpeer-daemon)

set -euo pipefail

OUT="${1:-deploy-smoke}"
BIN="target/release/sqpeerd"
mkdir -p "$OUT"

[ -x "$BIN" ] || { echo "missing $BIN — build with: cargo build --release -p sqpeer-daemon"; exit 1; }

cleanup() {
  kill "${PIDS[@]}" 2>/dev/null || true
  wait 2>/dev/null || true
}
PIDS=()
trap cleanup EXIT

cat > "$OUT/acme.conf" <<'EOF'
listen 127.0.0.1:7411
status 127.0.0.1:7412
schema fig1
stream_batch_rows 2      # subplan results cross the group as 2-row packets
answer_batch_rows 2      # client answers stream back in 2-row frames
peer
triple http://acme/a prop1 http://acme/b
triple http://acme/b prop2 http://acme/c
peer
triple http://acme/x prop1 http://acme/b
triple http://acme/y prop1 http://acme/b
triple http://acme/z prop1 http://acme/b
EOF

cat > "$OUT/globex.conf" <<'EOF'
listen 127.0.0.1:7421
schema fig1
peer
triple http://globex/a prop1 http://globex/b
triple http://globex/b prop2 http://globex/c
EOF

cat > "$OUT/gateway.conf" <<'EOF'
listen 127.0.0.1:7431
schema fig1
tenant acme-token 127.0.0.1:7411 0
tenant globex-token 127.0.0.1:7421 0
tenant starved-token 127.0.0.1:7421 0 max_bytes=1
EOF

"$BIN" serve "$OUT/acme.conf"   > "$OUT/acme.log"   2>&1 & PIDS+=($!)
"$BIN" serve "$OUT/globex.conf" > "$OUT/globex.log" 2>&1 & PIDS+=($!)
"$BIN" gateway "$OUT/gateway.conf" > "$OUT/gateway.log" 2>&1 & PIDS+=($!)

# Wait for all three listeners (a host listens once its group has
# discovered itself, or once settle_ms has run out).
for i in $(seq 1 50); do
  if grep -q listening "$OUT/acme.log" 2>/dev/null \
     && grep -q listening "$OUT/globex.log" 2>/dev/null \
     && grep -q listening "$OUT/gateway.log" 2>/dev/null; then
    break
  fi
  sleep 0.2
done

QUERY='SELECT X, Y FROM {X}n1:prop1{Y}, {Y}n1:prop2{Z} USING NAMESPACE n1 = &http://example.org/n1#'

echo "== tenant A (acme) =="
"$BIN" query 127.0.0.1:7431 acme-token "$QUERY" | tee "$OUT/acme_answer.txt"
grep -q "acme"    "$OUT/acme_answer.txt" || { echo "FAIL: tenant A got no acme rows"; exit 1; }
grep -q "globex"  "$OUT/acme_answer.txt" && { echo "FAIL: cross-tenant leak into tenant A"; exit 1; }
grep -q "complete" "$OUT/acme_answer.txt" || { echo "FAIL: tenant A answer not complete"; exit 1; }

echo "== streamed answer: first rows no later than the total =="
# The acme host streams 4 joined rows as two 2-row frames, written back
# to back: the gateway's ttfr (first frame taken in) must be positive and
# cannot exceed the total (last frame taken in), but the two clocks can
# land in the same microsecond.
ttfr=$(sed -n 's/^# ttfr \([0-9]*\) us, total [0-9]* us$/\1/p' "$OUT/acme_answer.txt")
total=$(sed -n 's/^# ttfr [0-9]* us, total \([0-9]*\) us$/\1/p' "$OUT/acme_answer.txt")
[ -n "$ttfr" ] && [ -n "$total" ] || { echo "FAIL: ttfr trailer missing from tenant A answer"; exit 1; }
[ "$ttfr" -gt 0 ] || { echo "FAIL: streamed ttfr is zero"; exit 1; }
[ "$ttfr" -le "$total" ] || { echo "FAIL: ttfr ($ttfr us) above total ($total us)"; exit 1; }

echo "== tenant B (globex) =="
"$BIN" query 127.0.0.1:7431 globex-token "$QUERY" | tee "$OUT/globex_answer.txt"
grep -q "globex" "$OUT/globex_answer.txt" || { echo "FAIL: tenant B got no globex rows"; exit 1; }
grep -q "acme"   "$OUT/globex_answer.txt" && { echo "FAIL: cross-tenant leak into tenant B"; exit 1; }

echo "== unknown token is refused =="
if "$BIN" query 127.0.0.1:7431 stolen-token "$QUERY" 2> "$OUT/stolen.txt"; then
  echo "FAIL: stolen token was accepted"; exit 1
fi
rc=0; "$BIN" query 127.0.0.1:7431 stolen-token "$QUERY" 2>/dev/null || rc=$?
[ "$rc" -eq 2 ] || { echo "FAIL: expected exit 2 (unauthorized), got $rc"; exit 1; }

echo "== admission quota trips =="
rc=0; "$BIN" query 127.0.0.1:7431 starved-token "$QUERY" 2> "$OUT/starved.txt" || rc=$?
[ "$rc" -eq 3 ] || { echo "FAIL: expected exit 3 (over quota), got $rc"; exit 1; }
grep -q "bytes" "$OUT/starved.txt" || { echo "FAIL: quota message missing"; exit 1; }

echo "== telemetry status page =="
# A read has the pump render the page as of that read, so it has counted
# the queries above without any wait.
"$BIN" status 127.0.0.1:7412 | tee "$OUT/status.txt"
grep -q "sqpeerd status"    "$OUT/status.txt" || { echo "FAIL: no status page"; exit 1; }
grep -q "decode_failures 0" "$OUT/status.txt" || { echo "FAIL: wire decode failures on the host"; exit 1; }
grep -q "^discovered 2/2$"  "$OUT/status.txt" || { echo "FAIL: the acme group has not discovered itself"; exit 1; }
grep -q "^query_ttfr_count 1$" "$OUT/status.txt" || { echo "FAIL: the status page has not counted tenant A's query"; exit 1; }

echo "== nobody polls: idle hosts and gateway sleep =="
# Voluntary context switches, summed over a process' threads, one second
# apart. A thread blocked in accept() or read() makes none; a 5 ms accept
# poll alone makes 200 a second. A host's pump blocks on its command
# channel until a command arrives or its next timer is due, and an idle
# group arms no timer, so an idle host sleeps (≈ 0 a second; a status
# page re-rendered every 100 ms made ≈ 10, and a pump that looked at the
# channel once a millisecond ≈ 940).
voluntary_switches() {
  cat /proc/"$1"/task/*/status | awk '/^voluntary_ctxt_switches/ { n += $2 } END { print n + 0 }'
}
before=(); for pid in "${PIDS[@]}"; do before+=("$(voluntary_switches "$pid")"); done
sleep 1
rate=(); for i in "${!PIDS[@]}"; do rate+=($(( $(voluntary_switches "${PIDS[$i]}") - before[i] ))); done
echo "voluntary context switches in 1 s: acme host ${rate[0]}, globex host ${rate[1]}, gateway ${rate[2]}" \
  | tee "$OUT/idle_switches.txt"
[ "${rate[0]}" -le 5 ] || { echo "FAIL: the idle acme host woke ${rate[0]} times in a second — its pump polls"; exit 1; }
[ "${rate[1]}" -le 5 ] || { echo "FAIL: the idle globex host woke ${rate[1]} times in a second — its pump polls"; exit 1; }
[ "${rate[2]}" -le 20 ] || { echo "FAIL: the idle gateway woke ${rate[2]} times in a second — something polls"; exit 1; }

echo "deploy smoke: OK"
