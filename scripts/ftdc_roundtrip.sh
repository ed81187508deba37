#!/usr/bin/env bash
# ftdc_roundtrip.sh — end-to-end decode gate for the flight recorder
# (wired into CI): run a real dbtouch-serve with FTDC capture on, drive
# protocol traffic at it, shut it down cleanly, and prove the capture
# decodes with dbtouch-ftdc inside the retention bound.
#
# Usage: scripts/ftdc_roundtrip.sh [seconds-to-capture]   (default 2)
. "$(dirname "$0")/lib.sh"
lib_init

capture_secs="${1:-2}"
addr="127.0.0.1:18931"
retain=$((64 * 1024))

go build -o "$work/dbtouch-ftdc" ./cmd/dbtouch-ftdc

capture="$work/capture"
serve_start -addr "$addr" -rows 100000 \
  -ftdc-dir "$capture" -ftdc-interval 25ms -ftdc-chunk 20 \
  -ftdc-retain "$retain"
serve_wait "$addr"

# Drive traffic so the gauges actually move during the capture.
rpc "$addr" '{"v":1,"op":"open","session":"ci"}' >/dev/null
rpc "$addr" '{"v":1,"op":"create","session":"ci","object":"o","create":{"table":"t","column":"v","x":2,"y":2,"w":2,"h":10}}' >/dev/null
rpc "$addr" '{"v":1,"op":"perform","session":"ci","object":"o","gesture":{"kind":"slide","to":1,"dur":2000000000}}' >/dev/null
sleep "$capture_secs"
# SIGHUP flushes the partial chunk mid-flight; SIGTERM flushes and exits.
kill -HUP "$serve_pid"
sleep 0.2
serve_stop TERM

# The capture must decode: at least one chunk, and at least the ticks a
# conservative reading of the capture window guarantees (half the
# interval-derived count, to stay robust on slow runners).
chunks="$("$work/dbtouch-ftdc" -format chunks "$capture" | wc -l)"
if [ "$chunks" -lt 1 ]; then
  echo "FAIL: capture decoded to $chunks chunks" >&2
  exit 1
fi
rows="$("$work/dbtouch-ftdc" -format csv "$capture" | grep -vc '^ts_unix_ns' || true)"
min_rows=$((capture_secs * 1000 / 25 / 2))
if [ "$rows" -lt "$min_rows" ]; then
  echo "FAIL: capture decoded to $rows ticks, want >= $min_rows" >&2
  exit 1
fi
summary="$("$work/dbtouch-ftdc" "$capture")"
grep -q 'sessions_live' <<<"$summary" || {
  echo "FAIL: summary is missing the sessions_live gauge" >&2
  exit 1
}
# A cumulative column reads as a rate, not a level.
grep -q '^logged_requests .*/s at t+' <<<"$summary" || {
  echo "FAIL: summary does not read logged_requests as a rate:" >&2
  grep '^logged_requests' <<<"$summary" >&2
  exit 1
}
# The capture's schema is the current one: none of the removed pool gauges.
header="$("$work/dbtouch-ftdc" -format csv "$capture" | sed -n 1p)"
for gone in workers steals dispatches; do
  case ",$header," in
    *",$gone,"*)
      echo "FAIL: capture still carries the removed $gone column: $header" >&2
      exit 1
      ;;
  esac
done

# Retention bound: budget + one live file (clamped to budget/4) + slack.
size="$(du -sb "$capture" | cut -f1)"
bound=$((retain + retain / 4 + 16 * 1024))
if [ "$size" -gt "$bound" ]; then
  echo "FAIL: capture dir $size bytes exceeds retention bound $bound" >&2
  exit 1
fi

echo "ok: $chunks chunks, $rows ticks, $size bytes (bound $bound)"
