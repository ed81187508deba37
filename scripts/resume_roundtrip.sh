#!/usr/bin/env bash
# resume_roundtrip.sh — end-to-end durability gate (wired into CI): run
# dbtouch-serve with a session log directory, drive half an exploration
# at it, kill -9 the process mid-session, restart it on the same
# directory, resume over the wire, finish the exploration — and prove
# the concatenated perform responses are byte-identical to an
# uninterrupted run on a server that never crashed. A second leg does the
# same for a durable live table: ingest past several table-log
# compactions, kill -9, restart, and every appended row is restored.
. "$(dirname "$0")/lib.sh"
lib_init

# One exploration, split into a prefix (before the crash) and a suffix
# (after resume). Gestures only — open/create are issued separately so
# the replayed-request count below is exact.
prefix_gestures=(
  '{"kind":"tap","frac":0.1}'
  '{"kind":"tap","frac":0.3}'
  '{"kind":"slide","to":1,"dur":2000000000}'
  '{"kind":"tap","frac":0.5}'
)
suffix_gestures=(
  '{"kind":"tap","frac":0.7}'
  '{"kind":"slide","from":1,"dur":1000000000}'
  '{"kind":"tap","frac":0.9}'
)

session_open() {
  rpc "$1" '{"v":1,"op":"open","session":"smoke"}' >/dev/null
  rpc "$1" '{"v":1,"op":"create","session":"smoke","object":"o","create":{"table":"t","column":"v","x":2,"y":2,"w":2,"h":10}}' >/dev/null
}

# perform ADDR OUT GESTURE... — run gestures, appending each raw
# response body (deterministic JSON) to OUT.
perform() {
  local addr="$1" out="$2" g
  shift 2
  for g in "$@"; do
    printf '%s\n' "$(rpc "$addr" '{"v":1,"op":"perform","session":"smoke","object":"o","gesture":'"$g"'}')" >>"$out"
  done
}

# Control: the same exploration, uninterrupted, on a server without
# durability — the resumed stream must be indistinguishable from it.
addr=127.0.0.1:18932
serve_start -addr "$addr" -rows 100000
serve_wait "$addr"
session_open "$addr"
perform "$addr" "$work/control.out" "${prefix_gestures[@]}" "${suffix_gestures[@]}"
serve_stop TERM

# Crash run: prefix, then the plug is pulled.
addr=127.0.0.1:18933
serve_start -addr "$addr" -rows 100000 -session-dir "$work/sessions"
serve_wait "$addr"
session_open "$addr"
perform "$addr" "$work/crash.out" "${prefix_gestures[@]}"
serve_kill9

# Restart on the same log directory; the dead session must be offered
# for resume and replay exactly its logged history (open + create +
# prefix performs).
serve_start -addr "$addr" -rows 100000 -session-dir "$work/sessions"
serve_wait "$addr"
grep -q '1 sessions resumable' "$serve_log" || {
  echo "FAIL: restarted server does not report the crashed session as resumable" >&2
  cat "$serve_log" >&2
  exit 1
}
want_replayed=$((2 + ${#prefix_gestures[@]}))
resume="$(rpc "$addr" '{"v":1,"op":"resume","session":"smoke"}')"
echo "$resume" | grep -q '"replayed":'"$want_replayed"'[,}]' || {
  echo "FAIL: resume response $resume, want replayed=$want_replayed" >&2
  exit 1
}
perform "$addr" "$work/crash.out" "${suffix_gestures[@]}"
serve_stop TERM

if ! cmp -s "$work/control.out" "$work/crash.out"; then
  echo "FAIL: resumed stream diverged from the uninterrupted run:" >&2
  diff "$work/control.out" "$work/crash.out" >&2 || true
  exit 1
fi

echo "ok: $want_replayed requests replayed, $(wc -l <"$work/crash.out") perform responses byte-identical across kill -9"

# Live-table leg: an uncapped durable live table. Its log compacts into a
# checkpoint of the whole table once the tail reaches max(-session-compact,
# the last checkpoint), so N appended bytes cost at most
# ceil(log2(N / -session-compact)) + 2 compactions.
addr=127.0.0.1:18934
compact=65536
batches=40
live_flags=(-addr "$addr" -rows 1000 -live 'events:ts=int,key=string,value=int'
  -session-dir "$work/tables" -session-compact "$compact")
serve_start "${live_flags[@]}"
serve_wait "$addr"
appended=0
for b in $(seq 0 $((batches - 1))); do
  seq 0 999 | awk -v b="$b" '
    BEGIN { printf "{\"v\":2,\"op\":\"append\",\"table\":\"events\",\"rows\":[" }
    { printf "%s[%d,\"k%02d\",%d]", (NR > 1 ? "," : ""), b * 1000 + $1, $1 % 64, ($1 * 7919 + b) % 1000000 }
    END { printf "]}" }' >"$work/batch.json"
  appended=$((appended + $(wc -c <"$work/batch.json")))
  curl -sf --data-binary @"$work/batch.json" "http://$addr/rpc" >/dev/null
done
stats="$(rpc "$addr" '{"v":2,"op":"stats"}')"
serve_kill9
compactions="$(echo "$stats" | grep -o '"logCompactions":[0-9]*' | cut -d: -f2)"
bound=2
span=$compact
while [ "$span" -lt "$appended" ]; do
  span=$((span * 2))
  bound=$((bound + 1))
done
if [ "${compactions:-0}" -lt 1 ] || [ "$compactions" -gt "$bound" ]; then
  echo "FAIL: $appended bytes appended cost ${compactions:-0} table-log compactions, want 1..$bound" >&2
  echo "$stats" >&2
  exit 1
fi

serve_start "${live_flags[@]}"
serve_wait "$addr"
want_rows=$((batches * 1000))
grep -q "restored $want_rows rows into 1 live tables" "$serve_log" || {
  echo "FAIL: restart did not restore the $want_rows appended rows" >&2
  cat "$serve_log" >&2
  exit 1
}
# The restored table keeps ingesting where the log left off.
resp="$(rpc "$addr" '{"v":2,"op":"append","table":"events","rows":[[1,"k00",1]]}')"
echo "$resp" | grep -q '"rows":'"$((want_rows + 1))"'[,}]' || {
  echo "FAIL: append after restart answered $resp, want rows=$((want_rows + 1))" >&2
  exit 1
}
serve_stop TERM

echo "ok: $want_rows table rows restored across kill -9 after $compactions table-log compactions (bound $bound)"
