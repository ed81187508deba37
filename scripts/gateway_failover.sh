#!/usr/bin/env bash
# gateway_failover.sh — end-to-end fleet gate (wired into CI): run three
# dbtouch-serve backends on one shared -session-dir behind
# dbtouch-gateway, drive an exploration through the gateway with a live
# /stream attached, kill -9 whichever backend the session is pinned to
# mid-run — and prove the concatenated perform responses are
# byte-identical to a control run against a single undisturbed server,
# that the stream keeps delivering frames across the failover, and that
# the gateway actually failed over (counters in /gatewayz). Two more legs
# continue the same session where a backend may not hold it: (a) the
# killed backend comes back on its address and the gateway restarts, so
# a fresh gateway's rendezvous choice is a backend that lost the session;
# (b) that backend is killed -9 and restarted in place before any breaker
# trips, so it answers "gone" behind a standing pin.
. "$(dirname "$0")/lib.sh"
lib_init

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
# Frames emitted while the stream is detached are dropped, and the suffix
# can finish before the stream re-attaches: this gesture comes after a
# pause, for the re-attached stream to relay.
reattached_gestures=(
  '{"kind":"tap","frac":0.8}'
)
fresh_gateway_gestures=(
  '{"kind":"tap","frac":0.2}'
)
in_place_gestures=(
  '{"kind":"slide","to":0.4,"dur":500000000}'
  '{"kind":"tap","frac":0.6}'
)

session_open() {
  rpc "$1" '{"v":1,"op":"open","session":"smoke"}' >/dev/null
  rpc "$1" '{"v":1,"op":"create","session":"smoke","object":"o","create":{"table":"t","column":"v","x":2,"y":2,"w":2,"h":10}}' >/dev/null
}

perform() {
  local addr="$1" out="$2" g
  shift 2
  for g in "$@"; do
    printf '%s\n' "$(rpc "$addr" '{"v":1,"op":"perform","session":"smoke","object":"o","gesture":'"$g"'}')" >>"$out"
  done
}

# expect_control LABEL — every fleet response so far is byte-identical to
# the control run's response at the same position.
expect_control() {
  head -n "$(wc -l <"$work/fleet.out")" "$work/control.out" >"$work/control.head"
  if ! cmp -s "$work/control.head" "$work/fleet.out"; then
    echo "FAIL: $1: gateway responses diverged from the single-server control run:" >&2
    diff "$work/control.head" "$work/fleet.out" >&2 || true
    cat "$gateway_log" >&2
    exit 1
  fi
}

# pin_of STATS — the port the session is pinned to in a /gatewayz body.
pin_of() {
  echo "$1" | sed -n 's/.*"smoke": *"http:\/\/127\.0\.0\.1:\([0-9]*\)".*/\1/p'
}

# restart_backend PORT — start a fleet backend on 127.0.0.1:PORT again,
# over the shared session directory, and record its pid in pid_PORT.
restart_backend() {
  serve_start -addr "127.0.0.1:$1" -rows 100000 -session-dir "$work/sessions"
  printf -v "pid_$1" '%s' "$serve_pid"
  serve_wait "127.0.0.1:$1"
}

# Control: one undisturbed server, no gateway, no durability.
addr=127.0.0.1:18944
serve_start -addr "$addr" -rows 100000
serve_wait "$addr"
session_open "$addr"
perform "$addr" "$work/control.out" "${prefix_gestures[@]}" "${suffix_gestures[@]}" \
  "${reattached_gestures[@]}" "${fresh_gateway_gestures[@]}" "${in_place_gestures[@]}"
serve_stop TERM

# The fleet: three backends on one shared session directory.
b1=127.0.0.1:18941; b2=127.0.0.1:18942; b3=127.0.0.1:18943
serve_start -addr "$b1" -rows 100000 -session-dir "$work/sessions"
pid_18941=$serve_pid
serve_start -addr "$b2" -rows 100000 -session-dir "$work/sessions"
pid_18942=$serve_pid
serve_start -addr "$b3" -rows 100000 -session-dir "$work/sessions"
pid_18943=$serve_pid
serve_wait "$b1" "$pid_18941"
serve_wait "$b2" "$pid_18942"
serve_wait "$b3" "$pid_18943"

gw=127.0.0.1:18940
gateway_start -addr "$gw" -backends "http://$b1,http://$b2,http://$b3" \
  -health-interval 100ms -fail-threshold 2 -open-cooldown 500ms \
  -retry-base 20ms -retry-cap 200ms -retry-attempts 8
gateway_pid=$serve_pid
gateway_log=$serve_log
serve_wait "$gw" "$gateway_pid"

# The same exploration through the gateway, with a live stream attached.
session_open "$gw"
curl -sN "http://$gw/stream?session=smoke" >"$work/stream.out" &
stream_pid=$!
serve_pids+=("$stream_pid")

perform "$gw" "$work/fleet.out" "${prefix_gestures[@]}"
sleep 0.5
frames_before=$(wc -l <"$work/stream.out")
[ "$frames_before" -gt 0 ] || {
  echo "FAIL: stream delivered no frames before the kill" >&2
  cat "$gateway_log" >&2
  exit 1
}

# Find the backend the session is pinned to and pull its plug.
pinned_port=$(pin_of "$(curl -sf "http://$gw/gatewayz")")
[ -n "$pinned_port" ] || {
  echo "FAIL: /gatewayz reports no pin for the session" >&2
  curl -sf "http://$gw/gatewayz" >&2 || true
  exit 1
}
pinned_pid_var="pid_$pinned_port"
echo "killing pinned backend 127.0.0.1:$pinned_port (pid ${!pinned_pid_var})"
serve_kill9 "${!pinned_pid_var}"

# The rest of the exploration must come back byte-identical: the gateway
# re-pins, resumes the session from the shared log, and retries.
perform "$gw" "$work/fleet.out" "${suffix_gestures[@]}"
sleep 0.5
perform "$gw" "$work/fleet.out" "${reattached_gestures[@]}"
sleep 0.5
expect_control "kill -9 of the pinned backend"

frames_after=$(wc -l <"$work/stream.out")
[ "$frames_after" -gt "$frames_before" ] || {
  echo "FAIL: stream stalled across the failover ($frames_before frames before, $frames_after after)" >&2
  cat "$gateway_log" >&2
  exit 1
}

stats=$(curl -sf "http://$gw/gatewayz")
echo "$stats" | grep -q '"failovers": *[1-9]' || {
  echo "FAIL: gateway reports no failover: $stats" >&2
  exit 1
}
echo "$stats" | grep -q '"resumes": *[1-9]' || {
  echo "FAIL: gateway reports no resume: $stats" >&2
  exit 1
}
new_pin=$(pin_of "$stats")
[ -n "$new_pin" ] && [ "$new_pin" != "$pinned_port" ] || {
  echo "FAIL: session still pinned to the dead backend :$pinned_port" >&2
  echo "$stats" >&2
  exit 1
}

# Leg (a): bring the killed backend back on its address, then restart the
# gateway. With all three backends ready, the fresh gateway's rendezvous
# choice is the original backend again, which lost the session in the
# kill; the session lives on :$new_pin. The gateway must resume it on its
# choice before the first request lands there.
restart_backend "$pinned_port"
kill "$stream_pid" 2>/dev/null || true
serve_stop TERM "$gateway_pid"
# A slow breaker (three missed 1s probes) keeps leg (b)'s in-place restart
# shorter than a trip.
gateway_start -addr "$gw" -backends "http://$b1,http://$b2,http://$b3" \
  -health-interval 1s -fail-threshold 3 -open-cooldown 500ms \
  -retry-base 20ms -retry-cap 200ms -retry-attempts 8
gateway_pid=$serve_pid
gateway_log=$serve_log
serve_wait "$gw" "$gateway_pid"
for _ in $(seq 1 100); do
  [ "$(curl -sf "http://$gw/gatewayz" | grep -c '"ready": true')" -eq 3 ] && break
  sleep 0.1
done
perform "$gw" "$work/fleet.out" "${fresh_gateway_gestures[@]}"
expect_control "first contact through a fresh gateway"
stats=$(curl -sf "http://$gw/gatewayz")
echo "$stats" | grep -q '"resumes": *[1-9]' || {
  echo "FAIL: the fresh gateway reports no resume: $stats" >&2
  exit 1
}
[ "$(pin_of "$stats")" = "$pinned_port" ] || {
  echo "FAIL: the fresh gateway placed the session off its rendezvous choice :$pinned_port" >&2
  echo "$stats" >&2
  exit 1
}

# Leg (b): kill -9 the session's backend and restart it in place before any
# breaker trips. The pin stands; the backend answers "gone" until the
# gateway resumes the session there and retries.
serve_kill9 "${!pinned_pid_var}"
restart_backend "$pinned_port"
perform "$gw" "$work/fleet.out" "${in_place_gestures[@]}"
expect_control "an in-place backend restart"
stats=$(curl -sf "http://$gw/gatewayz")

serve_stop TERM "$gateway_pid"
echo "ok: kill -9 of pinned backend :$pinned_port invisible to the client" \
  "($(wc -l <"$work/fleet.out") responses byte-identical, stream $frames_before -> $frames_after frames, re-pinned to :$new_pin)," \
  "and so were a fresh gateway and an in-place restart" \
  "(fresh gateway: $(echo "$stats" | grep -o '"\(failovers\|resumes\)": *[0-9]*' | tr '\n' ' '))"
