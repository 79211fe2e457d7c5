#!/bin/sh
# End-to-end smoke of cmd/oram-server over a real socket: start the
# server in the durable configuration its doc recommends (file backend,
# WAL, deferred write-back) with two tenants, drive write/read, the
# NDJSON batch endpoint and the stats endpoint through curl, check
# tenant isolation (bob must not see alice's plaintext) and that a stats
# read checkpoints nothing (alice's logged write-backs are still in her
# WALs after it), then SIGTERM it and assert the drain is clean — exit 0,
# the "drained cleanly" line, and every tenant's WAL truncated to zero by
# the final checkpoint.
set -eu

dir="${1:-$(mktemp -d)}"
addr="127.0.0.1:${PORT:-8471}"

go build -o "$dir/oram-server" ./cmd/oram-server
"$dir/oram-server" -addr "$addr" -backend file -dir "$dir/data" -wal -async \
  -tenants alice,bob -blocks 512 -blocksize 16 >"$dir/server.log" 2>&1 &
pid=$!
trap 'kill "$pid" 2>/dev/null || true' EXIT

i=0
until curl -sf "http://$addr/healthz" >/dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -gt 50 ]; then
    echo "server never came up:" && cat "$dir/server.log" && exit 1
  fi
  sleep 0.1
done

# 16 bytes, matching -blocksize; the wire carries base64.
payload=$(printf 'hello-smoke-0007' | base64)

curl -sf -X POST "http://$addr/v1/t/alice/write" \
  -d "{\"addr\":3,\"data\":\"$payload\"}" >/dev/null
curl -sf -X POST "http://$addr/v1/t/alice/read" -d '{"addr":3}' |
  grep -qF "$payload" || { echo "read-your-writes failed"; exit 1; }

# Tenant isolation: bob's address 3 is a different tree under a
# different derived key — alice's plaintext must not appear.
if curl -sf -X POST "http://$addr/v1/t/bob/read" -d '{"addr":3}' |
  grep -qF "$payload"; then
  echo "tenant isolation violated: bob read alice's block" && exit 1
fi

# NDJSON batch: one write + one read stream back two result lines, in
# order, with the read returning the just-written payload.
printf '{"op":"write","addr":5,"data":"%s"}\n{"op":"read","addr":5}\n' "$payload" |
  curl -sf -X POST --data-binary @- "http://$addr/v1/t/alice/batch" >"$dir/batch.out"
[ "$(wc -l <"$dir/batch.out")" -eq 2 ] || { echo "batch: want 2 result lines"; cat "$dir/batch.out"; exit 1; }
grep -qF "$payload" "$dir/batch.out" || { echo "batch read missed the write"; exit 1; }

# alice's idle pumps complete her owed write-backs, which the WAL logs
# until a checkpoint truncates it. Wait (at most 5 s) until every one of
# her logs holds a frame.
wal_sizes() { for wal in "$dir"/data/alice/*.wal; do wc -c <"$wal" | tr -d ' '; done; }
i=0
until ! wal_sizes | grep -qx '0'; do
  i=$((i + 1))
  if [ "$i" -gt 50 ]; then
    echo "alice's WALs never logged her writes:" && wal_sizes && exit 1
  fi
  sleep 0.1
done

# Admin surface: create a tenant over HTTP, list it, read its stats. A
# stats read is an observation, not a durability epoch: it must not
# truncate alice's WALs (a pump may still append to them).
curl -sf -X PUT "http://$addr/v1/tenants/carol" >/dev/null
curl -sf "http://$addr/v1/tenants" | grep -q carol
curl -sf "http://$addr/v1/t/alice/stats" | grep -q '"tenant":"alice"'
if wal_sizes | grep -qx '0'; then
  echo "a stats read checkpointed alice's WALs:" && wal_sizes && exit 1
fi

# Graceful drain: SIGTERM must flush + checkpoint every tenant and exit 0.
kill -TERM "$pid"
wait "$pid"
trap - EXIT
grep -q "drained cleanly" "$dir/server.log" || { echo "no clean-drain line:"; cat "$dir/server.log"; exit 1; }
for wal in "$dir"/data/*/*.wal; do
  [ "$(wc -c <"$wal")" -eq 0 ] || { echo "WAL $wal not checkpointed on drain"; exit 1; }
done

echo "server smoke OK"
