#!/usr/bin/env bash
# wait-ready.sh ADDR LOG — poll a tuned server's /healthz at ADDR with
# bounded retries instead of a fixed sleep. Exits 0 once it answers; after
# 10 s it dumps LOG (the server's output) to stderr and exits 1.
addr=$1
log=$2
for _ in $(seq 1 50); do
  if curl -sf "$addr/healthz" > /dev/null; then
    exit 0
  fi
  sleep 0.2
done
echo "tuned did not become ready at $addr/healthz within 10s" >&2
cat "$log" >&2 || true
exit 1
