#!/usr/bin/env bash
# Local CI gate: build, test, lint. Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --workspace --release

echo "== cargo test =="
cargo test --workspace -q

echo "== cargo clippy -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo bench --no-run =="
cargo bench --workspace --no-run

# perfbench is a Cargo workspace of its own, so the --workspace steps above
# never compile it; build and unit-test it here so an API change that
# breaks the benchmark fails CI.
echo "== perfbench build + unit tests =="
CARGO_TARGET_DIR=target cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "== table3 smoke run (--threads 8) =="
./target/release/table3 --jobs 512 --threads 8 > /dev/null

echo "== trace smoke run (--trace json | trace-check) =="
./target/release/table3 --jobs 512 --threads 8 --trace json 2>&1 >/dev/null \
  | ./target/release/trace-check -

echo "== kernel smoke (traced wl subset: fast-theta + incremental counters) =="
subset_trace=$(./target/release/wl subset @table1 --size 3 --threads 2 \
  --trace json 2>&1 >/dev/null)
echo "$subset_trace" | ./target/release/trace-check -
echo "$subset_trace" | grep -q '"alienation.fast_mu"' \
  || { echo "missing alienation.fast_mu counter"; exit 1; }
# The lexicographic walk must actually reuse dissimilarity prefixes.
hits=$(echo "$subset_trace" \
  | sed -n 's/.*"engine.subset.incremental.hits","value":\([0-9]*\).*/\1/p' \
  | head -1)
test -n "$hits" && test "$hits" -gt 0 \
  || { echo "incremental subset scoring recorded no cache hits"; exit 1; }

echo "== protocol conformance (wl-serve connection layer) =="
cargo test -q -p wl-serve --test conformance

echo "== golden snapshots (threads 1 + 8, full canonical size) =="
cargo test -q -p wl-repro --test golden
cargo test -q -p wl-cli --test golden_trace

echo "== wl-serve smoke (ephemeral port, CLI parity, metrics, drain) =="
serve_log=$(mktemp)
serve_fifo=$(mktemp -u)
mkfifo "$serve_fifo"
# Hold the write end open so the server only sees the shutdown byte we send.
exec 9<>"$serve_fifo"
./target/release/wl-serve --addr 127.0.0.1:0 --workers 2 --threads 2 \
  --stdin-shutdown < "$serve_fifo" > "$serve_log" &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true; rm -f "$serve_log" "$serve_fifo"' EXIT
for _ in $(seq 1 100); do
  grep -q "listening on" "$serve_log" 2>/dev/null && break
  sleep 0.1
done
serve_addr=$(sed -n 's|.*listening on http://||p' "$serve_log")
test -n "$serve_addr" || { echo "wl-serve did not start"; exit 1; }

request='{"op":"coplot","dataset":{"name":"table1"},"jobs":1024,"seed":1999}'
req_file=$(mktemp)
echo -n "$request" > "$req_file"
./target/release/wl-servectl POST "http://$serve_addr/v1/coplot" "$req_file" \
  > serve_body.json
./target/release/wl coplot @table1 --jobs 1024 --seed 1999 --json > cli_body.json
printf '\n' >> serve_body.json
diff cli_body.json serve_body.json   # CLI --json == server body, byte for byte
rm -f serve_body.json cli_body.json "$req_file"

./target/release/wl-servectl GET "http://$serve_addr/metrics" \
  | ./target/release/trace-check -

echo "== stream smoke (/v1/stream vs wl stream, drift JSON lines) =="
stream_dir=$(mktemp -d)
./target/release/wl generate grid --site 0 --jobs 150 --seed 42 \
  --out "$stream_dir/site0.gwf"
# /v1/stream body: one JSON header line, then the raw trace text.
printf '%s\n' '{"name":"site0","format":"gwf","jobs_per_window":30,"seed":1999}' \
  > "$stream_dir/request"
cat "$stream_dir/site0.gwf" >> "$stream_dir/request"
./target/release/wl-servectl POST "http://$serve_addr/v1/stream" \
  "$stream_dir/request" > "$stream_dir/serve_stream.jsonl"
./target/release/wl stream "$stream_dir/site0.gwf" --window 30 --seed 1999 \
  --threads 2 > "$stream_dir/cli_stream.jsonl"
# CLI stream == server stream, byte for byte.
diff "$stream_dir/cli_stream.jsonl" "$stream_dir/serve_stream.jsonl"
grep -q '"type":"frame"' "$stream_dir/cli_stream.jsonl" \
  || { echo "stream produced no frames"; exit 1; }
# A traced stream run must carry the stream.* counters and satisfy the
# trace invariants trace-check enforces.
stream_trace=$(./target/release/wl stream "$stream_dir/site0.gwf" --window 30 \
  --seed 1999 --threads 2 --trace json 2>&1 >/dev/null)
echo "$stream_trace" | ./target/release/trace-check -
echo "$stream_trace" | grep -q '"stream.windows_sealed"' \
  || { echo "missing stream.windows_sealed counter"; exit 1; }
echo "$stream_trace" | grep -q '"mds.warm_starts"' \
  || { echo "missing mds.warm_starts counter"; exit 1; }
rm -rf "$stream_dir"

echo "== wl-loadgen smoke (Poisson + fGn bursts: zero 5xx, bounded p99) =="
./target/release/wl-loadgen --addr "$serve_addr" --requests 60 --connections 4 \
  --process poisson --rate 300 --seed 7 --distinct 2 \
  --expect-no-5xx --max-p99-ms 2000
./target/release/wl-loadgen --addr "$serve_addr" --requests 30 --connections 2 \
  --process fgn:0.8 --rate 300 --seed 7 --distinct 2 --expect-no-5xx

printf 'q' >&9   # one stdin byte initiates graceful drain
for _ in $(seq 1 100); do
  kill -0 "$serve_pid" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$serve_pid" 2>/dev/null; then
  echo "wl-serve did not drain after the shutdown byte"; exit 1
fi
wait "$serve_pid"
exec 9>&-
rm -f "$serve_log" "$serve_fifo"
trap - EXIT

echo "== multi-format smoke (generate GWF + web logs, coplot, parse counters) =="
fmt_dir=$(mktemp -d)
trap 'rm -rf "$fmt_dir"' EXIT
for site in 0 1 2; do
  ./target/release/wl generate grid --site "$site" --jobs 200 --seed 1999 \
    --out "$fmt_dir/site$site.gwf"
  ./target/release/wl generate web --site "$site" --jobs 150 --seed 1999 \
    --out "$fmt_dir/server$site.log"
done
./target/release/wl coplot "$fmt_dir"/site*.gwf --format gwf --threads 2 > /dev/null
./target/release/wl coplot "$fmt_dir"/server*.log --threads 2 > /dev/null  # auto-detect
# Traced runs must carry the per-format parse counters and satisfy the
# trace invariants trace-check enforces.
gwf_trace=$(./target/release/wl coplot "$fmt_dir"/site*.gwf --format gwf \
  --threads 2 --trace json 2>&1 >/dev/null)
echo "$gwf_trace" | ./target/release/trace-check -
echo "$gwf_trace" | grep -q '"gwf.jobs_parsed"' \
  || { echo "missing gwf.jobs_parsed counter"; exit 1; }
web_trace=$(./target/release/wl coplot "$fmt_dir"/server*.log \
  --threads 2 --trace json 2>&1 >/dev/null)
echo "$web_trace" | ./target/release/trace-check -
echo "$web_trace" | grep -q '"weblog.jobs_parsed"' \
  || { echo "missing weblog.jobs_parsed counter"; exit 1; }
rm -rf "$fmt_dir"
trap - EXIT

echo "== fleet smoke (coordinator + 2 workers, byte-identical to one node) =="
fleet_dir=$(mktemp -d)
w1_pid=; w2_pid=; coord_pid=
trap 'kill $w1_pid $w2_pid $coord_pid 2>/dev/null || true; rm -rf "$fleet_dir"' EXIT
./target/release/wl-serve --addr 127.0.0.1:0 --workers 2 --threads 2 \
  > "$fleet_dir/w1.log" &
w1_pid=$!
./target/release/wl-serve --addr 127.0.0.1:0 --workers 2 --threads 2 \
  > "$fleet_dir/w2.log" &
w2_pid=$!
for log in w1 w2; do
  for _ in $(seq 1 100); do
    grep -q "listening on" "$fleet_dir/$log.log" 2>/dev/null && break
    sleep 0.1
  done
done
w1_addr=$(sed -n 's|.*listening on http://||p' "$fleet_dir/w1.log")
w2_addr=$(sed -n 's|.*listening on http://||p' "$fleet_dir/w2.log")
test -n "$w1_addr" && test -n "$w2_addr" \
  || { echo "fleet workers did not start"; exit 1; }
# One worker wired through the config, the other joining at runtime
# through the control plane — both paths must serve.
./target/release/wl-serve --addr 127.0.0.1:0 --threads 2 \
  --coordinator --worker "$w1_addr" > "$fleet_dir/coord.log" &
coord_pid=$!
for _ in $(seq 1 100); do
  grep -q "listening on" "$fleet_dir/coord.log" 2>/dev/null && break
  sleep 0.1
done
coord_addr=$(sed -n 's|.*listening on http://||p' "$fleet_dir/coord.log")
test -n "$coord_addr" || { echo "coordinator did not start"; exit 1; }
./target/release/wl-servectl fleet-register "http://$coord_addr" "$w2_addr" \
  > /dev/null
./target/release/wl-servectl fleet-status "http://$coord_addr" \
  | grep -q "\"$w2_addr\"" \
  || { echo "runtime registration not visible in fleet status"; exit 1; }
for op in coplot hurst subset; do
  case $op in
    subset) req='{"op":"subset","dataset":{"name":"models"},"jobs":150,"seed":7,"subset_size":2,"top":3}' ;;
    *) req="{\"op\":\"$op\",\"dataset\":{\"name\":\"models\"},\"jobs\":150,\"seed\":7}" ;;
  esac
  echo -n "$req" > "$fleet_dir/req.json"
  ./target/release/wl-servectl POST "http://$w1_addr/v1/$op" \
    "$fleet_dir/req.json" > "$fleet_dir/single.json"
  ./target/release/wl-servectl POST "http://$coord_addr/v1/$op" \
    "$fleet_dir/req.json" > "$fleet_dir/fleet.json"
  diff "$fleet_dir/single.json" "$fleet_dir/fleet.json"  # fleet == one node
done
# The aggregated fleet /metrics document still satisfies every trace
# invariant.
./target/release/wl-servectl GET "http://$coord_addr/metrics" \
  | ./target/release/trace-check -
kill $w1_pid $w2_pid $coord_pid 2>/dev/null || true
wait $w1_pid $w2_pid $coord_pid 2>/dev/null || true
rm -rf "$fleet_dir"
trap - EXIT

echo "CI green."
