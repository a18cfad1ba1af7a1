#!/usr/bin/env bash
# Local CI gate: build, test, lint. Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --workspace --release

echo "== cargo test =="
cargo test --workspace -q

# The shipped binaries are release builds; run the bit-exact kernel oracles
# (SMACOF majorization, PAVA, the mu/Theta kernels, the fGn amplitudes, the
# online R/S grid) and the order-preserving pool with optimizations on too.
echo "== kernel oracles (release) =="
cargo test --release -q -p coplot -p wl-stats -p wl-selfsim -p wl-par

# The saturation tests hold a worker on a FIFO, not on a slow request, so
# they must pass at release speed too.
echo "== wl-serve load path (release) =="
cargo test --release -q -p wl-serve --test event_load

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

# The repro binaries reduce each synthesized log to its row in the worker
# that made it; none of that may change a byte across thread counts.
echo "== repro determinism (--jobs 2048: --threads 1 and 2 print the same bytes) =="
repro_bin="$PWD/target/release"
repro_dir=$(mktemp -d)   # fig4 writes its SVG under repro-out/ in the cwd
trap 'rm -rf "$repro_dir"' EXIT
for bin in table1 fig3 fig4 table3 modelstats; do
  for t in 1 2; do
    (cd "$repro_dir" && "$repro_bin/$bin" --jobs 2048 --threads "$t") > "$repro_dir/$bin.t$t"
  done
  cmp "$repro_dir/$bin.t1" "$repro_dir/$bin.t2" \
    || { echo "$bin output depends on --threads"; exit 1; }
done

echo "== repro machine logs (traced fig4: trace-check, each machine log made once) =="
fig4_trace=$(cd "$repro_dir" && "$repro_bin/fig4" --jobs 512 --trace json 2>&1 >/dev/null)
echo "$fig4_trace" | ./target/release/trace-check -
machine_logs=$(echo "$fig4_trace" \
  | sed -n 's/.*"logsynth.machine_logs","value":\([0-9]*\).*/\1/p' | head -1)
test "$machine_logs" = 6 \
  || { echo "fig4 synthesized ${machine_logs:-no} machine logs (want 6: CTC once)"; exit 1; }

echo "== repro FFT plans (traced table3 at 8192 jobs: trace-check, 7 plans, none evicted) =="
# table3's series have seven transform lengths, and the byte-budgeted plan
# table keeps every one of them, so each is planned once.
table3_trace=$(cd "$repro_dir" && "$repro_bin/table3" --seed 1999 --jobs 8192 \
  --threads 1 --trace json 2>&1 >/dev/null)
echo "$table3_trace" | ./target/release/trace-check -
plan_misses=$(echo "$table3_trace" \
  | sed -n 's/.*"fft.plan.miss","value":\([0-9]*\).*/\1/p' | head -1)
test "$plan_misses" = 7 \
  || { echo "table3 planned ${plan_misses:-no} FFT lengths (want 7)"; exit 1; }
if echo "$table3_trace" | grep -q '"fft.plan.evictions"'; then
  echo "table3 evicted FFT plans"; exit 1
fi

echo "== repro memory (table3 at 8192 jobs peaks below 20 MB) =="
# ru_maxrss of a child includes the resident set it was forked with, so
# this bounds python's own footprint plus table3's growth.
table3_mb=$(python3 -c '
import resource, subprocess, sys
subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss // 1024)
' "$repro_bin/table3" --seed 1999 --jobs 8192 --threads 2)
test "$table3_mb" -lt 20 \
  || { echo "table3 peaked at $table3_mb MB (want < 20)"; exit 1; }

echo "== repro memory (own peaks at 8192 jobs: fig3 below 14 MB, table3 and fig5 below 13 MB) =="
# These programs peak below python's resident set, which ru_maxrss would
# report, so poll each program's own high-water mark (VmHWM); polling may
# miss a late peak but never over-reads one. table3 and fig5 keep 3.1 MB of
# FFT plans and read 11.7-12.2 MB.
for bound in fig3:14 table3:13 fig5:13; do
  bin=${bound%%:*}
  limit=${bound#*:}
  peak_mb=$(cd "$repro_dir" && python3 -c '
import subprocess, sys, time
p = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
peak = 0
while p.poll() is None:
    try:
        with open(f"/proc/{p.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    peak = max(peak, int(line.split()[1]))
    except OSError:
        pass
    time.sleep(0.005)
if p.returncode:
    sys.exit(p.returncode)
print(peak // 1024)
' "$repro_bin/$bin" --seed 1999 --jobs 8192 --threads 2)
  test "$peak_mb" -lt "$limit" \
    || { echo "$bin peaked at $peak_mb MB (want < $limit)"; exit 1; }
done

echo "== repro bad flag (table1 --bogus exits 2 with a message, no panic) =="
bogus_rc=0
bogus_err=$("$repro_bin/table1" --bogus 2>&1 >/dev/null) || bogus_rc=$?
test "$bogus_rc" = 2 || { echo "table1 --bogus exited $bogus_rc (want 2)"; exit 1; }
if echo "$bogus_err" | grep -q panicked; then
  echo "table1 --bogus panicked: $bogus_err"; exit 1
fi
rm -rf "$repro_dir"
trap - EXIT

echo "== kernel smoke (traced wl subset: fast-theta, one contributions pass for all 56 candidates) =="
subset_trace=$(./target/release/wl subset @table1 --size 3 --threads 2 \
  --trace json 2>&1 >/dev/null)
echo "$subset_trace" | ./target/release/trace-check -
echo "$subset_trace" | grep -q '"alienation.fast_mu"' \
  || { echo "missing alienation.fast_mu counter"; exit 1; }
subset_counter() {
  echo "$subset_trace" | sed -n "s/.*\"$1\",\"value\":\([0-9]*\).*/\1/p" | head -1
}
# The walk computes the pair contributions once and scores every one of
# the C(8,3) = 56 candidates from them through the engine's shared session.
contrib_misses=$(subset_counter engine.cache.contributions.miss)
test "$contrib_misses" = 1 \
  || { echo "pair contributions computed ${contrib_misses:-no} times (want 1)"; exit 1; }
candidates=$(subset_counter subset.candidates)
shared=$(subset_counter engine.shared_selections)
test "$candidates" = 56 && test "$shared" = "$candidates" \
  || { echo "${shared:-no} shared selections for ${candidates:-no} candidates (want 56)"; exit 1; }

echo "== wl closed reader (generate | head -1 exits 0, no panic) =="
# 1.5 MB of SWF into a reader that takes one line: the write fails with a
# broken pipe, which wl treats as the end of the run.
pipe_err=$(mktemp)
pipe_rc=0
./target/release/wl generate ctc --jobs 20000 --seed 3 2> "$pipe_err" \
  | head -1 > /dev/null || pipe_rc=$?
test "$pipe_rc" = 0 \
  || { echo "wl generate | head -1 exited $pipe_rc (want 0): $(cat "$pipe_err")"; exit 1; }
if grep -q panicked "$pipe_err"; then
  echo "wl generate | head -1 panicked: $(cat "$pipe_err")"; exit 1
fi
rm -f "$pipe_err"

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
# The same request again is a result-cache hit, answered by the reactor.
./target/release/wl-servectl POST "http://$serve_addr/v1/coplot" "$req_file" \
  > serve_hit.json
./target/release/wl coplot @table1 --jobs 1024 --seed 1999 --json > cli_body.json
printf '\n' >> serve_body.json
printf '\n' >> serve_hit.json
diff cli_body.json serve_body.json   # CLI --json == server body, byte for byte
diff cli_body.json serve_hit.json    # ... and == the cached body
rm -f serve_body.json serve_hit.json cli_body.json "$req_file"

echo "== wl-serve job cap smoke (262145-job named dataset -> typed 400) =="
# The server must refuse, not try to synthesize; the steps below show it
# is still alive.
cap_req=$(mktemp)
cap_err=$(mktemp)
echo -n '{"op":"coplot","dataset":{"name":"table1"},"jobs":262145,"seed":3}' > "$cap_req"
if cap_body=$(./target/release/wl-servectl POST \
    "http://$serve_addr/v1/coplot" "$cap_req" 2> "$cap_err"); then
  echo "a 262145-job request succeeded: $cap_body"; exit 1
fi
grep -q '^HTTP 400$' "$cap_err" \
  || { echo "expected HTTP 400, got: $(cat "$cap_err")"; exit 1; }
echo "$cap_body" | grep -q '"kind":"bad-value"' \
  || { echo "400 body is not a bad-value error: $cap_body"; exit 1; }
rm -f "$cap_req" "$cap_err"

echo "== wl-serve deep JSON smoke (20,000 nested [ -> typed 400) =="
# Without a nesting limit the parser overflows its stack and aborts the
# server; the steps below show it is still alive.
deep_req=$(mktemp)
deep_err=$(mktemp)
python3 -c 'print("[" * 20000, end="")' > "$deep_req"
if deep_body=$(./target/release/wl-servectl POST \
    "http://$serve_addr/v1/coplot" "$deep_req" 2> "$deep_err"); then
  echo "a 20,000-deep JSON body succeeded: $deep_body"; exit 1
fi
grep -q '^HTTP 400$' "$deep_err" \
  || { echo "expected HTTP 400, got: $(cat "$deep_err")"; exit 1; }
echo "$deep_body" | grep -q '"kind":"bad-json"' \
  || { echo "400 body is not a bad-json error: $deep_body"; exit 1; }
rm -f "$deep_req" "$deep_err"

echo "== wl-serve deadline smoke (1 ms deadline -> typed 504) =="
# The stage named in the body is not pinned: a descheduled worker may
# legitimately stop at `load` before the engine starts.
deadline_req=$(mktemp)
deadline_err=$(mktemp)
echo -n '{"op":"coplot","dataset":{"name":"table3"},"jobs":2000,"seed":9,"deadline_ms":1}' \
  > "$deadline_req"
if deadline_body=$(./target/release/wl-servectl POST \
    "http://$serve_addr/v1/coplot" "$deadline_req" 2> "$deadline_err"); then
  echo "a 1 ms deadline request succeeded: $deadline_body"; exit 1
fi
grep -q '^HTTP 504$' "$deadline_err" \
  || { echo "expected HTTP 504, got: $(cat "$deadline_err")"; exit 1; }
echo "$deadline_body" | grep -q '"kind":"deadline"' \
  || { echo "504 body is not a deadline error: $deadline_body"; exit 1; }
rm -f "$deadline_req" "$deadline_err"

echo "== wl-serve undersized dataset smoke (50-job models -> typed 422, twice) =="
# Jann's model cannot be re-fitted to a 50-job CTC log. Two such requests
# against the two workers: each must get a typed 422, and the stream,
# loadgen and drain steps below need both workers still alive. `timeout`
# turns a request that is never answered into a failure, not a hang.
small_req=$(mktemp)
small_err=$(mktemp)
echo -n '{"op":"coplot","dataset":{"name":"models"},"jobs":50,"seed":3}' > "$small_req"
for _ in 1 2; do
  if small_body=$(timeout 60 ./target/release/wl-servectl POST \
      "http://$serve_addr/v1/coplot" "$small_req" 2> "$small_err"); then
    echo "a 50-job models request succeeded: $small_body"; exit 1
  fi
  grep -q '^HTTP 422$' "$small_err" \
    || { echo "expected HTTP 422, got: $(cat "$small_err")"; exit 1; }
  echo "$small_body" | grep -q '"kind":"analysis"' \
    || { echo "422 body is not an analysis error: $small_body"; exit 1; }
done
rm -f "$small_req" "$small_err"

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
# The online Hurst estimate scores each block once over the stream's life,
# so across all frames it scores fewer blocks than the trace has
# inter-arrivals (19,999 here); re-scoring every block per frame would not.
./target/release/wl generate grid --site 0 --jobs 20000 --seed 42 \
  --out "$stream_dir/site0_20k.gwf"
long_trace=$(./target/release/wl stream "$stream_dir/site0_20k.gwf" --window 256 \
  --threads 2 --trace json 2>&1 >/dev/null)
echo "$long_trace" | ./target/release/trace-check -
online_blocks=$(echo "$long_trace" \
  | sed -n 's/.*"selfsim.online.blocks","value":\([0-9]*\).*/\1/p' | head -1)
test -n "$online_blocks" && test "$online_blocks" -lt 19999 \
  || { echo "online Hurst scored ${online_blocks:-no} blocks (want < 19999)"; exit 1; }
# Each homogeneity period is one map observation, and the map's pair tables
# grow as n(n-1)/2, so a huge --periods must be a typed error up front, not
# an allocation that aborts the process.
homog_rc=0
homog_err=$(./target/release/wl homogeneity "$stream_dir/site0_20k.gwf" \
  --periods 100000 2>&1 >/dev/null) || homog_rc=$?
test "$homog_rc" = 1 \
  || { echo "wl homogeneity --periods 100000 exited $homog_rc (want 1)"; exit 1; }
echo "$homog_err" | grep -q '^wl: invalid configuration: at most 256 periods' \
  || { echo "wl homogeneity --periods 100000: $homog_err"; exit 1; }
rm -rf "$stream_dir"

echo "== wl-loadgen smoke (Poisson + fGn bursts: zero 5xx, bounded p99) =="
./target/release/wl-loadgen --addr "$serve_addr" --requests 60 --connections 4 \
  --process poisson --rate 300 --seed 7 --distinct 2 \
  --expect-no-5xx --max-p99-ms 2000
./target/release/wl-loadgen --addr "$serve_addr" --requests 30 --connections 2 \
  --process fgn:0.8 --rate 300 --seed 7 --distinct 2 --expect-no-5xx
# Every miss after the first re-synthesizes a dataset whose fGn amplitudes
# the process already computed.
amp_hits=$(./target/release/wl-servectl GET "http://$serve_addr/metrics" \
  | sed -n 's/.*"name":"fgn.amps.hit","value":\([0-9]*\).*/\1/p' | head -1)
test -n "$amp_hits" && test "$amp_hits" -gt 0 \
  || { echo "fGn amplitude table recorded no hits"; exit 1; }

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

echo "== wl-serve plan memory (10 hurst requests at 40,000-40,009 jobs: VmHWM below 180 MB) =="
# Each new trace length plans a 5.4 MB Bluestein table; the plan table is
# weighed in bytes (64 MiB), so the server's memory stays bounded however
# many lengths it sees. Reads 130-144 MB; a 64-plan count cap read 210-211.
plan_dir=$(mktemp -d)
./target/release/wl-serve --addr 127.0.0.1:0 --workers 1 --threads 2 --cache 0 \
  > "$plan_dir/serve.log" &
plan_pid=$!
trap 'kill "$plan_pid" 2>/dev/null || true; rm -rf "$plan_dir"' EXIT
for _ in $(seq 1 100); do
  grep -q "listening on" "$plan_dir/serve.log" 2>/dev/null && break
  sleep 0.1
done
plan_addr=$(sed -n 's|.*listening on http://||p' "$plan_dir/serve.log")
test -n "$plan_addr" || { echo "wl-serve did not start"; exit 1; }
for jobs in $(seq 40000 40009); do
  echo -n "{\"op\":\"hurst\",\"dataset\":{\"name\":\"table1\"},\"jobs\":$jobs,\"seed\":7}" \
    > "$plan_dir/req.json"
  ./target/release/wl-servectl POST "http://$plan_addr/v1/hurst" "$plan_dir/req.json" \
    > /dev/null 2>&1
done
plan_kb=$(sed -n 's/^VmHWM:[[:space:]]*\([0-9]*\) kB$/\1/p' "/proc/$plan_pid/status")
kill "$plan_pid"
wait "$plan_pid" 2>/dev/null || true
rm -rf "$plan_dir"
trap - EXIT
test "$((plan_kb / 1024))" -lt 180 \
  || { echo "wl-serve peaked at $((plan_kb / 1024)) MB (want < 180)"; exit 1; }

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
