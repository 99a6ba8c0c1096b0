#!/usr/bin/env sh
# Local / CI gate for the checker-engine refactor.
#
#   sh bench/check.sh
#
# Runs, in order:
#   1. dune build @fmt   (only when ocamlformat is installed — the
#                         format check is advisory on machines without it)
#   2. dune build        (whole tree, warnings-as-errors per dune-project)
#   3. dune runtest      (tier-1: unit + property-based suites, including
#                         the interned-vs-legacy engine equivalence; the
#                         legacy reference lives in the test-side
#                         tabv_reference library, test/reference/)
#   4. bench/main.exe --quick --cache-only
#                        (replays recorded traces through Offline.Monitors
#                         and the tabv_reference legacy checker, asserts
#                         outcome equivalence, writes
#                         BENCH_checker_cache.json, and FAILS if the
#                         interned engine is below the 1.5x speedup floor)
#   5. bench/main.exe --quick --obs-only
#                        (measures the cost of an enabled metrics
#                         registry on the densest checker configuration,
#                         writes BENCH_obs_overhead.json, and FAILS if
#                         metrics-enabled activation throughput drops
#                         more than 5% below metrics-disabled)
#   6. bench/main.exe --quick --campaign-only
#                        (times the same campaign job matrix on 1 and 4
#                         worker domains, asserts byte-identical report
#                         JSON, writes BENCH_campaign_scaling.json, and
#                         FAILS below the 2x speedup floor; on machines
#                         with fewer than 4 recommended domains the
#                         gate records a skip and exits 0)
#   7. bench/main.exe --quick --fault-only
#                        (measures the armed-but-idle cost of the fault
#                         subsystem -- a latent plan plus the
#                         qualification guard on the densest checker
#                         run -- writes BENCH_fault_overhead.json, and
#                         FAILS if the slowdown exceeds 2% or the
#                         latent plan perturbs the run)
#   8. bench/main.exe --quick --isolate-only
#                        (times the same crash-free job matrix on the
#                         in-domain and subprocess executors, asserts
#                         byte-identical report JSON across executors,
#                         writes BENCH_isolate_overhead.json, and
#                         FAILS if process isolation costs more than
#                         1.5x the in-domain pool)
#   9. bench/main.exe --quick --trace-only
#                        (records one des56-rtl run to a compact binary
#                         trace, times live check vs offline recheck on
#                         a 10-property invariant set, asserts the two
#                         verdict reports are byte-identical, writes
#                         BENCH_trace_recheck.json, and FAILS if the
#                         recheck is below the 5x speedup floor or the
#                         trace exceeds 20% of the equivalent VCD)
#  10. bench/main.exe --quick --serve-only
#                        (boots a tabv-serve daemon with a warm worker
#                         pool, drives it with 8 concurrent clients
#                         through cold, warm and mixed check/recheck
#                         rounds, asserts every socket response is
#                         byte-identical to the one-shot report, writes
#                         BENCH_serve_throughput.json, and FAILS below
#                         the 5 req/s throughput floor or the 2x
#                         warm-replay speedup gate)
#  11. bench/main.exe --quick --chaos-only
#                        (boots a tabv-serve daemon and soaks it with 8
#                         clients, each with a seeded wire-fault plan
#                         interposed -- torn frames, truncated and
#                         corrupted headers, slow-loris trickles,
#                         mid-frame resets, duplicated frames and
#                         handshake garbage -- plus journaled campaigns
#                         riding along; asserts every completed request
#                         stays byte-identical to the one-shot report,
#                         the daemon ends drained and leak-free (no
#                         inflight keys, journals, stale state files or
#                         fds), writes BENCH_serve_chaos.json, and
#                         FAILS if anything leaks or the armed-but-idle
#                         cost of the net-fault hook exceeds 2% and
#                         20 us absolute)
#  12. bench/main.exe --quick --durability-only
#                        (runs a journaled campaign under the Fault.Io
#                         observer to enumerate every durable write
#                         boundary, truncates the journal at each one
#                         -- simulated power cuts -- and resumes every
#                         crash image, asserting each resumed report is
#                         byte-identical to the uninterrupted run; also
#                         fills the disk mid-append (ENOSPC) expecting
#                         an honest storage error plus an identical
#                         faultless resume, sweeps for stale *.tmp
#                         debris, writes BENCH_io_durability.json, and
#                         FAILS on any mismatch, debris, or if the
#                         hookless IO seam costs more than 2% over a
#                         raw fsynced append loop)
#  13. python3 perfbench/run.py --workload record-recheck --seed 1
#        --seconds 5 --trace 0
#                        (end-to-end correctness smoke test: records
#                         every shipped model with a trace writer
#                         attached, rechecks each trace on two
#                         domains, and FAILS (non-zero exit) if any
#                         recheck report differs byte for byte from
#                         its live report or any run fails its checks;
#                         only the exit status is gated, no timing)
set -eu

cd "$(dirname "$0")/.."

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune build @fmt"
  dune build @fmt
else
  echo "== skipping format check (ocamlformat not installed)"
fi

echo "== dune build"
dune build

echo "== dune runtest"
dune runtest

echo "== checker-cache bench gate (>= 1.5x)"
dune exec bench/main.exe -- --quick --cache-only

echo "== observability overhead gate (<= 5%)"
dune exec bench/main.exe -- --quick --obs-only

echo "== campaign scaling gate (>= 2x at 4 workers; skips below 4 domains)"
dune exec bench/main.exe -- --quick --campaign-only

echo "== fault-subsystem overhead gate (<= 2% armed-but-idle)"
dune exec bench/main.exe -- --quick --fault-only

echo "== subprocess isolation overhead gate (<= 1.5x in-domain)"
dune exec bench/main.exe -- --quick --isolate-only

echo "== trace recheck gate (>= 5x, <= 20% of VCD)"
dune exec bench/main.exe -- --quick --trace-only

echo "== serve throughput gate (8 clients; floor >= 5 req/s, warm >= 2x, byte-identical)"
dune exec bench/main.exe -- --quick --serve-only

echo "== chaos soak gate (8 faulted clients; drained, leak-free, byte-identical)"
dune exec bench/main.exe -- --quick --chaos-only

echo "== durability gate (power-cut recovery soak; byte-identical resumes, <= 2% seam overhead)"
dune exec bench/main.exe -- --quick --durability-only

echo "== record/recheck end-to-end smoke (byte-identical reports; exit status only)"
python3 perfbench/run.py --workload record-recheck --seed 1 --seconds 5 --trace 0

echo "== all checks passed"
