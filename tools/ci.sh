#!/usr/bin/env sh
# Local CI for la1kit: the tier-1 verify line, a static-lint gate, and a
# bench smoke run with structured JSON reporting.
#
#   tools/ci.sh                 # full build + ctest + lint gate + bench smoke
#   tools/ci.sh --smoke-only    # skip build/ctest, just lint gate + smoke
#   tools/ci.sh --sanitize      # tier-1 under ASan/UBSan in a separate tree
#   tools/ci.sh --tsan          # executor/batch/csim/campaign tests under
#                               # ThreadSanitizer in a separate tree
#   tools/ci.sh --release       # Release (-O3) build with warnings as errors,
#                               # then tier-1, in a separate tree
#   tools/ci.sh --faults        # also run the fixed-seed fault campaign gate
#   tools/ci.sh --cov           # also run the coverage-closure + shrinker gate
#   tools/ci.sh --batch         # also run the batch-service gate: fixed-seed
#                               # job hashes identically at 1 vs 4 workers,
#                               # resumes after a kill, zero crashed shards
#   tools/ci.sh --plan          # also run the lowering-legality compile-plan gate
#   tools/ci.sh --csim          # also run the compiled-simulation gate: parity
#                               # and lane-force suites, backend hash-equality
#                               # at 1 bank and at 2 and 4 banks with MC, the
#                               # 4-bank 64-stream Table-3 run, and (on hosts
#                               # with >= 4 cores) the >=10x per-stream speedup
#                               # smoke — smaller hosts skip the timing check
#   tools/ci.sh --line-cov      # gcov line-coverage build in a separate tree,
#                               # reported as a BenchReport-shaped JSON metric
#   tools/ci.sh --tidy          # clang-tidy gate against tools/tidy-baseline.txt
#                               # (skips with a notice when clang-tidy is absent)
#   tools/ci.sh --install-hook  # install as .git/hooks/pre-push
#
# Every gate prints its wall-clock on completion, so a slow gate is visible
# in the log rather than hiding inside the total.
#
# Also wired as a CTest-adjacent CMake target: `cmake --build build --target ci`.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir="${LA1_BUILD_DIR:-$repo_root/build}"
jobs=$(nproc 2>/dev/null || echo 2)
smoke_only=0
sanitize=0
tsan=0
release=0
faults=0
cov=0
plan=0
csim=0
batch=0
line_cov=0
tidy=0
# Watchdog for the test suites: a hung test (a model-checking run that
# stopped converging, a deadlocked harness) fails its suite instead of
# wedging CI. Generous next to the observed per-test runtimes (< 10 s).
test_timeout="${LA1_TEST_TIMEOUT:-300}"

# Per-gate wall-clock: gate_done NAME prints the seconds since the previous
# gate finished (or since startup for the first gate).
gate_t0=$(date +%s)
gate_done() {
  gate_t1=$(date +%s)
  echo "ci: [$((gate_t1 - gate_t0))s] $1"
  gate_t0=$gate_t1
}

for arg in "$@"; do
  case "$arg" in
    --install-hook)
      hook="$repo_root/.git/hooks/pre-push"
      mkdir -p "$repo_root/.git/hooks"
      printf '#!/usr/bin/env sh\nexec "%s"\n' "$repo_root/tools/ci.sh" > "$hook"
      chmod +x "$hook"
      echo "installed $hook"
      exit 0
      ;;
    --smoke-only)
      smoke_only=1
      ;;
    --sanitize)
      sanitize=1
      ;;
    --tsan)
      tsan=1
      ;;
    --release)
      release=1
      ;;
    --faults)
      faults=1
      ;;
    --cov)
      cov=1
      ;;
    --plan)
      plan=1
      ;;
    --csim)
      csim=1
      ;;
    --batch)
      batch=1
      ;;
    --line-cov)
      line_cov=1
      ;;
    --tidy)
      tidy=1
      ;;
    *)
      echo "usage: tools/ci.sh [--smoke-only | --sanitize | --tsan | --release | --faults | --cov | --plan | --csim | --batch | --line-cov | --tidy | --install-hook]" >&2
      exit 2
      ;;
  esac
done

if [ "$sanitize" -eq 1 ]; then
  # Tier-1 under AddressSanitizer + UndefinedBehaviorSanitizer. A separate
  # build tree keeps instrumented objects out of the normal build.
  asan_dir="${LA1_ASAN_BUILD_DIR:-$repo_root/build-asan}"
  cmake -B "$asan_dir" -S "$repo_root" -DLA1_SANITIZE=address,undefined
  cmake --build "$asan_dir" -j "$jobs"
  # The full ctest run includes the csim differential suites, so the
  # compiled backend's slot arithmetic gets the ASan/UBSan treatment too.
  (cd "$asan_dir" && ctest --output-on-failure -j "$jobs" --timeout "$test_timeout")
  echo "ci: tier-1 verify passed under ASan/UBSan"
  exit 0
fi

if [ "$release" -eq 1 ]; then
  # The default build is RelWithDebInfo (-O2); -O3 inlines more and so
  # warns in places -O2 does not (GCC 12's -Wrestrict on string building).
  # A separate tree keeps the -O3 objects out of the normal build.
  release_dir="$repo_root/build-release"
  cmake -B "$release_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
  cmake --build "$release_dir" -j "$jobs"
  (cd "$release_dir" && ctest --output-on-failure -j "$jobs" \
    --timeout "$test_timeout")
  echo "ci: warning-free Release build passed tier-1"
  exit 0
fi

if [ "$tsan" -eq 1 ]; then
  # The concurrent code paths (work-stealing executor, batch runner, the
  # parallel campaign/closure drivers they schedule) under ThreadSanitizer,
  # plus the csim differential suites: compiled-backend campaigns run one
  # Machine per worker, so the suites double as a data-race check on the
  # compile/executor seam. The fault_test campaign suites (Campaign.*,
  # Backends/BenchmarkCampaign.*) run the parallel campaign, whose MC shards
  # on every worker read one compiled property suite. A separate build tree
  # keeps instrumented objects out of the normal build; only these test
  # binaries are built and run — TSan and ASan cannot share a process, so
  # this complements --sanitize.
  tsan_dir="${LA1_TSAN_BUILD_DIR:-$repo_root/build-tsan}"
  cmake -B "$tsan_dir" -S "$repo_root" -DLA1_SANITIZE=thread
  cmake --build "$tsan_dir" -j "$jobs" \
    --target exec_determinism_test batch_test csim_parity_test csim_lane_test \
    fault_test
  (cd "$tsan_dir" && ctest --output-on-failure -j "$jobs" \
    --timeout "$test_timeout" -R 'Exec|Batch|Csim|Campaign\.')
  echo "ci: executor/batch/csim/campaign tests passed under ThreadSanitizer"
  exit 0
fi

if [ "$line_cov" -eq 1 ]; then
  # Tier-1 under gcov instrumentation (-DLA1_COVERAGE=ON) in a separate
  # build tree, then aggregate the line rate across every object the test
  # run touched and report it in the canonical BenchReport JSON shape.
  cov_dir="${LA1_COV_BUILD_DIR:-$repo_root/build-cov}"
  cmake -B "$cov_dir" -S "$repo_root" -DLA1_COVERAGE=ON
  cmake --build "$cov_dir" -j "$jobs"
  (cd "$cov_dir" && ctest --output-on-failure -j "$jobs" --timeout "$test_timeout")
  report="$cov_dir/line-coverage.json"
  find "$cov_dir/src" -name '*.gcda' -exec gcov -n {} + 2>/dev/null |
    awk -F'[:% ]+' -v out="$report" '
      /^Lines executed:/ { covered += $3 / 100 * $5; total += $5 }
      END {
        rate = total ? covered / total : 0
        printf "{\n  \"bench\": \"ci_line_coverage\",\n" > out
        printf "  \"params\": {\"option\": \"LA1_COVERAGE\"},\n" >> out
        printf "  \"metrics\": [{\"kind\": \"line_coverage\", \"line_rate\": %.4f, \"lines_covered\": %d, \"lines_total\": %d}]\n}\n", \
               rate, covered, total >> out
        printf "ci: line coverage %.1f%% (%d/%d lines) -> %s\n", \
               100 * rate, covered, total, out
      }'
  echo "ci: tier-1 verify passed under gcov instrumentation"
  exit 0
fi

if [ "$tidy" -eq 1 ]; then
  # clang-tidy gate over the library/tool/bench sources, judged against the
  # committed baseline: any (file, check) pair the baseline does not list
  # fails the gate. Fixing a warning (shrinking the run below the baseline)
  # always passes — regenerate the baseline to lock the improvement in:
  #   tools/ci.sh --tidy  # then copy the printed current list over
  #                       # tools/tidy-baseline.txt
  if ! command -v clang-tidy > /dev/null 2>&1; then
    echo "ci: clang-tidy not installed; tidy gate skipped"
    exit 0
  fi
  cmake -B "$build_dir" -S "$repo_root" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
    > /dev/null
  tidy_dir="${TMPDIR:-/tmp}/la1-ci-tidy.$$"
  mkdir -p "$tidy_dir"
  trap 'rm -rf "$tidy_dir"' EXIT
  # One (file, check) pair per line, repo-relative, sorted: stable across
  # line-number churn so the baseline only moves when a warning appears in
  # a new file or a new check fires.
  find "$repo_root/src" "$repo_root/tools" "$repo_root/bench" \
    -name '*.cpp' -print | sort | xargs clang-tidy --quiet -p "$build_dir" \
    2> /dev/null |
    sed -n "s|^$repo_root/||; s/^\([^:]*\):[0-9][0-9]*:[0-9][0-9]*: warning: .*\[\([a-z0-9.,-]*\)\]\$/\1 \2/p" |
    sort -u > "$tidy_dir/current.txt" || true
  grep -v '^#' "$repo_root/tools/tidy-baseline.txt" | grep -v '^$' |
    sort -u > "$tidy_dir/baseline.txt" || true
  if new_warnings=$(comm -23 "$tidy_dir/current.txt" "$tidy_dir/baseline.txt") \
     && [ -n "$new_warnings" ]; then
    echo "ci: clang-tidy warnings not in tools/tidy-baseline.txt:" >&2
    echo "$new_warnings" >&2
    exit 1
  fi
  gate_done "clang-tidy gate passed ($(wc -l < "$tidy_dir/current.txt") baselined warning(s))"
  exit 0
fi

if [ "$smoke_only" -eq 0 ]; then
  # Tier-1 verify (ROADMAP.md); a new warning fails the build.
  cmake -B "$build_dir" -S "$repo_root" -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
  cmake --build "$build_dir" -j "$jobs"
  (cd "$build_dir" && ctest --output-on-failure -j "$jobs" --timeout "$test_timeout")
  gate_done "tier-1 verify passed"
fi

smoke_dir="${TMPDIR:-/tmp}/la1-ci-smoke.$$"
mkdir -p "$smoke_dir"
trap 'rm -rf "$smoke_dir"' EXIT

# check_injected COMMAND EXACT DEFECT:RULE...: each injected-defect fixture
# must fail `la1check COMMAND --inject DEFECT --fail-on warn` and report
# RULE; with EXACT=1 the report must carry that one finding and no other.
check_injected() {
  inj_cmd=$1
  inj_exact=$2
  shift 2
  for pair in "$@"; do
    defect=${pair%%:*}
    rule=${pair#*:}
    inj_json="$smoke_dir/$inj_cmd-$defect.json"
    if "$build_dir/tools/la1check" "$inj_cmd" --inject "$defect" \
         --fail-on warn --json "$inj_json" > /dev/null; then
      echo "ci: $inj_cmd --inject $defect unexpectedly passed" >&2
      exit 1
    fi
    grep -q "\"rule_id\": \"$rule\"" "$inj_json"
    if [ "$inj_exact" -eq 1 ] &&
       [ "$(grep -c '"rule_id"' "$inj_json")" -ne 1 ]; then
      echo "ci: $inj_cmd --inject $defect tripped more than its own rule" >&2
      exit 1
    fi
  done
}

# Static-lint gate: the stock device must lint clean (no errors), and every
# injected-defect fixture must fail and report its expected rule id.
"$build_dir/tools/la1check" lint --banks 4 --fail-on error \
  --json "$smoke_dir/lint.json" > /dev/null
grep -q '"errors": 0' "$smoke_dir/lint.json"

check_injected lint 0 \
  loop:NET-COMB-LOOP double-driver:NET-MULTI-DRIVE \
  width-mismatch:NET-MEM-ADDR no-reset:NET-NO-RESET \
  name-collision:NET-NAME-COLLISION unsat-sere:PSL-UNSAT \
  missing-net:PSL-MISSING-NET stuck-reg:NET-CONST \
  x-reset:NET-X-RESET dead-logic:NET-DEAD-LOGIC \
  dup-reg:NET-EQUIV-REG
gate_done "static-lint gate passed"

# MSC spec gate: every shipped chart must parse, validate, and compile, and
# the compiled monitors must come through the PSL linter with no findings
# of any severity. A chart edit that breaks a derived property fails here,
# before anything simulates.
for chart in "$repo_root"/examples/*.msc; do
  "$build_dir/tools/la1check" msc "$chart" --lint --fail-on warn \
    --json "$smoke_dir/msc-$(basename "$chart" .msc).json" > /dev/null
  grep -q '"errors": 0' "$smoke_dir/msc-$(basename "$chart" .msc).json"
  grep -q '"warnings": 0' "$smoke_dir/msc-$(basename "$chart" .msc).json"
done
gate_done "MSC spec gate passed"

# Sequential-dataflow gate: the stock model-checking geometry must come out
# of the ternary fixpoint + register sweep with zero findings of any
# severity at every bank count the Table-2 benches exercise.
for banks in 1 2 4; do
  "$build_dir/tools/la1check" dfa --banks "$banks" --fail-on warn \
    --json "$smoke_dir/dfa-$banks.json" > /dev/null
  grep -q '"errors": 0' "$smoke_dir/dfa-$banks.json"
  grep -q '"warnings": 0' "$smoke_dir/dfa-$banks.json"
done
gate_done "sequential-dataflow gate passed"

# Flow-analysis gate: bit-level taint must prove the stock device's banks
# non-interfering (zero findings of any severity) at every bank count the
# Table-2 benches exercise, and every injected flow defect must fail with
# exactly its expected rule id.
for banks in 1 2 4; do
  "$build_dir/tools/la1check" flowan --banks "$banks" --fail-on warn \
    --json "$smoke_dir/flowan-$banks.json" > /dev/null
  grep -q '"errors": 0' "$smoke_dir/flowan-$banks.json"
  grep -q '"warnings": 0' "$smoke_dir/flowan-$banks.json"
done

check_injected flowan 0 \
  bank-leak:FLOW-BANK-LEAK ctrl-in-data:FLOW-CTRL-IN-DATA \
  undriven-atom:FLOW-UNDRIVEN-ATOM dead-atom:FLOW-DEAD-ATOM
gate_done "flow-analysis gate passed"

# Lowering-legality gate (opt-in: --plan): the compile planner must prove at
# least 90% of the stock device's state-holding bits two-state with zero
# legality findings of any severity at every bank count the Table-2 benches
# exercise, and each injected defect fixture (the PLAN-* companion to the
# lint-gate fixture list above) must fail reporting exactly its rule id and
# nothing else.
if [ "$plan" -eq 1 ]; then
  for banks in 1 2 4; do
    "$build_dir/tools/la1check" plan --banks "$banks" --fail-on warn \
      --min-two-state 90 --json "$smoke_dir/plan-$banks.json" > /dev/null
    grep -q '"findings": \[\]' "$smoke_dir/plan-$banks.json"
  done
  check_injected plan 1 \
    x-live-hotpath:PLAN-X-LIVE-HOTPATH port-conflict:PLAN-PORT-CONFLICT \
    tristate-lower:PLAN-TRISTATE-LOWER sched-diverge:PLAN-SCHED-DIVERGE
  gate_done "lowering-legality gate passed (banks 1, 2 and 4)"
fi

# Compiled-simulation gate (opt-in: --csim): the 64-lane bit-parallel
# backend must (a) pass the differential suites — the random-netlist
# lockstep proof, the lane-discipline tests, the per-lane fault forces
# against CycleSim mutants and the lane-batch tests, (b) prove full-device
# parity against the interpreter through `la1check csim` at every bank
# count the Table-3 benches exercise, and (c) produce a byte-identical
# fault-campaign report on both backends — a tiny 1-bank plan, and the
# benchmark's 2-bank plan and the default 4-bank plan with the MC column
# on, where the compiled backend runs every mutant as a lane of one
# Machine — and (d) run the Table-3 64-stream loop at 4 banks, every lane
# driven separately through the staged, transposed input path, with OVL
# verdicts equal to the interpreter's and no failure in any lane (no timing
# gate on this one). The >=10x per-stream speedup
# smoke only arms on hosts with at least 4 cores — on a loaded or tiny
# machine the timing signal is noise, so the gate degrades to a skip
# notice there; the exactness checks always run.
if [ "$csim" -eq 1 ]; then
  (cd "$build_dir" && ctest --output-on-failure -j "$jobs" \
    --timeout "$test_timeout" -R 'Csim|LaneForces|LaneBatch')
  for banks in 1 2 4; do
    "$build_dir/tools/la1check" csim --banks "$banks" --cycles 200 \
      --parity-cycles 100 --json "$smoke_dir/csim-$banks.json" > /dev/null
    grep -q '"parity_ok": true' "$smoke_dir/csim-$banks.json"
  done
  for backend in interpreted compiled; do
    "$build_dir/tools/la1check" faults --banks 1 --seed 1 --transactions 40 \
      --structural 2 --protocol 1 --no-mc --backend "$backend" \
      --json "$smoke_dir/csim-faults-$backend.json" > /dev/null
  done
  for backend in interpreted compiled; do
    "$build_dir/tools/la1check" faults --banks 2 --seed 1 --transactions 300 \
      --structural 20 --protocol 4 --backend "$backend" \
      --json "$smoke_dir/csim-faults-2bank-$backend.json" > /dev/null
    "$build_dir/tools/la1check" faults --banks 4 --seed 1 --transactions 300 \
      --backend "$backend" \
      --json "$smoke_dir/csim-faults-4bank-$backend.json" > /dev/null
  done
  for plan in faults faults-2bank faults-4bank; do
    if ! cmp -s "$smoke_dir/csim-$plan-interpreted.json" \
         "$smoke_dir/csim-$plan-compiled.json"; then
      echo "ci: compiled fault-campaign report ($plan) differs from interpreted" >&2
      exit 1
    fi
  done
  "$build_dir/bench/bench_table3_abv_sim" --banks-list 4 --rtl-ticks 400 \
    --json "$smoke_dir/csim-table3.json" > /dev/null
  if ! grep -q '"verdicts_equal": true' "$smoke_dir/csim-table3.json" ||
     ! grep -q '"rtl_lane64_failures": 0,' "$smoke_dir/csim-table3.json"; then
    echo "ci: Table-3 64-stream run disagrees with the interpreter or fails a lane" >&2
    exit 1
  fi
  cores=$(nproc 2>/dev/null || echo 1)
  if [ "$cores" -ge 4 ]; then
    speedup=$(sed -n 's/.*"per_stream_speedup": \([0-9.]*\).*/\1/p' \
      "$smoke_dir/csim-1.json")
    if ! awk -v s="$speedup" 'BEGIN { exit !(s + 0 >= 10.0) }'; then
      echo "ci: per-stream speedup $speedup below the 10x bar" >&2
      exit 1
    fi
    gate_done "compiled-simulation gate passed (parity, hash-equality, ${speedup}x per stream)"
  else
    gate_done "compiled-simulation gate passed (parity, hash-equality; speedup smoke skipped on $cores-core host)"
  fi
fi

# Fault-campaign gate (opt-in: --faults): the MC column's pruning parity
# suite (McPruning: every stock result a mutant inherits equals a real
# check of that mutant), then a fixed-seed mutation campaign at 1, 2 and 4
# banks must keep the mutation score at or above 0.9 with zero false
# alarms on the unmutated device. la1check exits nonzero on either
# violation, so the gate is just the exit status plus a shape check.
if [ "$faults" -eq 1 ]; then
  (cd "$build_dir" && ctest --output-on-failure -j "$jobs" \
    --timeout "$test_timeout" -R 'McPruning')
  for banks in 1 2 4; do
    "$build_dir/tools/la1check" faults --banks "$banks" --seed 1 \
      --fail-under 0.9 --json "$smoke_dir/faults-$banks.json" > /dev/null
    grep -q '"rows"' "$smoke_dir/faults-$banks.json"
    grep -q '"ok": true' "$smoke_dir/faults-$banks.json"
  done
  gate_done "fault-campaign gate passed (pruning parity; banks 1, 2 and 4, seed 1)"
fi

# Coverage-closure gate (opt-in: --cov): fixed-seed closure at 1 and 2 banks
# must reach 90% of the functional-coverage bins, and the shrinker must
# reduce the seeded failing stream to a reproducer that still fails on
# replay. la1check exits nonzero on either violation.
if [ "$cov" -eq 1 ]; then
  for banks in 1 2; do
    "$build_dir/tools/la1check" cov --banks "$banks" --seed 1 \
      --fail-under 0.9 --json "$smoke_dir/cov-$banks.json" > /dev/null
    grep -q '"groups"' "$smoke_dir/cov-$banks.json"
    grep -q '"coverage"' "$smoke_dir/cov-$banks.json"
  done
  "$build_dir/tools/la1check" cov --banks 1 --seed 1 --shrink \
    --out "$smoke_dir/cov-repro.json" > /dev/null
  "$build_dir/tools/la1check" cov --replay "$smoke_dir/cov-repro.json" \
    > /dev/null
  gate_done "coverage-closure gate passed (banks 1 and 2, seed 1)"
fi

# Batch-service gate (opt-in: --batch): the shipped example job file must
# (a) produce byte-identical batch hashes at 1 and 4 workers under a
# perturbed steal schedule, (b) complete with zero crashed shards, and
# (c) resume after a simulated kill — journal truncated mid-line — to the
# same hash, replaying the surviving shards instead of re-running them.
if [ "$batch" -eq 1 ]; then
  batch_hash() {
    # The top-level batch hash (indent 2 in the dump); per-job hashes sit
    # deeper and never match this pattern.
    sed -n 's/^  "hash": "\([0-9a-f]*\)".*/\1/p' "$1"
  }
  "$build_dir/tools/la1batch" example > "$smoke_dir/batch-job.json"
  "$build_dir/tools/la1batch" run "$smoke_dir/batch-job.json" --workers 1 \
    --json "$smoke_dir/batch-w1.json" > /dev/null
  "$build_dir/tools/la1batch" run "$smoke_dir/batch-job.json" --workers 4 \
    --steal-seed 99 --json "$smoke_dir/batch-w4.json" > /dev/null
  h1=$(batch_hash "$smoke_dir/batch-w1.json")
  h4=$(batch_hash "$smoke_dir/batch-w4.json")
  if [ -z "$h1" ] || [ "$h1" != "$h4" ]; then
    echo "ci: batch hash differs across worker counts ($h1 vs $h4)" >&2
    exit 1
  fi
  if grep -q '"crashed": [^0]' "$smoke_dir/batch-w4.json"; then
    echo "ci: batch run reported crashed shard(s)" >&2
    exit 1
  fi
  grep -q '"all_pass": true' "$smoke_dir/batch-w4.json"

  # Kill/resume round trip: journal the full run, keep only the first half
  # of the journal plus a torn tail, and resume from what survived.
  "$build_dir/tools/la1batch" run "$smoke_dir/batch-job.json" --workers 2 \
    --journal "$smoke_dir/batch.jsonl" > /dev/null
  lines=$(wc -l < "$smoke_dir/batch.jsonl")
  head -n "$((lines / 2))" "$smoke_dir/batch.jsonl" > "$smoke_dir/batch-cut.jsonl"
  printf '{"key": "torn' >> "$smoke_dir/batch-cut.jsonl"
  mv "$smoke_dir/batch-cut.jsonl" "$smoke_dir/batch.jsonl"
  "$build_dir/tools/la1batch" run "$smoke_dir/batch-job.json" --workers 2 \
    --journal "$smoke_dir/batch.jsonl" --resume \
    --json "$smoke_dir/batch-resumed.json" > /dev/null
  hr=$(batch_hash "$smoke_dir/batch-resumed.json")
  if [ "$hr" != "$h1" ]; then
    echo "ci: resumed batch hash $hr differs from uninterrupted $h1" >&2
    exit 1
  fi
  if ! grep -q '"replayed": [1-9]' "$smoke_dir/batch-resumed.json"; then
    echo "ci: resumed batch replayed nothing from the journal" >&2
    exit 1
  fi
  gate_done "batch-service gate passed (1 vs 4 workers, kill/resume)"
fi

# Bench smoke: every bench_table* binary must emit a parseable --json
# report; the 3-way lockstep example must agree across the levels.
"$build_dir/bench/bench_table1_asm_mc" --max-banks 1 --max-states 20000 \
  --json "$smoke_dir/table1.json" > /dev/null
"$build_dir/bench/bench_table2_symbolic_mc" --max-banks 1 \
  --json "$smoke_dir/table2.json" > /dev/null
"$build_dir/bench/bench_table2_invariants" --max-banks 1 \
  --json "$smoke_dir/BENCH_table2_invariants.json" > /dev/null
"$build_dir/bench/bench_table3_abv_sim" --banks-list 1 --sc-ticks 400 \
  --rtl-ticks 200 --json "$smoke_dir/table3.json" > /dev/null
# bench_coi exits non-zero unless the semantic and structural cones give
# the same verdicts; 2 banks covers the cone on a multi-bank design.
"$build_dir/bench/bench_coi" --banks-list 1,2 \
  --json "$smoke_dir/coi.json" > /dev/null
"$build_dir/bench/bench_ablation_tr" --banks 1 \
  --json "$smoke_dir/ablation_tr.json" > /dev/null
"$build_dir/bench/bench_plan" --banks-list 1,2 --cycles 200 \
  --json "$smoke_dir/plan.json" > /dev/null
"$build_dir/examples/nway_lockstep" --banks-list 1,2 --transactions 200 \
  --json "$smoke_dir/nway.json" > /dev/null
# Ablation C is the only non-test caller of plain ASM reachability; run it
# small so that path keeps working (exit status only).
"$build_dir/bench/bench_ablation_domains" --max-states 2000 > /dev/null

# Table 1 row 1 (the combined ASM suite at 1 bank) must explore the whole
# generated FSM inside the 20,000-state smoke budget and verify it: an
# explorer change may move time, never these counts.
table1_row1=$(sed -n '/"banks": 1,/,/"result"/p' "$smoke_dir/table1.json")
case "$table1_row1" in
  *'"fsm_states": 19459,'*'"fsm_transitions": 198418,'*'"result": "verified"'*) ;;
  *)
    echo "ci: Table 1 row 1 is not 19459 states / 198418 transitions, verified" >&2
    exit 1
    ;;
esac

# Table 2 row 1 (the unreduced 1-bank read-mode check) must verify at its
# fixpoint depth: a BDD-engine change may move time and memory, never that.
table2_row1=$(sed -n '/"banks": 1,/,/"result"/p' "$smoke_dir/table2.json")
case "$table2_row1" in
  *'"iterations": 9,'*'"result": "verified"'*) ;;
  *)
    echo "ci: Table 2 row 1 is not verified in 9 iterations" >&2
    exit 1
    ;;
esac

# Ablation A at 1 bank: the partitioned image, which clusters its
# conjuncts once the reached set outgrows a cluster, and the monolithic
# relation must both verify the full design in 9 iterations and reach the
# same number of states.
ablation_row() {
  sed -n "/\"strategy\": \"$1\"/,/\"image_parts\"/p" \
    "$smoke_dir/ablation_tr.json" |
    grep -e '"result"' -e '"iterations"' -e '"reachable_states"' | tr -d ' \n'
}
partitioned_row=$(ablation_row "partitioned, full design")
monolithic_row=$(ablation_row "monolithic relation, full design")
case "$partitioned_row" in
  '"result":"verified",'*'"iterations":9,'*'"reachable_states":'*) ;;
  *) partitioned_row="" ;;
esac
if [ -z "$partitioned_row" ] || [ "$partitioned_row" != "$monolithic_row" ]; then
  echo "ci: ablation A full-design rows are not both verified in 9" \
    "iterations with equal reachable states" >&2
  exit 1
fi

# Table 3 row 1: the behavioural PSL suite (catalog rows P1/P2/P4) and the
# RTL OVL monitors raise no failure on stock traffic, and every backend
# reaches the same verdicts.
if ! grep -q '"failures": 0,' "$smoke_dir/table3.json" ||
   ! grep -q '"verdicts_equal": true' "$smoke_dir/table3.json"; then
  echo "ci: Table 3 row 1 has monitor failures or unequal verdicts" >&2
  exit 1
fi

for f in table1 table2 BENCH_table2_invariants table3 coi ablation_tr plan nway; do
  # Minimal validity check without external tools: the canonical report
  # shape starts with {"bench": and names its metrics array.
  grep -q '"bench"' "$smoke_dir/$f.json"
  grep -q '"metrics"' "$smoke_dir/$f.json"
done
gate_done "bench smoke passed"

echo "ci: tier-1 verify, lint, dataflow, flow-analysis, and bench smoke passed"
