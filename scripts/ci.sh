#!/usr/bin/env bash
# Tier-1 CI gate: address-sanitized build, the full test suite, repository
# lint, and a self-hosted pdbcheck run over the repo's own example program.
#
#   scripts/ci.sh [build-dir]      (default: build-ci)
#
# Everything must pass; the script stops at the first failure.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-${ROOT}/build-ci}"
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== configure (ASan+UBSan) =="
cmake -S "${ROOT}" -B "${BUILD}" -DPDT_SANITIZE=address,undefined

echo "== build =="
cmake --build "${BUILD}" -j "${JOBS}"

echo "== lint =="
cmake --build "${BUILD}" --target check-lint

echo "== tests =="
ctest --test-dir "${BUILD}" --output-on-failure -j "${JOBS}"

echo "== frontend gate =="
# Zero-allocation lexing (DESIGN.md "Token backing and ownership"): the
# batch fast path (RawLexer::lexAll) must produce the byte-identical
# token stream of the incremental path over every corpus source, under
# the sanitized build — string_view tokens with dangling backing die
# here, not in production.
lexed=0
while IFS= read -r src; do
    "${BUILD}/src/tools/lexdump" --mode=batch "${src}" \
        > "${BUILD}/ci_lex_batch.txt" 2> /dev/null
    "${BUILD}/src/tools/lexdump" --mode=incremental "${src}" \
        > "${BUILD}/ci_lex_inc.txt" 2> /dev/null
    cmp "${BUILD}/ci_lex_batch.txt" "${BUILD}/ci_lex_inc.txt" \
        || { echo "lex stream mismatch: ${src}" >&2; exit 1; }
    lexed=$((lexed + 1))
done < <(find "${ROOT}/inputs" "${ROOT}/runtime" \
              -name '*.cpp' -o -name '*.h' | sort)
echo "frontend gate OK: batch == incremental over ${lexed} corpus files"

echo "== self-hosted pdbcheck =="
# Compile the shipped Krylov solver (the Figure 7 subject) to a database
# and run every check over it. The inputs are clean code: any warning or
# error — or any false positive — fails the gate (exit 1 on findings).
"${BUILD}/src/tools/cxxparse" \
    "${ROOT}/inputs/pooma_mini/krylov.cpp" \
    -I "${ROOT}/inputs/pooma_mini" -I "${ROOT}/runtime/pdt_stl" \
    -o "${BUILD}/ci_krylov.pdb"
"${BUILD}/src/tools/pdbcheck" "${BUILD}/ci_krylov.pdb" --checks=all -j "${JOBS}"

echo "== storage formats =="
# The binary v2 container must be lossless against the canonical ASCII
# form (docs/PDB_FORMAT.md §"Binary v2"): compile the seed programs to
# both formats, convert each way with pdbconv, and require byte identity.
for seed in stack krylov; do
    case "${seed}" in
        stack)  src="${ROOT}/inputs/stack/TestStackAr.cpp";  inc="${ROOT}/inputs/stack" ;;
        krylov) src="${ROOT}/inputs/pooma_mini/krylov.cpp"; inc="${ROOT}/inputs/pooma_mini" ;;
    esac
    "${BUILD}/src/tools/cxxparse" "${src}" -I "${inc}" -I "${ROOT}/runtime/pdt_stl" \
        -o "${BUILD}/ci_fmt_${seed}.pdb"
    "${BUILD}/src/tools/cxxparse" "${src}" -I "${inc}" -I "${ROOT}/runtime/pdt_stl" \
        --format=bin -o "${BUILD}/ci_fmt_${seed}.bpdb"
    "${BUILD}/src/tools/pdbconv" --to=bin "${BUILD}/ci_fmt_${seed}.pdb" \
        -o "${BUILD}/ci_fmt_${seed}.conv.bpdb"
    "${BUILD}/src/tools/pdbconv" --to=ascii "${BUILD}/ci_fmt_${seed}.conv.bpdb" \
        -o "${BUILD}/ci_fmt_${seed}.back.pdb"
    # ASCII -> binary -> ASCII reproduces the compiler's output, and the
    # converted binary equals the directly-compiled one.
    cmp "${BUILD}/ci_fmt_${seed}.pdb" "${BUILD}/ci_fmt_${seed}.back.pdb"
    cmp "${BUILD}/ci_fmt_${seed}.bpdb" "${BUILD}/ci_fmt_${seed}.conv.bpdb"
done
# pdbcheck must report the same diagnostics (and exit code) whichever
# format its merged inputs are stored in.
"${BUILD}/src/tools/pdbmerge" "${BUILD}/ci_fmt_stack.pdb" "${BUILD}/ci_fmt_krylov.pdb" \
    -o "${BUILD}/ci_fmt_merged.pdb"
"${BUILD}/src/tools/pdbmerge" "${BUILD}/ci_fmt_stack.bpdb" "${BUILD}/ci_fmt_krylov.bpdb" \
    --format=bin -o "${BUILD}/ci_fmt_merged.bpdb"
ascii_rc=0
"${BUILD}/src/tools/pdbcheck" "${BUILD}/ci_fmt_merged.pdb" --checks=all \
    -j "${JOBS}" > "${BUILD}/ci_fmt_check_ascii.out" || ascii_rc=$?
bin_rc=0
"${BUILD}/src/tools/pdbcheck" "${BUILD}/ci_fmt_merged.bpdb" --checks=all \
    -j "${JOBS}" > "${BUILD}/ci_fmt_check_bin.out" || bin_rc=$?
[ "${ascii_rc}" -eq "${bin_rc}" ]
cmp "${BUILD}/ci_fmt_check_ascii.out" "${BUILD}/ci_fmt_check_bin.out"
# The DUCTAPE graph must not depend on how the merged database is stored
# or read: pdbtree (all three trees) and pdbhtml agree byte for byte over
# the ASCII and binary files, each mapped and read with --mmap=off. Every
# copy is named merged.pdb, so pdbhtml's title (the input path) agrees too.
for variant in ascii bin; do
    mkdir -p "${BUILD}/ci_graph_${variant}"
done
cp "${BUILD}/ci_fmt_merged.pdb" "${BUILD}/ci_graph_ascii/merged.pdb"
cp "${BUILD}/ci_fmt_merged.bpdb" "${BUILD}/ci_graph_bin/merged.pdb"
for variant in ascii bin; do
    for mmap in auto off; do
        out="${BUILD}/ci_graph_${variant}_${mmap}.out"
        (
            cd "${BUILD}/ci_graph_${variant}"
            for mode in --calls --classes --includes; do
                "${BUILD}/src/tools/pdbtree" merged.pdb "${mode}" --mmap="${mmap}"
            done
            "${BUILD}/src/tools/pdbhtml" merged.pdb --mmap="${mmap}"
        ) > "${out}"
        cmp "${BUILD}/ci_graph_ascii_auto.out" "${out}"
    done
done
echo "graph OK: pdbtree and pdbhtml agree across formats and --mmap modes"

echo "== dataflow rules =="
# The dataflow rules (docs/PDBCHECK.md) must agree across storage formats
# and stay silent on the clean seed corpus — zero false positives is the
# contract that lets the self-hosted gate above run --checks=all. A
# seeded-bug translation unit proves each rule actually fires, and
# pdbduct must answer reaching-definition queries from the same database
# while leaving the sections its queries never touch on disk.
DF_CHECKS="uninitialized-read,dead-store,null-deref-candidate"
df_ascii_rc=0
"${BUILD}/src/tools/pdbcheck" "${BUILD}/ci_fmt_merged.pdb" \
    --checks="${DF_CHECKS}" -j "${JOBS}" > "${BUILD}/ci_df_ascii.out" \
    || df_ascii_rc=$?
df_bin_rc=0
"${BUILD}/src/tools/pdbcheck" "${BUILD}/ci_fmt_merged.bpdb" \
    --checks="${DF_CHECKS}" -j "${JOBS}" > "${BUILD}/ci_df_bin.out" \
    || df_bin_rc=$?
[ "${df_ascii_rc}" -eq "${df_bin_rc}" ]
cmp "${BUILD}/ci_df_ascii.out" "${BUILD}/ci_df_bin.out"
# Clean inputs: the dataflow rules must find nothing.
[ "${df_ascii_rc}" -eq 0 ]
# Seeded bugs: one uninitialized read, one dead store, one null deref.
cat > "${BUILD}/ci_df_seeded.cpp" <<'EOF'
int read_uninit(int c) {
  int x;
  if (c > 0) { return x; }
  x = 2;
  return x;
}
int dead_store(int a) {
  int t = a;
  t = a + 1;
  t = a + 2;
  return t;
}
int null_deref() {
  int* q = 0;
  return *q;
}
EOF
"${BUILD}/src/tools/cxxparse" "${BUILD}/ci_df_seeded.cpp" \
    -o "${BUILD}/ci_df_seeded.pdb"
df_seed_rc=0
"${BUILD}/src/tools/pdbcheck" "${BUILD}/ci_df_seeded.pdb" \
    --checks="${DF_CHECKS}" > "${BUILD}/ci_df_seeded.out" || df_seed_rc=$?
[ "${df_seed_rc}" -eq 1 ]
grep -q "uninitialized-read" "${BUILD}/ci_df_seeded.out"
grep -q "dead-store" "${BUILD}/ci_df_seeded.out"
grep -q "null-deref-candidate" "${BUILD}/ci_df_seeded.out"
# pdbduct: lazy queries over the merged database must leave the type,
# template, and macro sections unloaded (pdb.sections_skipped counts them).
"${BUILD}/src/tools/pdbduct" "${BUILD}/ci_fmt_merged.bpdb" --var alpha \
    --defs --stats=json --stats-out "${BUILD}/ci_df_duct.stats.json" \
    > /dev/null
python3 - "${BUILD}" <<'PY'
import json, sys
stats = json.load(open(f"{sys.argv[1]}/ci_df_duct.stats.json"))
skipped = stats["counters"]["pdb.sections_skipped"]
assert skipped >= 3, f"pdbduct loaded sections it must skip (skipped={skipped})"
print(f"dataflow OK: format parity, clean corpus silent, seeded bugs found, "
      f"pdbduct skipped {skipped} section(s)")
PY

echo "== sharded merge =="
# Merge at scale (docs/MERGE.md): generate a ~1k-TU synthetic corpus
# with pdbgen, merge it with no budget at -j JOBS (the reference) and at
# -j 1 (the serial fold), and again under a memory budget far smaller
# than the corpus (forcing shard spills) at both job counts. Every output
# must be byte-identical, and the run-scoped spill directory must be
# gone afterward.
SHARD_DIR="${BUILD}/ci_shard_corpus"
rm -rf "${SHARD_DIR}"
mkdir -p "${SHARD_DIR}"
"${BUILD}/src/tools/pdbgen" -o "${SHARD_DIR}" -n 1000
corpus_mb="$(du -sm "${SHARD_DIR}" | cut -f1)"
"${BUILD}/src/tools/pdbmerge" "${SHARD_DIR}"/tu_*.pdb \
    -o "${BUILD}/ci_shard_ref.pdb" -j "${JOBS}"
"${BUILD}/src/tools/pdbmerge" "${SHARD_DIR}"/tu_*.pdb \
    -o "${BUILD}/ci_shard_serial.pdb" -j 1
cmp "${BUILD}/ci_shard_ref.pdb" "${BUILD}/ci_shard_serial.pdb"
for j in 1 "${JOBS}"; do
    "${BUILD}/src/tools/pdbmerge" "${SHARD_DIR}"/tu_*.pdb \
        -o "${BUILD}/ci_shard_j${j}.pdb" -j "${j}" --merge-mem-mb=8
    cmp "${BUILD}/ci_shard_ref.pdb" "${BUILD}/ci_shard_j${j}.pdb"
    [ ! -e "${BUILD}/ci_shard_j${j}.pdb.merge-tmp" ]
done
echo "sharded merge OK: ${corpus_mb} MB corpus merged under an 8 MB budget"

echo "== build cache determinism =="
# Compile the same inputs twice into a fresh cache directory: the first
# run compiles and stores, the second republishes every TU from the
# cache. The merged databases must be byte-identical (and identical to
# the uncached database produced above).
CACHE_DIR="${BUILD}/ci_cache"
rm -rf "${CACHE_DIR}"
"${BUILD}/src/tools/cxxparse" \
    "${ROOT}/inputs/pooma_mini/krylov.cpp" \
    -I "${ROOT}/inputs/pooma_mini" -I "${ROOT}/runtime/pdt_stl" \
    --cache-dir "${CACHE_DIR}" --cache-stats -j "${JOBS}" \
    -o "${BUILD}/ci_krylov_cold.pdb"
"${BUILD}/src/tools/cxxparse" \
    "${ROOT}/inputs/pooma_mini/krylov.cpp" \
    -I "${ROOT}/inputs/pooma_mini" -I "${ROOT}/runtime/pdt_stl" \
    --cache-dir "${CACHE_DIR}" --cache-stats -j "${JOBS}" \
    -o "${BUILD}/ci_krylov_warm.pdb"
cmp "${BUILD}/ci_krylov_cold.pdb" "${BUILD}/ci_krylov_warm.pdb"
cmp "${BUILD}/ci_krylov.pdb" "${BUILD}/ci_krylov_warm.pdb"

echo "== observability =="
# Traced + stats'd Krylov builds. Validates (a) the trace file is
# well-formed Chrome trace_event JSON with real spans, (b) the stats
# counters are non-trivial, and (c) the counter totals are
# byte-identical across -j values and across the cold/warm cache runs
# (docs/OBSERVABILITY.md) — the determinism contract that makes stats
# diffs meaningful in CI.
OBS_CACHE="${BUILD}/ci_obs_cache"
rm -rf "${OBS_CACHE}"
for run in j1 j4 cold warm; do
    case "${run}" in
        j1)   extra=(-j 1) ;;
        j4)   extra=(-j 4) ;;
        cold) extra=(-j "${JOBS}" --cache-dir "${OBS_CACHE}") ;;
        warm) extra=(-j "${JOBS}" --cache-dir "${OBS_CACHE}") ;;
    esac
    "${BUILD}/src/tools/cxxparse" \
        "${ROOT}/inputs/pooma_mini/krylov.cpp" \
        -I "${ROOT}/inputs/pooma_mini" -I "${ROOT}/runtime/pdt_stl" \
        -o "${BUILD}/ci_obs_${run}.pdb" "${extra[@]}" \
        --stats=json --stats-out "${BUILD}/ci_obs_${run}.stats.json" \
        --trace-out "${BUILD}/ci_obs_${run}.trace.json" 2> /dev/null
done
# The compiled database must be byte-identical at any -j and for warm
# vs cold cache — the end-to-end determinism the zero-allocation
# frontend must preserve.
for run in j4 cold warm; do
    cmp "${BUILD}/ci_obs_j1.pdb" "${BUILD}/ci_obs_${run}.pdb"
done
python3 - "${BUILD}" <<'PY'
import json, sys
build = sys.argv[1]

trace = json.load(open(f"{build}/ci_obs_j1.trace.json"))
events = trace["traceEvents"]
spans = [e for e in events if e["ph"] == "X"]
assert spans, "trace has no complete spans"
assert any(e["name"] == "tu.compile" for e in spans), "no tu.compile span"
assert all(e["dur"] >= 0 for e in spans), "negative span duration"
assert any(e["ph"] == "M" for e in events), "no thread-name metadata"

def counters(run):
    return json.load(open(f"{build}/ci_obs_{run}.stats.json"))["counters"]

j1 = counters("j1")
assert j1["lex.tokens"] > 0 and j1["sema.class_instantiations"] > 0, \
    f"implausible counters: {j1}"
assert j1["driver.tus"] == 1, j1["driver.tus"]
for run in ("j4", "cold", "warm"):
    assert counters(run) == j1, f"counters differ for {run} run"
print(f"observability OK: {len(spans)} spans, "
      f"{j1['lex.tokens']} tokens, counters identical across 4 runs")
PY

echo "== dynamic analysis =="
# Production-scale profiling path (docs/OBSERVABILITY.md §"Dynamic
# profiling at scale"): run the multi-threaded ALEPH example writing one
# binary profile file per thread, merge them with tauprof, and assert
# the merged call counts are exact — the lock-free runtime must not
# lose or double-count a single event. Then attach the merged profile
# to a program database as a dp section and require ASCII <-> binary
# round-trip identity, and require the merge itself to be byte-stable
# under input reordering.
DYN_DIR="${BUILD}/ci_dyn_profiles"
DYN_THREADS=4
DYN_EVENTS=500
rm -rf "${DYN_DIR}"
mkdir -p "${DYN_DIR}"
TAU_PROFILE_FILE="${DYN_DIR}" TAU_NODE=0 TAU_CONTEXT=1 \
    "${BUILD}/examples/aleph_events" "${DYN_THREADS}" "${DYN_EVENTS}" \
    > "${BUILD}/ci_dyn_run.out"
grep -q "analyzed" "${BUILD}/ci_dyn_run.out"
profile_count="$(ls "${DYN_DIR}"/profile.* | wc -l)"
# One file per worker thread plus the main thread.
[ "${profile_count}" -ge $((DYN_THREADS + 1)) ]
"${BUILD}/src/tools/tauprof" "${DYN_DIR}"/profile.* \
    --format=csv -o "${BUILD}/ci_dyn_merged.csv"
python3 - "${BUILD}" "${DYN_THREADS}" "${DYN_EVENTS}" <<'PY'
import csv, sys
build, threads, events = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
rows = {r["name"]: r for r in csv.DictReader(open(f"{build}/ci_dyn_merged.csv"))}
analyze = rows["analyzeEvent()"]
assert int(analyze["calls"]) == threads * events, \
    f"lost events: {analyze['calls']} != {threads * events}"
assert int(analyze["threads"]) == threads, analyze["threads"]
assert int(rows["workerLoop()"]["calls"]) == threads, rows["workerLoop()"]
print(f"dynamic analysis OK: {threads * events} analyzeEvent calls exact "
      f"across {threads} worker threads")
PY
# Merge determinism: reversed input order must give byte-identical output.
"${BUILD}/src/tools/tauprof" $(ls -r "${DYN_DIR}"/profile.*) \
    --format=csv -o "${BUILD}/ci_dyn_merged_rev.csv"
cmp "${BUILD}/ci_dyn_merged.csv" "${BUILD}/ci_dyn_merged_rev.csv"
# dp section: join with the static database, round-trip both formats.
"${BUILD}/src/tools/tauprof" "${DYN_DIR}"/profile.* \
    --pdb "${BUILD}/ci_krylov.pdb" --db-out "${BUILD}/ci_dyn.pdb" > /dev/null
grep -q "^dp#" "${BUILD}/ci_dyn.pdb"
"${BUILD}/src/tools/pdbconv" --to=bin "${BUILD}/ci_dyn.pdb" \
    -o "${BUILD}/ci_dyn.bpdb"
"${BUILD}/src/tools/pdbconv" --to=ascii "${BUILD}/ci_dyn.bpdb" \
    -o "${BUILD}/ci_dyn.back.pdb"
cmp "${BUILD}/ci_dyn.pdb" "${BUILD}/ci_dyn.back.pdb"
"${BUILD}/src/tools/pdbtree" "${BUILD}/ci_dyn.bpdb" --profile > /dev/null

echo "== pdbd service =="
# The resident query daemon (docs/PDBD.md) must answer byte-identically
# to the one-shot tools under 32 concurrent clients, keep serving the
# old generation when a swap fails, hot-swap to a regenerated database
# without dropping anyone, and drain cleanly on shutdown (socket
# unlinked, exit 0).
PDBD_SOCK="${BUILD}/ci_pdbd.sock"
PDBQ="${BUILD}/src/pdbd/pdbq"
rm -f "${PDBD_SOCK}"
"${BUILD}/src/pdbd/pdbd" "${BUILD}/ci_fmt_merged.pdb" \
    --socket "${PDBD_SOCK}" 2> "${BUILD}/ci_pdbd.log" &
PDBD_PID=$!
for _ in $(seq 1 100); do [ -S "${PDBD_SOCK}" ] && break; sleep 0.1; done
[ -S "${PDBD_SOCK}" ]
# One-shot references for every verb the clients will ask.
"${BUILD}/src/tools/pdbtree" "${BUILD}/ci_fmt_merged.pdb" --calls \
    > "${BUILD}/ci_pdbd_calltree.ref"
"${BUILD}/src/tools/pdbtree" "${BUILD}/ci_fmt_merged.pdb" --classes \
    > "${BUILD}/ci_pdbd_hierarchy.ref"
"${BUILD}/src/tools/pdbtree" "${BUILD}/ci_fmt_merged.pdb" --includes \
    > "${BUILD}/ci_pdbd_includes.ref"
"${BUILD}/src/tools/pdbduct" "${BUILD}/ci_fmt_merged.pdb" \
    --routine dot --defs > "${BUILD}/ci_pdbd_defuse.ref"
# 32 concurrent clients, verbs interleaved round-robin.
client_pids=()
for i in $(seq 0 31); do
    case $((i % 4)) in
        0) verb="calltree" ;;
        1) verb="hierarchy" ;;
        2) verb="includes" ;;
        3) verb="defuse" ;;
    esac
    if [ "${verb}" = "defuse" ]; then
        "${PDBQ}" --socket "${PDBD_SOCK}" defuse --routine dot --defs \
            > "${BUILD}/ci_pdbd_client_${i}.out" &
    else
        "${PDBQ}" --socket "${PDBD_SOCK}" "${verb}" \
            > "${BUILD}/ci_pdbd_client_${i}.out" &
    fi
    client_pids+=($!)
done
for pid in "${client_pids[@]}"; do wait "${pid}"; done
for i in $(seq 0 31); do
    case $((i % 4)) in
        0) ref="calltree" ;;
        1) ref="hierarchy" ;;
        2) ref="includes" ;;
        3) ref="defuse" ;;
    esac
    cmp "${BUILD}/ci_pdbd_client_${i}.out" "${BUILD}/ci_pdbd_${ref}.ref"
done
# check verb: bytes and exit code must both mirror pdbcheck.
check_ref_rc=0
"${BUILD}/src/tools/pdbcheck" "${BUILD}/ci_fmt_merged.pdb" --checks=all \
    > "${BUILD}/ci_pdbd_check.ref" || check_ref_rc=$?
check_rc=0
"${PDBQ}" --socket "${PDBD_SOCK}" check \
    > "${BUILD}/ci_pdbd_check.out" || check_rc=$?
[ "${check_rc}" -eq "${check_ref_rc}" ]
cmp "${BUILD}/ci_pdbd_check.out" "${BUILD}/ci_pdbd_check.ref"
# A failed swap must leave the old generation serving.
! "${PDBQ}" --socket "${PDBD_SOCK}" swap "${BUILD}/ci_pdbd_missing.pdb" \
    2> /dev/null
"${PDBQ}" --socket "${PDBD_SOCK}" calltree \
    | cmp - "${BUILD}/ci_pdbd_calltree.ref"
# Hot-swap to the regenerated dynamic database and require the daemon's
# profile rendering to match the one-shot tool over the new file.
"${PDBQ}" --socket "${PDBD_SOCK}" --json swap "${BUILD}/ci_dyn.pdb" \
    | grep -q '"ok": true'
"${BUILD}/src/tools/pdbtree" "${BUILD}/ci_dyn.pdb" --profile \
    > "${BUILD}/ci_pdbd_profile.ref"
"${PDBQ}" --socket "${PDBD_SOCK}" profile \
    | cmp - "${BUILD}/ci_pdbd_profile.ref"
# calltree was memoized on the first generation; the new one must answer
# with its own rendering, not a stale memo.
"${BUILD}/src/tools/pdbtree" "${BUILD}/ci_dyn.pdb" --calls \
    > "${BUILD}/ci_pdbd_dyn_calltree.ref"
"${PDBQ}" --socket "${PDBD_SOCK}" calltree \
    | cmp - "${BUILD}/ci_pdbd_dyn_calltree.ref"
"${PDBQ}" --socket "${PDBD_SOCK}" status \
    | grep -q '"generation": 2'
# A request line over the 1 MiB cap is refused and its connection closed;
# the daemon keeps answering everyone else.
python3 - "${PDBD_SOCK}" <<'PY'
import socket, sys
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sys.argv[1])
try:
    s.sendall(b"x" * (2 << 20))
except OSError:
    pass  # the daemon stops reading at its cap and closes
reply = b""
while not reply.endswith(b"\n"):
    chunk = s.recv(4096)
    if not chunk:
        break
    reply += chunk
assert b'"code": "request-too-large"' in reply, reply[:200]
PY
"${PDBQ}" --socket "${PDBD_SOCK}" status | grep -q '"ok": true'
# Drain: shutdown answers, the daemon exits 0, the socket is unlinked.
"${PDBQ}" --socket "${PDBD_SOCK}" --json shutdown | grep -q '"draining": true'
wait "${PDBD_PID}"
[ ! -e "${PDBD_SOCK}" ]
echo "pdbd gate OK: 32 clients byte-identical, hot-swap + drain clean, over-cap line refused"

echo "== pdbd concurrency (TSan) =="
# The wait-free generation publication (src/pdbd/service.h) is proven
# data-race-free, not just assumed: rebuild the multithreaded service
# test under ThreadSanitizer and require a clean run.
TSAN_BUILD="${BUILD}-tsan"
cmake -S "${ROOT}" -B "${TSAN_BUILD}" -DPDT_SANITIZE=thread > /dev/null
cmake --build "${TSAN_BUILD}" -j "${JOBS}" --target pdbd_service_mt_test \
    > /dev/null
"${TSAN_BUILD}/tests/pdbd/pdbd_service_mt_test"

echo "== CI gate passed =="
