#!/usr/bin/env bash
# Full verification pass: build, vet, domain lint, race-enabled tests,
# invariant-checked (pactcheck) tests, and a fuzz smoke run. CI executes
# exactly this script; run it locally before sending a change.
#
# Each stage announces itself with a `== <leg>` banner; on failure the
# trap prints which leg broke so a red CI run names the culprit without
# scrolling the log.
set -euo pipefail
cd "$(dirname "$0")/.."

CURRENT_LEG="startup"
leg() {
    CURRENT_LEG="$1"
    echo "== ${CURRENT_LEG}"
}
trap 'status=$?; if [ "$status" -ne 0 ]; then echo; echo "!! check FAILED in leg: ${CURRENT_LEG} (exit ${status})" >&2; fi' EXIT

leg "go build (default and pactcheck)"
go build ./...
go build -tags pactcheck ./...

leg "go vet (default and pactcheck)"
go vet ./...
go vet -tags pactcheck ./...

leg "pactlint (domain + determinism/concurrency analysis)"
# Must be clean: every finding on the tree is either fixed or carries a
# reasoned //lint:ignore. The determinism rules (sharedwrite, fpreduce,
# maporder, nondet, globalmut) prove the worker-owned-scratch discipline
# over the module call graph.
go run ./cmd/pactlint ./...

leg "go test -race"
go test -race ./...

leg "golden corpus (reduced-deck digests, never cached)"
# SHA-256 digests of pact.ReduceDeck output over small netgen decks and
# option vectors (testdata/golden.sha256). -count=1 defeats the test
# cache, so a digest change is never hidden behind an earlier pass.
go test -run '^TestGoldenCorpus$' -count=1 .

leg "parallel-core race leg (pactcheck + -race on the pool-driven packages)"
# internal/chol rides along for the DAG-schedule determinism pins and
# the chol.dag.task drain-and-report path under the race detector;
# internal/sparse for the bit-identity pins of Build's pooled row
# chunks (the one triplet->CSR path) and of the permutations.
go test -race -tags pactcheck ./internal/par/ ./internal/core/ ./internal/dense/ \
    ./internal/chol/ ./internal/sparse/

leg "fault-injection race leg (-race -tags pactcheck over the inject-hooked packages)"
# The injection harness and the recovery ladders it drives live in these
# packages; -race covers the cancellation paths (timeouts mid-pool,
# mid-Newton) and the schedule's mutex-guarded fire counting.
# internal/stamp drills the stamp.assemble point: a poisoned stamping
# chunk must surface as a typed extract(stamp) StageError naming the
# lowest failing chunk, with the parallel element loop racing under it.
go test -race -tags pactcheck \
    ./internal/sim/ ./internal/resilience/... ./internal/stamp/ \
    ./cmd/rcfit/ ./cmd/spicesim/

leg "service leg (-race -tags pactcheck on rcfitd and its service layer)"
# The daemon's admission/singleflight/drain machinery plus the svc.*
# request-level fault drills: injected leader failures must propagate
# one typed StageError to every follower with no goroutine leak, and an
# armed admission point must shed deterministically with 429.
go test -race -tags pactcheck ./internal/service/ ./cmd/rcfitd/

leg "multipoint-oracle leg (multi-expansion-point vs dense Y(s) oracle, run twice)"
# The accuracy-oracle suite pins the headline claims: at equal reduced
# order the multi-point basis beats single-point expansion under the
# same pole selector in max relative Y(s) error on graded wide-band
# fixtures, and on the wide-band 256-port bench the selector beats the
# slowest-first pole cap strictly. The whole-space rule's bit pin
# against single-point dense and the selector's bit pin against the
# strongest-then-prune composition it replaced ride along; -count=2
# defeats the test cache so the pins run fresh on every push.
go test ./internal/core/ -run 'MultiPointOracle|MultiPointWholeSpaceShortcut|SelectPolesMatchesStrongestThenPrune' -count=2

leg "pole-analysis leg (LASO certification and stop rule, pole count vs dense pencil, run twice)"
# LASO certifies each Ritz pair once and stops on a margin after its last
# certification: the certification test records every operator input
# and fails if a returned vector was applied twice or a pair was kept
# without its residual; the stop tests pin the margin and the late copy
# of a repeated eigenvalue; TestNoPoleMissedAboveCutoff counts the dense
# pencil's eigenvalues above lambda_c on generated networks, one of them
# with every pole doubled, and fails a run that stopped before they all
# emerged. -count=2 defeats the test cache.
go test ./internal/lanczos/ -run 'CertifiesEachPairOnce|StopsOnMargin|MultipleEigenvalues' -count=2
go test ./internal/core/ -run '^TestNoPoleMissedAboveCutoff$' -count=2

leg "kernel-oracle leg (micro-kernels vs naive references, run twice)"
# The dense micro-kernels and the supernodal paths built on them are
# pinned by property-based oracle tests over randomized shapes; -count=2
# defeats the test cache and catches any run-order or leftover-state
# dependence in the kernels' scratch reuse. internal/stamp rides along
# for the interned Extract against its string-map oracle (node order,
# element partition, Float64bits-equal blocks); internal/netlist for the
# writer oracles (TestFormatValueOracleSweep, TestWriteOracleCards),
# which cover the line buffer every card write reuses.
go test ./internal/dense/... ./internal/chol/... ./internal/stamp/ ./internal/netlist/ -run Oracle -count=2

leg "reports leg (regenerate reports/*.txt and diff, clocks masked)"
# The paper tables are pure functions of the code at a fixed pool size,
# except their wall-clock columns and the speedups taken from them,
# which scripts/mask-report-clocks.awk (the one mask list) blanks on
# both sides. A count, value or memory figure that moves without its
# report being regenerated fails here. GOMAXPROCS is pinned because the
# factor memory figures count every worker's scratch slot.
reports_tmp=$(mktemp -d)
GOMAXPROCS=2 go run ./cmd/pactbench -ex all -o "$reports_tmp" >/dev/null
reports_ok=1
for f in reports/*.txt; do
    if ! diff -u --label "$f" --label "regenerated $(basename "$f")" \
        <(awk -f scripts/mask-report-clocks.awk "$f") \
        <(awk -f scripts/mask-report-clocks.awk "$reports_tmp/$(basename "$f")"); then
        reports_ok=0
    fi
done
rm -rf "$reports_tmp"
[ "$reports_ok" = 1 ]

leg "invariant-checked tests (-tags pactcheck)"
go test -tags pactcheck ./internal/check/ ./internal/core/ ./internal/prima/ \
    ./internal/lanczos/ ./internal/stamp/ ./internal/sim/ ./internal/resilience/...

leg "perfbench module (vet + test)"
# perfbench/ is its own module (replace repro => ../), compiled against
# core.Options, core.Transform1Context, Stats.Stage, stamp.Realize and
# service.New. The root `go test ./...` does not reach it, so without
# this leg an API break would first fail the benchmark run.
go -C perfbench vet ./...
go -C perfbench test ./...

leg "kernel benchmarks (one iteration each)"
# The dense panel kernels and eigensolver, chol factor/solve, AMD fill,
# pool overhead and deck writer benchmarks run once each, so a broken
# benchmark fails here rather than in a measurement session. End-to-end
# performance is perfbench's (see perfbench/README.md).
go test -run '^$' -bench . -benchtime 1x ./internal/chol/ ./internal/dense/ ./internal/order/ ./internal/par/ \
    ./internal/netlist/

leg "fuzz smoke (10s per target)"
# go test rejects a -fuzz pattern matching several targets, so run them
# one at a time.
for target in FuzzParse FuzzParseValue FuzzTokenize FuzzFormatValue FuzzWaveform; do
    go test -run "^${target}\$" -fuzz "^${target}\$" -fuzztime 10s ./internal/netlist/
done

CURRENT_LEG="done"
echo "all checks passed"
