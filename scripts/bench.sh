#!/usr/bin/env bash
# bench.sh — standing perf-trajectory recorder.
#
#   ./scripts/bench.sh                 # run the suite, write BENCH_2/3/4.json
#   GOMAXPROCS=8 ./scripts/bench.sh    # same, at a different parallelism
#
# Runs the Fig. 7/8 figure benchmarks plus the DESIGN.md ablations with
# -benchmem, then emits BENCH_2.json containing, per benchmark: op time,
# bytes and allocations per op, and any custom metrics (the warm/cold
# solver iteration counts). The pre-PR baseline recorded in
# results/BENCH_2_baseline.txt is embedded alongside the current numbers,
# with baseline/current wall-clock speedups for every benchmark present in
# both — the file is the PR's perf trajectory, not a transient report.
#
# It then times the whole-sweep batch driver (DESIGN.md §10) serial vs.
# parallel on the Fig. 7a approximate-model grid and emits BENCH_3.json
# with the wall-clock speedup. The host CPU count is recorded alongside:
# on a single-CPU host the workers time-slice one core, so the ratio is
# bounded near 1.0x and reflects cache/warm-start scheduling effects, not
# hardware concurrency.
#
# Finally it times the Fig. 7a sweep through the scserve HTTP service
# against the same sweep in-process (both on cold caches) and emits
# BENCH_4.json with the serving overhead ratio — what answering from the
# service costs over calling the framework directly.
set -euo pipefail
cd "$(dirname "$0")/.."

: "${GOMAXPROCS:=4}"
export GOMAXPROCS

BASELINE=results/BENCH_2_baseline.txt
CURRENT=results/BENCH_2_current.txt
OUT=BENCH_2.json

echo "==> go test -bench (GOMAXPROCS=${GOMAXPROCS}, -benchtime=1x -benchmem)"
go test -run '^$' \
    -bench '^(BenchmarkFig7a$|BenchmarkFig8bGameIterations$|BenchmarkGameRound$|BenchmarkAblation)' \
    -benchtime=1x -benchmem -timeout 60m . | tee "$CURRENT"

echo "==> writing ${OUT}"
awk -v gomaxprocs="$GOMAXPROCS" '
# Collect every "<value> <unit>/op" pair of each Benchmark line; file 1 is
# the baseline, file 2 the current run.
FNR == 1 { fileno++ }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    for (i = 3; i <= NF; i++) {
        if ($i !~ /\/op$/) continue
        unit = substr($i, 1, length($i) - 3)
        val = $(i - 1)
        if (fileno == 1) {
            if (!(name in bseen)) { bnames[++nb] = name; bseen[name] = 1 }
            base[name, unit] = val
            if (!((name, unit) in bu_seen)) { bunits[name] = bunits[name] (bunits[name] ? SUBSEP : "") unit; bu_seen[name, unit] = 1 }
        } else {
            if (!(name in cseen)) { cnames[++nc] = name; cseen[name] = 1 }
            cur[name, unit] = val
            if (!((name, unit) in cu_seen)) { cunits[name] = cunits[name] (cunits[name] ? SUBSEP : "") unit; cu_seen[name, unit] = 1 }
        }
    }
}
function emit_block(names, n, tbl, units,    i, j, k, name, us, nu, sep, sep2) {
    sep = ""
    for (i = 1; i <= n; i++) {
        name = names[i]
        printf "%s    \"%s\": {", sep, name
        nu = split(units[name], us, SUBSEP)
        sep2 = ""
        for (j = 1; j <= nu; j++) {
            printf "%s\"%s/op\": %s", sep2, us[j], tbl[name, us[j]]
            sep2 = ", "
        }
        printf "}"
        sep = ",\n"
    }
    printf "\n"
}
END {
    printf "{\n"
    printf "  \"suite\": \"BENCH_2\",\n"
    printf "  \"gomaxprocs\": %s,\n", gomaxprocs
    printf "  \"benchtime\": \"1x\",\n"
    printf "  \"baseline\": {\n"
    emit_block(bnames, nb, base, bunits)
    printf "  },\n"
    printf "  \"current\": {\n"
    emit_block(cnames, nc, cur, cunits)
    printf "  },\n"
    printf "  \"speedup_vs_baseline\": {\n"
    sep = ""
    for (i = 1; i <= nb; i++) {
        name = bnames[i]
        if (!((name, "ns") in cur) || !((name, "ns") in base)) continue
        if (cur[name, "ns"] + 0 == 0) continue
        printf "%s    \"%s\": %.3f", sep, name, base[name, "ns"] / cur[name, "ns"]
        sep = ",\n"
    }
    printf "\n  }\n"
    printf "}\n"
}' "$BASELINE" "$CURRENT" > "$OUT"

echo "bench: wrote ${OUT}"

SWEEP_CURRENT=results/BENCH_3_current.txt
SWEEP_OUT=BENCH_3.json
NUM_CPU=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)

echo "==> go test -bench SweepDriver (GOMAXPROCS=${GOMAXPROCS}, -benchtime=1x -benchmem)"
go test -run '^$' \
    -bench '^BenchmarkSweepDriver(Serial|Parallel)$' \
    -benchtime=1x -benchmem -timeout 60m . | tee "$SWEEP_CURRENT"

echo "==> writing ${SWEEP_OUT}"
awk -v gomaxprocs="$GOMAXPROCS" -v numcpu="$NUM_CPU" '
/^BenchmarkSweepDriver/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    mode = (name ~ /Serial$/) ? "serial" : "parallel"
    for (i = 3; i <= NF; i++) {
        if ($i !~ /\/op$/) continue
        unit = substr($i, 1, length($i) - 3)
        tbl[mode, unit] = $(i - 1)
        if (!((mode, unit) in seen)) { units[mode] = units[mode] (units[mode] ? SUBSEP : "") unit; seen[mode, unit] = 1 }
    }
}
function emit_mode(mode,    us, nu, j, sep2) {
    printf "  \"%s\": {", mode
    nu = split(units[mode], us, SUBSEP)
    sep2 = ""
    for (j = 1; j <= nu; j++) {
        printf "%s\"%s/op\": %s", sep2, us[j], tbl[mode, us[j]]
        sep2 = ", "
    }
    printf "}"
}
END {
    printf "{\n"
    printf "  \"suite\": \"BENCH_3\",\n"
    printf "  \"benchmark\": \"whole-sweep batch driver, Fig. 7a approx grid\",\n"
    printf "  \"gomaxprocs\": %s,\n", gomaxprocs
    printf "  \"num_cpu\": %s,\n", numcpu
    printf "  \"benchtime\": \"1x\",\n"
    emit_mode("serial"); printf ",\n"
    emit_mode("parallel"); printf ",\n"
    if ((("serial", "ns") in tbl) && (("parallel", "ns") in tbl) && tbl["parallel", "ns"] + 0 != 0)
        printf "  \"speedup_parallel_vs_serial\": %.3f\n", tbl["serial", "ns"] / tbl["parallel", "ns"]
    else
        printf "  \"speedup_parallel_vs_serial\": null\n"
    printf "}\n"
}' "$SWEEP_CURRENT" > "$SWEEP_OUT"

echo "bench: wrote ${SWEEP_OUT}"

SERVE_CURRENT=results/BENCH_4_current.txt
SERVE_OUT=BENCH_4.json

echo "==> go test ./internal/serve -bench SweepFig7a (GOMAXPROCS=${GOMAXPROCS}, -benchtime=1x -benchmem)"
go test -run '^$' \
    -bench '^Benchmark(Served|InProcess)SweepFig7a$' \
    -benchtime=1x -benchmem -timeout 60m ./internal/serve | tee "$SERVE_CURRENT"

echo "==> writing ${SERVE_OUT}"
awk -v gomaxprocs="$GOMAXPROCS" -v numcpu="$NUM_CPU" '
/^Benchmark(Served|InProcess)SweepFig7a/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    mode = (name ~ /^BenchmarkServed/) ? "served" : "in_process"
    for (i = 3; i <= NF; i++) {
        if ($i !~ /\/op$/) continue
        unit = substr($i, 1, length($i) - 3)
        tbl[mode, unit] = $(i - 1)
        if (!((mode, unit) in seen)) { units[mode] = units[mode] (units[mode] ? SUBSEP : "") unit; seen[mode, unit] = 1 }
    }
}
function emit_mode(mode,    us, nu, j, sep2) {
    printf "  \"%s\": {", mode
    nu = split(units[mode], us, SUBSEP)
    sep2 = ""
    for (j = 1; j <= nu; j++) {
        printf "%s\"%s/op\": %s", sep2, us[j], tbl[mode, us[j]]
        sep2 = ", "
    }
    printf "}"
}
END {
    printf "{\n"
    printf "  \"suite\": \"BENCH_4\",\n"
    printf "  \"benchmark\": \"scserve /v1/sweep vs in-process Framework.Sweep, Fig. 7a approx grid, cold caches\",\n"
    printf "  \"gomaxprocs\": %s,\n", gomaxprocs
    printf "  \"num_cpu\": %s,\n", numcpu
    printf "  \"benchtime\": \"1x\",\n"
    emit_mode("served"); printf ",\n"
    emit_mode("in_process"); printf ",\n"
    if ((("served", "ns") in tbl) && (("in_process", "ns") in tbl) && tbl["in_process", "ns"] + 0 != 0)
        printf "  \"serving_overhead_ratio\": %.3f\n", tbl["served", "ns"] / tbl["in_process", "ns"]
    else
        printf "  \"serving_overhead_ratio\": null\n"
    printf "}\n"
}' "$SERVE_CURRENT" > "$SERVE_OUT"

echo "bench: wrote ${SERVE_OUT}"

SOLVEALL_CURRENT=results/BENCH_5_current.txt
SOLVEALL_OUT=BENCH_5.json

echo "==> go test . -bench AblationApprox(EvaluateAll|KTargets) (GOMAXPROCS=${GOMAXPROCS}, -benchtime=20x -benchmem)"
go test -run '^$' \
    -bench '^BenchmarkAblationApprox(EvaluateAll|KTargets)$' \
    -benchtime=20x -benchmem -timeout 60m . | tee "$SOLVEALL_CURRENT"

echo "==> writing ${SOLVEALL_OUT}"
awk -v gomaxprocs="$GOMAXPROCS" -v numcpu="$NUM_CPU" '
/^BenchmarkAblationApprox(EvaluateAll|KTargets)/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    mode = (name ~ /EvaluateAll/) ? "evaluate_all" : "k_targets"
    for (i = 3; i <= NF; i++) {
        if ($i !~ /\/op$/) continue
        unit = substr($i, 1, length($i) - 3)
        tbl[mode, unit] = $(i - 1)
        if (!((mode, unit) in seen)) { units[mode] = units[mode] (units[mode] ? SUBSEP : "") unit; seen[mode, unit] = 1 }
    }
}
function emit_mode(mode,    us, nu, j, sep2) {
    printf "  \"%s\": {", mode
    nu = split(units[mode], us, SUBSEP)
    sep2 = ""
    for (j = 1; j <= nu; j++) {
        printf "%s\"%s/op\": %s", sep2, us[j], tbl[mode, us[j]]
        sep2 = ", "
    }
    printf "}"
}
END {
    printf "{\n"
    printf "  \"suite\": \"BENCH_5\",\n"
    printf "  \"benchmark\": \"approx.SolveAll shared-spine whole-vector solve vs K per-target hierarchies, 4-SC federation\",\n"
    printf "  \"gomaxprocs\": %s,\n", gomaxprocs
    printf "  \"num_cpu\": %s,\n", numcpu
    printf "  \"benchtime\": \"20x\",\n"
    emit_mode("evaluate_all"); printf ",\n"
    emit_mode("k_targets"); printf ",\n"
    if ((("evaluate_all", "ns") in tbl) && (("k_targets", "ns") in tbl) && tbl["evaluate_all", "ns"] + 0 != 0)
        printf "  \"speedup_all_vs_k_targets\": %.3f\n", tbl["k_targets", "ns"] / tbl["evaluate_all", "ns"]
    else
        printf "  \"speedup_all_vs_k_targets\": null\n"
    printf "}\n"
}' "$SOLVEALL_CURRENT" > "$SOLVEALL_OUT"

echo "bench: wrote ${SOLVEALL_OUT}"

KSCALE_CURRENT=results/BENCH_6_current.txt
KSCALE_OUT=BENCH_6.json
BASE3=BENCH_3.json

echo "==> go test . -bench ApproxKScaling (GOMAXPROCS=${GOMAXPROCS}, -benchtime=1x -benchmem)"
go test -run '^$' \
    -bench '^BenchmarkApproxKScaling$' \
    -benchtime=1x -benchmem -timeout 60m . | tee "$KSCALE_CURRENT"

echo "==> go test . -bench SweepDriverSerial for the allocation-diet ratio"
go test -run '^$' \
    -bench '^BenchmarkSweepDriverSerial$' \
    -benchtime=1x -benchmem -timeout 60m . | tee -a "$KSCALE_CURRENT"

# The committed BENCH_3.json is the pre-diet allocation baseline for the
# same Fig. 7a serial sweep; the B/op ratio against it is the headline
# "allocation diet" number.
BASE3_B=$(awk -F'"B/op": ' '/"serial"/ {split($2, a, /[,}]/); print a[1]; exit}' "$BASE3")

echo "==> writing ${KSCALE_OUT}"
awk -v gomaxprocs="$GOMAXPROCS" -v numcpu="$NUM_CPU" -v base_b="${BASE3_B:-0}" '
/^BenchmarkApproxKScaling\// {
    name = $1
    sub(/-[0-9]+$/, "", name)
    split(name, parts, "/")
    k = parts[2]; w = parts[3]
    if (!(k in kseen)) { ks[++nk] = k; kseen[k] = 1 }
    if (!((k, w) in kwseen)) { kws[k] = kws[k] (kws[k] ? SUBSEP : "") w; kwseen[k, w] = 1 }
    for (i = 3; i <= NF; i++) {
        if ($i !~ /\/(op|sc)$/) continue
        tbl[k, w, $i] = $(i - 1)
        if (!((k, w, $i) in useen)) { units[k, w] = units[k, w] (units[k, w] ? SUBSEP : "") $i; useen[k, w, $i] = 1 }
    }
}
/^BenchmarkSweepDriverSerial/ {
    for (i = 3; i <= NF; i++) {
        if ($i == "B/op") sweep_b = $(i - 1)
        if ($i == "ns/op") sweep_ns = $(i - 1)
        if ($i == "allocs/op") sweep_allocs = $(i - 1)
    }
}
END {
    printf "{\n"
    printf "  \"suite\": \"BENCH_6\",\n"
    printf "  \"benchmark\": \"large-K allocation diet: per-SC solve cost over K (reused Solver arenas, serial readouts) and Fig. 7a sweep bytes vs the committed BENCH_3 baseline\",\n"
    printf "  \"gomaxprocs\": %s,\n", gomaxprocs
    printf "  \"num_cpu\": %s,\n", numcpu
    printf "  \"benchtime\": \"1x\",\n"
    printf "  \"k_scaling\": {\n"
    sep = ""
    for (i = 1; i <= nk; i++) {
        k = ks[i]
        printf "%s    \"%s\": {", sep, k
        nw = split(kws[k], ws, SUBSEP)
        sep2 = ""
        for (j = 1; j <= nw; j++) {
            w = ws[j]
            printf "%s\"%s\": {", sep2, w
            nu = split(units[k, w], us, SUBSEP)
            sep3 = ""
            for (u = 1; u <= nu; u++) {
                printf "%s\"%s\": %s", sep3, us[u], tbl[k, w, us[u]]
                sep3 = ", "
            }
            printf "}"
            sep2 = ", "
        }
        printf "}"
        sep = ",\n"
    }
    printf "\n  },\n"
    # Per-SC cost growth from the smallest to the largest K at W=1: a ratio
    # below K_max/K_min means the per-SC cost grew sublinearly in K.
    kmin = ks[1]; kmax = ks[nk]
    if (((kmin, "W=1", "ns/sc") in tbl) && tbl[kmin, "W=1", "ns/sc"] + 0 != 0) {
        ratio = tbl[kmax, "W=1", "ns/sc"] / tbl[kmin, "W=1", "ns/sc"]
        kmin_n = kmin; kmax_n = kmax
        sub(/^K=/, "", kmin_n); sub(/^K=/, "", kmax_n)
        printf "  \"ns_per_sc_ratio_largest_vs_smallest_k\": %.3f,\n", ratio
        printf "  \"k_ratio\": %.1f,\n", kmax_n / kmin_n
        printf "  \"per_sc_cost_sublinear_in_k\": %s,\n", (ratio < kmax_n / kmin_n) ? "true" : "false"
    }
    printf "  \"sweep_fig7a_serial\": {\"ns/op\": %s, \"B/op\": %s, \"allocs/op\": %s},\n", sweep_ns, sweep_b, sweep_allocs
    if (base_b + 0 != 0 && sweep_b + 0 != 0) {
        printf "  \"baseline_sweep_B_per_op\": %s,\n", base_b
        printf "  \"bytes_reduction_vs_bench3\": %.2f\n", base_b / sweep_b
    } else {
        printf "  \"bytes_reduction_vs_bench3\": null\n"
    }
    printf "}\n"
}' "$KSCALE_CURRENT" > "$KSCALE_OUT"

echo "bench: wrote ${KSCALE_OUT}"
