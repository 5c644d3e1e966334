#!/usr/bin/env python3
"""Validate and perf-gate BENCH_kernel_throughput.json.

Two layers, both exercised by the CI bench smoke job:

**Schema check** (always on). The perf-trajectory tooling keys on four
things per kernel benchmark: the algorithm (from the benchmark family
name), the kernel backend (an optional ``Scalar``/``Avx2``/``Avx512``
family suffix for the explicit per-backend sweeps, plus the
dispatcher's choice recorded in the JSON context as ``kernel_backend``),
the activation density (the benchmark argument), and the achieved
throughput (``bytes_per_second``, reported as GB/s). A refactor that
renames a family, drops the density argument, stops calling
``SetBytesProcessed`` or loses the backend context silently breaks the
trajectory; this script fails the job instead. It also fails when a
SIMD-capable host silently dispatched to a narrower backend (a broken
CPUID path would otherwise masquerade as a perf regression) — unless
CDMA_KERNEL_BACKEND requested exactly that backend.

**Perf-regression gate** (``--baseline``). Compares every recorded
``BM_*`` row of the baseline report against the same-named row of the
validated report and fails on a throughput drop beyond
``--regression-tolerance`` (default 25%, tuned for the ~13%
run-to-run CV of the 1-core recording container). Only same-backend
rows are gated: rows whose family pins the backend in its suffix
always compare; suffix-less rows ride the runtime dispatch and compare
only when both reports dispatched the same backend. Rows absent from
either report are skipped (avx512 rows exist only in reports recorded
on AVX-512 hosts), unless the validated report's producer supports the
row's backend — then a vanished family is a trajectory break, not a
host difference. A per-family allowlist (``--allow-regression`` plus
the built-in defaults) exempts rows that are measurement-only on this
host: parallel fan-out (1-core container measures overhead, not
scaling) and the fleet DES model rates.

Two more bounds hold within one report. The hardware CRC-32C row
(``BM_Crc32Hw``) must be at least as fast as the dispatch
``BM_ZvcCompress/50`` row: the shard framing must not cost more than
the codec it frames. And the context's ``cdma_optimized`` must be
``true``: rates of unoptimized cdma code are not comparable. (The
context's ``library_build_type`` describes the google-benchmark
library, not the cdma code.)

``--self-test`` proves the gate actually trips: it injects a 2x
slowdown into one gated row of the committed report and fails unless
the comparison catches it (and passes an unmodified copy). It does
the same to ``BM_Crc32Hw``, which measures the dispatched CRC and so
compares only under the same dispatch: the slowdown must trip the gate,
and must be skipped once the copy claims another backend. It also
replays the last single-chain CRC rows (7.35 GB/s against
10.85 GB/s) into a copy and requires the framing bound to trip, and
requires a copy marked unoptimized to be rejected; copies that meet
each bound must pass.

Usage:
  bench/check_bench_json.py [report.json]                 schema check
  bench/check_bench_json.py fresh.json --baseline committed.json \
      [--regression-tolerance 0.25] [--allow-regression FAMILY]...
  bench/check_bench_json.py --self-test [report.json]
"""

import argparse
import copy
import json
import os
import re
import sys

# Families whose presence (at >= 1 density) the trajectory depends on,
# and which must report bytes_per_second — both pipeline directions:
# the compress families feed the offload-leg trajectory, the decompress
# families the prefetch leg, and the duplex-transfer model families the
# contended-link trajectory (full vs half duplex). The parallel/lane
# and per-backend variants are validated when present but are optional:
# a reduced smoke run may filter to the serial kernels.
REQUIRED_FAMILIES = ("BM_ZvcCompress", "BM_RleCompress", "BM_DeflateCompress",
                     "BM_ZvcDecompress", "BM_RleDecompress",
                     "BM_DeflateDecompress")
DUPLEX_FAMILIES = ("BM_DuplexTransferModelFull", "BM_DuplexTransferModelHalf")
# Fleet DES rows: N data-parallel GPUs behind one fixed-bandwidth
# switch uplink. Each family must carry a positive mean
# contention-stall fraction (a zero means the shared uplink stopped
# arbitrating), and the fraction must strictly increase in fleet size
# (a flat trajectory means the per-source wait attribution broke).
FLEET_FAMILIES = ("BM_FleetOffloadN2", "BM_FleetOffloadN4",
                  "BM_FleetOffloadN8")
# Adaptive codec-policy rows: BM_AdaptivePolicyDecide/<density> is a
# full decide() (strided density sample over real activation bytes plus
# the cost model), BM_AdaptivePolicyFromDensity the model-only path the
# step simulator uses. Both are required, and the sampled decide() must
# stay >= POLICY_OVERHEAD_FACTOR times the throughput of the
# same-density dispatch ZVC compress row — the "selection costs < 1% of
# the compress pass it steers" acceptance bound, expressed in the same
# bytes/s units both rows already report.
POLICY_FAMILIES = ("BM_AdaptivePolicyDecide", "BM_AdaptivePolicyFromDensity")
POLICY_OVERHEAD_FACTOR = 100.0
# CRC-32C integrity-framing rows: the scalar slice-by-8 row is
# unconditional; the hardware (SSE4.2) row is required whenever the
# producing host has it (recorded as host_avx2 — every AVX2 part has
# SSE4.2). Losing these rows would blind the trajectory to the framing
# tax the robustness layer added.
CRC_SCALAR_FAMILY = "BM_Crc32Scalar"
CRC_HW_FAMILY = "BM_Crc32Hw"
# Framing bound: every spilled shard is checksummed once in the
# compress lanes and again before it expands, so the hardware CRC must
# push bytes at least as fast as the dispatch ZVC compress row at the
# paper's d50 operating point. Framing slower than the codec it frames
# dominates the round trip.
CRC_FRAMING_REFERENCE = "BM_ZvcCompress/50"
# The last rows recorded with a single-chain hardware CRC, in bytes/s:
# the self-test replays them and requires the framing bound to trip.
SINGLE_CHAIN_CRC_ROWS = {CRC_HW_FAMILY: 7345373484.769981,
                         CRC_FRAMING_REFERENCE: 10851495608.875496}
# Widest first: the silent-fallback check expects the dispatcher to
# pick the widest backend the producing host supports.
KNOWN_BACKENDS = ("avx512", "avx2", "scalar")
# Family suffixes that pin a backend. ``Hw`` pins none: BM_Crc32Hw
# measures the dispatched CRC-32C (the 512-bit fold on avx512 with
# VPCLMULQDQ, three crc32q chains otherwise), so it is a dispatch row;
# BM_Crc32{Scalar,Avx2,Avx512} keep the per-backend coverage.
BACKEND_SUFFIXES = ("Scalar", "Avx512", "Avx2")
KNOWN_DUPLEX_MODES = ("full_duplex", "half_duplex")
NAME_RE = re.compile(r"^BM_([A-Za-z0-9]+?)(Compress|Decompress|CycleModel|"
                     r"EngineCycleModel|TransferModel(?:Full|Half))?"
                     r"(Parallel)?(Scalar|Avx512|Avx2|Hw)?"
                     r"(/\d+)*(/[a-z_]+)*$")
# Rows that are measurement-only on the recording host and therefore
# exempt from the regression gate by default: the parallel fan-out
# families (the 1-core container measures fan-out overhead, not
# scaling — see docs/performance.md) and the fleet DES model rates
# (host-side modeling speed of a contention sweep, dominated by event
# count, gated separately via their contention counters).
DEFAULT_ALLOWED_REGRESSIONS = re.compile(r"Parallel|^BM_FleetOffload")


def fail(message: str) -> None:
    print(f"check_bench_json: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def producer_supports(context: dict, backend: str) -> bool:
    """Capability of the machine that PRODUCED the report.

    Preferred source is the ``host_avx2``/``host_avx512`` context field
    the bench binary records (its own CPUID probe), so validating a
    report on a different machine judges the producer, not the
    validator. Reports that predate the field fall back to probing this
    host's /proc/cpuinfo (Linux best-effort; absence of evidence ->
    False).
    """
    if backend == "scalar":
        return True
    recorded = context.get(f"host_{backend}")
    if recorded is not None:
        return recorded == "true"
    flag = {"avx2": "avx2", "avx512": "avx512f"}[backend]
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            return any(flag in line for line in handle
                       if line.startswith("flags"))
    except OSError:
        return False


def check_backend_context(report: dict) -> str:
    context = report.get("context", {})
    backend = context.get("kernel_backend")
    if not backend:
        fail("context lacks 'kernel_backend' (the bench binary must "
             "record the dispatched kernel backend)")
    if backend not in KNOWN_BACKENDS:
        fail(f"context kernel_backend '{backend}' is not one of "
             f"{', '.join(KNOWN_BACKENDS)}")
    # Dispatch provenance travels in the JSON itself (the bench binary
    # records any CDMA_KERNEL_BACKEND override it saw), so the check
    # holds up when the JSON is validated from a different shell or CI
    # step; the checker's own environment is only a fallback for
    # reports that predate the provenance field.
    forced = context.get("kernel_backend_forced",
                         os.environ.get("CDMA_KERNEL_BACKEND", ""))
    widest = next(b for b in KNOWN_BACKENDS
                  if producer_supports(context, b))
    if backend != widest and forced != backend:
        fail(f"the producing host supports {widest} but the bench "
             f"dispatched to the {backend} backend without "
             f"CDMA_KERNEL_BACKEND={backend} — the CPUID dispatch path "
             "silently fell back")
    return backend


def check_duplex_context(report: dict) -> str:
    """The engine-default link configuration the bench ran under.

    The duplex-transfer model families sweep Full and Half explicitly
    (their family suffix is the mode), but the context field records
    what an unconfigured engine would do — a refactor that flips the
    default silently would skew every non-duplex trajectory row.
    """
    context = report.get("context", {})
    mode = context.get("duplex_mode")
    if not mode:
        fail("context lacks 'duplex_mode' (the bench binary must record "
             "the engine-default link configuration)")
    if mode not in KNOWN_DUPLEX_MODES:
        fail(f"context duplex_mode '{mode}' is not one of "
             f"{', '.join(KNOWN_DUPLEX_MODES)}")
    return mode


def unoptimized_violation(report: dict):
    """Why the report's cdma code cannot be trusted for timing, or None.

    ``cdma_optimized`` is recorded by the bench binary from its own
    compile flags, which it shares with cdma_core. The context's
    ``library_build_type`` describes the google-benchmark library the
    binary links against, not the code it measures.
    """
    optimized = report.get("context", {}).get("cdma_optimized")
    if optimized is None:
        return ("context lacks 'cdma_optimized' (the bench binary must "
                "record whether the cdma code it measures was optimized)")
    if optimized != "true":
        return (f"context cdma_optimized is '{optimized}': the cdma code "
                "was built without optimization (configure with "
                "-DCMAKE_BUILD_TYPE=Release), so its rates are not "
                "comparable")
    return None


def crc_framing_violation(report: dict):
    """Why the hardware CRC row breaks the framing bound, or None."""
    rows = throughput_rows(report)
    crc = rows.get(CRC_HW_FAMILY)
    codec = rows.get(CRC_FRAMING_REFERENCE)
    if crc is None or codec is None or crc >= codec:
        return None
    return (f"{CRC_HW_FAMILY} ({crc / 1e9:.2f} GB/s) is slower than "
            f"{CRC_FRAMING_REFERENCE} ({codec / 1e9:.2f} GB/s): the shard "
            "framing costs more than the codec it frames")


def load_report(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        fail(f"{path} is missing (did the bench binary run?)")
    except json.JSONDecodeError as error:
        fail(f"{path} is not valid JSON: {error}")


def check_schema(report: dict, path: str) -> str:
    backend = check_backend_context(report)
    duplex_mode = check_duplex_context(report)
    unoptimized = unoptimized_violation(report)
    if unoptimized:
        fail(unoptimized)

    benchmarks = report.get("benchmarks")
    if not benchmarks:
        fail(f"{path} has no 'benchmarks' array (or it is empty)")

    seen_families = set()
    fleet_contention = {}
    policy_decide_bps = {}
    zvc_dispatch_bps = {}
    for entry in benchmarks:
        name = entry.get("name")
        if not name:
            fail(f"benchmark entry without a name: {entry}")
        if entry.get("run_type") == "aggregate":
            continue
        match = NAME_RE.match(name)
        if not match:
            fail(f"benchmark name '{name}' does not parse as "
                 "BM_<Algorithm><Kind>[<Backend>][/density[/lanes]]")
        family = name.split("/")[0]
        seen_families.add(family)
        # Every throughput kernel must report bytes_per_second (that is
        # the GB/s column of docs/performance.md); the cycle-model
        # benchmark reports a modeled-rate counter instead.
        if "CycleModel" not in family:
            bps = entry.get("bytes_per_second")
            if not isinstance(bps, (int, float)) or bps <= 0:
                fail(f"'{name}' lacks a positive bytes_per_second "
                     f"(got {bps!r})")
        # Compression kernels encode density as the first argument.
        if "Compress" in family and "/" not in name:
            fail(f"'{name}' is missing its density argument")
        # The half-duplex model family must carry the modeled
        # contention counter, and the race must actually cost something
        # (a zero here means the contended DES silently degenerated).
        if family == "BM_DuplexTransferModelHalf":
            stall = entry.get("contention_stall_fraction")
            if not isinstance(stall, (int, float)) or stall <= 0:
                fail(f"'{name}' lacks a positive "
                     f"contention_stall_fraction (got {stall!r})")
        if family == "BM_DuplexTransferModelFull":
            stall = entry.get("contention_stall_fraction")
            if not isinstance(stall, (int, float)) or stall != 0:
                fail(f"'{name}' must report zero contention under full "
                     f"duplex (got {stall!r})")
        # Fleet rows: N > 1 ranks sharing one uplink must pay a
        # positive cross-source stall.
        if family in FLEET_FAMILIES:
            stall = entry.get("contention_stall_fraction")
            if not isinstance(stall, (int, float)) or stall <= 0:
                fail(f"'{name}' lacks a positive "
                     f"contention_stall_fraction (got {stall!r})")
            fleet_contention[family] = stall
        # Collect the per-density rows the policy-overhead bound
        # compares: the sampled decide() against the dispatch ZVC
        # compress it would steer.
        if "/" in name and isinstance(entry.get("bytes_per_second"),
                                      (int, float)):
            density_arg = name.split("/")[1]
            if family == "BM_AdaptivePolicyDecide":
                policy_decide_bps[density_arg] = entry["bytes_per_second"]
            elif family == "BM_ZvcCompress":
                zvc_dispatch_bps[density_arg] = entry["bytes_per_second"]

    missing = [f for f in REQUIRED_FAMILIES if f not in seen_families]
    if missing:
        fail(f"required benchmark families absent: {', '.join(missing)}")
    missing_duplex = [f for f in DUPLEX_FAMILIES if f not in seen_families]
    if missing_duplex:
        fail("duplex-transfer model families absent: "
             f"{', '.join(missing_duplex)}")
    missing_fleet = [f for f in FLEET_FAMILIES if f not in seen_families]
    if missing_fleet:
        fail(f"fleet DES families absent: {', '.join(missing_fleet)}")
    missing_policy = [f for f in POLICY_FAMILIES if f not in seen_families]
    if missing_policy:
        fail("adaptive codec-policy families absent: "
             f"{', '.join(missing_policy)}")
    # Selection-overhead bound: at every density where both rows exist,
    # a decide() must push bytes >= POLICY_OVERHEAD_FACTOR times as fast
    # as the dispatch ZVC compress pass it would steer (i.e. the
    # decision costs < 1% of the work it saves or schedules).
    for density_arg in sorted(set(policy_decide_bps) & set(zvc_dispatch_bps),
                              key=int):
        decide = policy_decide_bps[density_arg]
        compress = zvc_dispatch_bps[density_arg]
        if decide < POLICY_OVERHEAD_FACTOR * compress:
            fail(f"BM_AdaptivePolicyDecide/{density_arg} throughput "
                 f"({decide / 1e9:.1f} GB/s) is below "
                 f"{POLICY_OVERHEAD_FACTOR:.0f}x the same-density "
                 f"BM_ZvcCompress row ({compress / 1e9:.2f} GB/s): "
                 "codec selection has become a material fraction of the "
                 "compress pass")
    fleet_order = [fleet_contention[f] for f in FLEET_FAMILIES]
    if not all(a < b for a, b in zip(fleet_order, fleet_order[1:])):
        fail("fleet contention_stall_fraction is not strictly "
             "increasing across " + ", ".join(
                 f"{f}={fleet_contention[f]:.4f}" for f in FLEET_FAMILIES))
    if CRC_SCALAR_FAMILY not in seen_families:
        fail(f"{CRC_SCALAR_FAMILY} absent: the CRC framing row lost its "
             "scalar reference leg")
    context = report.get("context", {})
    if (CRC_HW_FAMILY not in seen_families
            and producer_supports(context, "avx2")):
        fail(f"{CRC_HW_FAMILY} absent although the producing host has "
             "the hardware CRC32C instruction")
    framing = crc_framing_violation(report)
    if framing:
        fail(framing)
    # avx512 rows are required exactly when the producing host can run
    # them (the gate tolerates their absence in reports from narrower
    # hosts); a capable host missing them lost half the trajectory.
    if producer_supports(context, "avx512"):
        for family in ("BM_ZvcCompressAvx512", "BM_ZvcDecompressAvx512"):
            if family not in seen_families:
                fail(f"{family} absent although the producing host has "
                     "AVX-512")

    # When an explicit per-backend sweep ran at all, its scalar leg must
    # be part of it (scalar is supported everywhere, so its absence means
    # the sweep was cut down in a way the trajectory would misread).
    # Compress and decompress sweeps are judged separately: a refactor
    # that drops only the BM_*Decompress{Scalar,Avx2,Avx512} mirrors
    # must not hide behind the compress families.
    backend_families = {f for f in seen_families
                        if f.endswith(("Scalar", "Avx2", "Avx512"))}
    decompress_backends = {f for f in backend_families
                           if "Decompress" in f}
    compress_backends = backend_families - decompress_backends
    for kind, families in (("compress", compress_backends),
                           ("decompress", decompress_backends)):
        if families and not any(f.endswith("Scalar") for f in families):
            fail(f"per-backend {kind} families present but the scalar "
                 f"reference leg is missing: {', '.join(sorted(families))}")

    summary = []
    for entry in benchmarks:
        if entry.get("run_type") == "aggregate":
            continue
        name = entry.get("name", "")
        family = name.split("/")[0]
        bps = entry.get("bytes_per_second")
        if (family in REQUIRED_FAMILIES and "/" in name
                and isinstance(bps, (int, float))):
            density = name.split("/")[1]
            summary.append(f"{family[3:]} d{density}: {bps / 1e9:.2f} GB/s")
    print(f"check_bench_json: OK ({len(benchmarks)} entries, "
          f"{len(seen_families)} families, dispatch={backend}, "
          f"duplex={duplex_mode})")
    for line in summary:
        print(f"  {line}")
    return backend


def row_backend(family: str) -> str:
    """Backend a family name pins, or '' for runtime-dispatch rows."""
    for suffix in BACKEND_SUFFIXES:
        if family.endswith(suffix):
            return suffix.lower()
    return ""


def throughput_rows(report: dict) -> dict:
    rows = {}
    for entry in report.get("benchmarks", []):
        if entry.get("run_type") == "aggregate":
            continue
        bps = entry.get("bytes_per_second")
        name = entry.get("name")
        if name and isinstance(bps, (int, float)) and bps > 0:
            rows[name] = bps
    return rows


def gate_regressions(baseline: dict, fresh: dict, tolerance: float,
                     allowed: list) -> tuple:
    """Compare per-row throughput; return (regressions, skipped, gated).

    regressions: list of (name, base_bps, fresh_bps) beyond tolerance.
    skipped: human-readable notes about rows not gated and why.
    gated: count of rows actually compared.
    """
    base_rows = throughput_rows(baseline)
    fresh_rows = throughput_rows(fresh)
    base_backend = baseline.get("context", {}).get("kernel_backend")
    fresh_backend = fresh.get("context", {}).get("kernel_backend")
    fresh_context = fresh.get("context", {})

    regressions, skipped = [], []
    gated = 0
    for name, base_bps in sorted(base_rows.items()):
        family = name.split("/")[0]
        if (DEFAULT_ALLOWED_REGRESSIONS.search(family)
                or family in allowed):
            skipped.append(f"{name}: allowlisted (measurement-only row)")
            continue
        pinned = row_backend(family)
        if not pinned and base_backend != fresh_backend:
            skipped.append(f"{name}: dispatch row, backends differ "
                           f"({base_backend} vs {fresh_backend})")
            continue
        if name not in fresh_rows:
            # Host difference (e.g. avx512 rows validated on a narrower
            # machine) is fine; a capable host losing the row is not.
            if pinned and not producer_supports(fresh_context, pinned):
                skipped.append(f"{name}: absent, host lacks {pinned}")
                continue
            regressions.append((name, base_bps, None))
            continue
        gated += 1
        if fresh_rows[name] < base_bps * (1.0 - tolerance):
            regressions.append((name, base_bps, fresh_rows[name]))
    return regressions, skipped, gated


def run_gate(baseline_path: str, fresh: dict, fresh_path: str,
             tolerance: float, allowed: list, verbose: bool) -> None:
    baseline = load_report(baseline_path)
    regressions, skipped, gated = gate_regressions(baseline, fresh,
                                                   tolerance, allowed)
    if verbose:
        for note in skipped:
            print(f"  skip {note}")
    print(f"check_bench_json: gate compared {gated} rows against "
          f"{baseline_path} (tolerance {tolerance:.0%}, "
          f"{len(skipped)} skipped)")
    if regressions:
        for name, base_bps, fresh_bps in regressions:
            if fresh_bps is None:
                print(f"  MISSING {name}: in baseline "
                      f"({base_bps / 1e9:.2f} GB/s) but not in "
                      f"{fresh_path}, and the host supports it",
                      file=sys.stderr)
            else:
                print(f"  REGRESSION {name}: {base_bps / 1e9:.2f} -> "
                      f"{fresh_bps / 1e9:.2f} GB/s "
                      f"({fresh_bps / base_bps:.2f}x)", file=sys.stderr)
        fail(f"{len(regressions)} benchmark row(s) regressed beyond "
             f"{tolerance:.0%} (use --allow-regression FAMILY for rows "
             "that are measurement-only on this host)")


def self_test(path: str, tolerance: float) -> None:
    """Prove the gate trips on an injected 2x slowdown (and only then)."""
    report = load_report(path)
    # Pick a gated row: serial, non-allowlisted, backend-pinned (so the
    # comparison never skips it for a dispatch mismatch).
    victim = None
    for entry in report.get("benchmarks", []):
        name = entry.get("name", "")
        family = name.split("/")[0]
        if (entry.get("run_type") != "aggregate"
                and isinstance(entry.get("bytes_per_second"), (int, float))
                and entry.get("bytes_per_second", 0) > 0
                and row_backend(family)
                and not DEFAULT_ALLOWED_REGRESSIONS.search(family)):
            victim = name
            break
    if victim is None:
        fail(f"self-test: no gateable per-backend row in {path}")

    slowed = copy.deepcopy(report)
    for entry in slowed["benchmarks"]:
        if entry.get("name") == victim:
            entry["bytes_per_second"] /= 2.0

    caught, _, _ = gate_regressions(report, slowed, tolerance, [])
    if not [r for r in caught if r[0] == victim]:
        fail(f"self-test: gate MISSED an injected 2x slowdown on "
             f"{victim} at tolerance {tolerance:.0%}")
    clean, _, gated = gate_regressions(report, copy.deepcopy(report),
                                       tolerance, [])
    if clean:
        fail("self-test: gate false-positived on an identical report: "
             + ", ".join(name for name, *_ in clean))
    if gated == 0:
        fail("self-test: gate compared zero rows of an identical report")

    # BM_Crc32Hw is a dispatch row: a 2x slowdown under the same
    # dispatch still trips the gate, while a report that dispatched
    # another backend (forced avx2 against an avx512 trajectory reads
    # about 0.5x) skips the row instead of failing it.
    crc_hw = next((name for name in throughput_rows(report)
                   if name.split("/")[0] == CRC_HW_FAMILY), None)
    if crc_hw is None:
        fail(f"self-test: {path} lacks the {CRC_HW_FAMILY} row")
    crc_slowed = copy.deepcopy(report)
    for entry in crc_slowed["benchmarks"]:
        if entry.get("name") == crc_hw:
            entry["bytes_per_second"] /= 2.0
    caught, _, _ = gate_regressions(report, crc_slowed, tolerance, [])
    if not [r for r in caught if r[0] == crc_hw]:
        fail(f"self-test: gate MISSED a same-backend 2x slowdown on "
             f"{crc_hw} at tolerance {tolerance:.0%}")
    base_backend = report.get("context", {}).get("kernel_backend")
    other = next(b for b in KNOWN_BACKENDS if b != base_backend)
    crc_slowed["context"]["kernel_backend"] = other
    caught, _, _ = gate_regressions(report, crc_slowed, tolerance, [])
    if [r for r in caught if r[0] == crc_hw]:
        fail(f"self-test: gate failed {crc_hw} of a {other}-dispatch "
             f"report against a {base_backend}-dispatch baseline")

    # The framing bound and the build check, on mutated copies of the
    # report: each must pass a copy that meets it and fail one that
    # does not (the single-chain CRC rows replayed, the cdma code
    # marked unoptimized).
    def with_rows(rows: dict) -> dict:
        mutated = copy.deepcopy(report)
        found = set()
        for entry in mutated["benchmarks"]:
            name = entry.get("name")
            if entry.get("run_type") != "aggregate" and name in rows:
                entry["bytes_per_second"] = rows[name]
                found.add(name)
        if found != set(rows):
            fail(f"self-test: {path} lacks the CRC framing rows "
                 f"{', '.join(sorted(set(rows) - found))}")
        return mutated

    codec_bps = SINGLE_CHAIN_CRC_ROWS[CRC_FRAMING_REFERENCE]
    if crc_framing_violation(with_rows({CRC_HW_FAMILY: codec_bps,
                                        CRC_FRAMING_REFERENCE: codec_bps})):
        fail("self-test: the CRC framing bound false-positived on a CRC "
             "row exactly as fast as the codec row")
    if not crc_framing_violation(with_rows(SINGLE_CHAIN_CRC_ROWS)):
        fail("self-test: the CRC framing bound MISSED the single-chain "
             "rows")
    for optimized, rejected in (("true", False), ("false", True)):
        mutated = copy.deepcopy(report)
        mutated["context"]["cdma_optimized"] = optimized
        if bool(unoptimized_violation(mutated)) != rejected:
            fail(f"self-test: the build check judged cdma_optimized="
                 f"'{optimized}' wrongly")

    print(f"check_bench_json: self-test OK (injected 2x slowdown on "
          f"{victim} caught at {tolerance:.0%}; identical report passes "
          f"{gated} rows; {crc_hw} gated only under the same dispatch; "
          "single-chain CRC rows fail the framing bound; an unoptimized "
          "report is rejected)")


def main() -> None:
    parser = argparse.ArgumentParser(
        description="Validate (and optionally perf-gate) the kernel "
                    "throughput JSON.")
    parser.add_argument("report", nargs="?",
                        default="BENCH_kernel_throughput.json",
                        help="report to validate (the fresh run in gate "
                             "mode)")
    parser.add_argument("--baseline", metavar="PATH",
                        help="gate mode: fail on rows regressing beyond "
                             "the tolerance relative to this report "
                             "(typically the committed trajectory)")
    parser.add_argument("--regression-tolerance", type=float, default=0.25,
                        metavar="FRAC",
                        help="allowed fractional throughput drop per row "
                             "(default 0.25, tuned for the 1-core "
                             "container's ~13%% CV)")
    parser.add_argument("--allow-regression", action="append", default=[],
                        metavar="FAMILY",
                        help="additionally exempt this family from the "
                             "gate (repeatable); parallel fan-out and "
                             "fleet model rows are exempt by default")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the gate catches an injected 2x "
                             "slowdown in the report, then exit")
    parser.add_argument("--verbose", action="store_true",
                        help="explain every skipped row in gate mode")
    args = parser.parse_args()

    if not 0.0 <= args.regression_tolerance < 1.0:
        fail("--regression-tolerance must be in [0, 1)")
    if args.self_test:
        self_test(args.report, args.regression_tolerance)
        return

    report = load_report(args.report)
    check_schema(report, args.report)
    if args.baseline:
        run_gate(args.baseline, report, args.report,
                 args.regression_tolerance, args.allow_regression,
                 args.verbose)


if __name__ == "__main__":
    main()
