#!/usr/bin/env bash
# CI gate: formatting, lints, tier-1 build+test — all fully offline —
# plus a guard that no crates.io dependency re-enters any manifest.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

echo "== dependency guard: manifests must stay path-only =="
# Inside any *dependencies section, a `key = "x.y.z"` or
# `{ version = ... }` entry would resolve against crates.io; every
# dependency in this workspace is a path dep declared once in the root
# [workspace.dependencies] table.
bad=$(awk '
    /^\[/ { dep = ($0 ~ /dependencies\]$/) }
    dep && /^[[:space:]]*[A-Za-z0-9_-]+[[:space:]]*=[[:space:]]*("[0-9]|\{.*version)/ {
        print FILENAME ":" FNR ": " $0
    }
' Cargo.toml crates/*/Cargo.toml)
if [ -n "$bad" ]; then
    echo "crates.io-style dependency found:" >&2
    echo "$bad" >&2
    exit 1
fi

echo "== non-test line count =="
# Lines of crates/*/src/**/*.rs before the first `#[cfg(test)]`, per crate:
# the unit ROADMAP item 4's gate and CHANGES.md's before/after figures are
# quoted in.
total=0
jit=0
ptx=0
bench=0
gpu=0
tools=0
for crate in crates/*/; do
    n=$(find "$crate/src" -name '*.rs' -exec awk '
        FNR == 1 { counting = 1 }
        /#\[cfg\(test\)\]/ { counting = 0 }
        counting { n++ }
        END { print n + 0 }
    ' {} +)
    printf '  %-10s %6d\n' "$(basename "$crate")" "$n"
    total=$((total + n))
    case "$(basename "$crate")" in
        sass | core | common) jit=$((jit + n)) ;;
        ptx) ptx=$n ;;
        bench) bench=$n ;;
        gpu) gpu=$n ;;
        tools) tools=$n ;;
    esac
done
printf '  %-10s %6d\n' total "$total"
# PR 24 made the obs recorder a value the context owns and deleted the rings,
# the interner and `common::bench` (9,786 before it), leaving 9,567. PR 25 moved
# it by its measured +9: the verifier's once-per-tool-body splice shape, its
# allocation-free site walk (`InlineVec::retain` in common) and `FunctionInfo`
# read under a borrow, net of the per-site shape scratch, the blanked-copy
# renaming check and the Diagnostic literals one constructor replaced. PR 26
# lowered it by its measured -25 (9,551): one compile per tool function, so
# `ToolFn` has one body-bearing constructor and one scan for calls, and core
# no longer keeps its own copy of the first callee-saved register. Rejecting
# a guarded save or restore routine call as an unbalanced frame then moved it
# by its measured +6 (9,557). Verifying each image against the plan it
# re-derives from the request lowered it by its measured -105 (9,452): one
# site walk instead of two passes, no `CallMeta` copy of the plan's groups,
# no `ExternalCode` copy of the tool-function and routine tables, and the
# planner's CFG-failure counters moved to the one build that plans. Deleting
# what the verifier re-checked of the planner's own grouping (the group,
# multiplicity and lowered origins a planned call carried, `Dom::same_region`)
# and of what decoding guarantees (operand formats, predicate bounds), net of
# the one `Instruction::leaves`, lowered it by its measured -103 (9,349).
# Counter promotion, the `Promoted` rung, raised it by its measured +275
# (9,624, past ROADMAP item 9's +150 gate): the classifier that finds a
# promotable counter by its effect (`codegen::Counter`, `counter_of`), the
# pass that promotes calls and places the pairs (`plan::promote`), the
# pairs' zeroing, increment and flush code (`plan::Promotion`), their
# emission, and the verifier's four checks (+40 in `verify.rs`).
# Effect lowering raised it by its measured +60 (9,684): the counter
# classifier became one effect classifier (`codegen::Effect`, `effect_of`)
# whose value walk also follows a sign-extended argument and an argument
# pair plus one, `plan::promote` lowers a channel push to `IADD.U64` +
# `CHAN.64` into the reserved scratch pair, a planned call's lowered code is
# a short inline sequence (`Instruction: Default` in sass), and the verifier
# owns spans of a lowered call's length; net of the unused
# `LiveSet::max_gpr`. Handing the verifier the build's decode, analysis and
# plan lowered it by its measured -6 (9,678): `verify` no longer decodes the
# original, runs `Analysis::of` or `plan::build`, and `Request` lost `spec`
# and `opts`, net of the one plan `verify_instrumented` now makes itself.
# Replacing the channel's lock-free doorbell protocol with one lock and three
# buffers passed by ownership lowered it by its measured -130 (9,548):
# `channel.rs` 528 -> 398, no packed claim words, epochs, buffer states, flip
# race, spin-wait, atomic slots, copy-out or flush tickets, and no
# `ChannelDev::capacity`, `ChannelHost::dev` or `ChannelHost::flush`.
# Merging calls only over a proven CFG lowered it by its measured -134
# (9,414): the planner's partial partition under an indirect branch
# (`cfg::partial_blocks`, which also miscounted a `BRX` into a straight-line
# run), its after-point lowering pass, the moved-site bookkeeping of a
# request and the plan statistics only those paths fed are gone. Marking
# stale every image that calls a reloaded tool function (which kept
# calling the replaced body) moved it by its measured +7 (9,421). One flow
# graph for liveness and dominance lowered it by its measured -34 (9,387):
# `cfg::flow` builds the successors plus the matched `SYNC` resume edges once
# and both solvers walk it, so `cfg::Edges`, its coarse `SYNC` targets, the
# edge merge inside `Dom::solve` and liveness's second successor list are
# gone, and `Dom::dominates` / `post_dominates` walk their trees as one
# iterator each; net of the matched model also starting at every in-body
# `CAL` target and falling back when a `RET` runs inside an open region or
# no entry reaches a `SYNC` block, and of core naming the tool-call
# registers and argument slots from `ptx::regalloc` instead of restating
# them as literals.
printf '  %-10s %6d  (sass + core + common, ceiling 9387)\n' jit "$jit"
if [ "$jit" -gt 9387 ]; then
    echo "sass + core + common grew past its ceiling" >&2
    exit 1
fi
# The same PR deleted `bench::{ObsCapture, ObsTotals}` (1,471 before it). One
# result type lowered it to its measured 918 (from 1,389): every figure bin
# records rows and gates in one `bench_harness::Report` instead of its own
# tables and JSON, fig7/fig8/fig9 are one `sampling` bin, `savereduce` is
# `inject_overhead`'s save-policy section, and the fft/stencil/spmv apps live
# in `workloads::apps`. The `promoted` rung of `inject_overhead`, its gate
# (every workload's cycles below splicing's) and pinning the save-policy
# section to the splicing rung, where saves are paid, raised it by its
# measured +8 (926). The `after_lowered` column of `inject_overhead`, which
# the planner no longer reports, lowered it by its measured -1 (925).
printf '  %-10s %6d  (bench, ceiling 925)\n' bench "$bench"
if [ "$bench" -gt 925 ]; then
    echo "bench grew past its ceiling" >&2
    exit 1
fi
# PR 23 gave the PTX front end an interner, dense ids and bit rows without
# growing the crate (5,136). PR 26 lowered it to its measured 5,043: the
# scratch calling convention, its two entry points and the allocator's dead
# fields are gone, net of `CompiledFunction::leaf_body` and the implicit
# terminator of a function that falls off its end. Letting a device-function
# parameter nothing reads keep its argument slot without a home to move to
# then moved it by its measured +4 (5,047). Defining the tool-call ABI once
# lowered it by its measured -15 (5,032): the frame and scratch registers
# and the even-pair argument slot rule (`arg_slot`, from `FIRST_CALLER`) are
# public in `regalloc`, which core uses too, and one `MOV` helper (a pair when wide)
# replaced four hand-written move sequences and `cvt`'s move closure.
printf '  %-10s %6d  (ptx, ceiling 5032)\n' ptx "$ptx"
if [ "$ptx" -gt 5032 ]; then
    echo "ptx grew past its ceiling" >&2
    exit 1
fi

# The executor reads every operand by its position in the opcode's format,
# which decoding guarantees (`sass/tests/prop.rs::decoding_garbage_never_panics`),
# so the 32 operand-shape faults no decoded word could reach are gone: the
# gpu crate's measured 2,565 (from 2,635, the executor 1,354 -> 1,284), net
# of `LDC` sharing the loads' register-span check. Row paths for the
# executor's per-lane loads moved it by its measured +67 (2,632): an `LDC`
# from a warp-uniform address, an `LDG`/`STG` whose lanes are all aligned
# and in bounds (through the all-or-nothing `SharedMem::row` accessor) and
# an `S2R` of a lane-invariant register run once per warp instead of once
# per lane, net of the local row path sharing the uniform-base test.
# Deleting the launch settings no caller set (`LaunchConfig::launch_id` and
# constant banks 1-3, read as empty banks) and the four bank copies each
# launch made lowered it by its measured -13 (2,619). Decoding once and
# looping straight moved it by its measured +38 (2,657, inside ROADMAP item
# 16's +40): the code-page `Slot` that carries an instruction's category,
# control-flow class and memory-reference position from its decode, the
# out-of-line `fill` / `Warp::pairs_into` row kernels and `per_lane`, each
# warp's `SR_TID` rows divided out once per launch and the full-warp
# early-out of `global_lines`, net of the per-lane thread-index arms of
# `special()`, the per-category step counter and `ExecStats::record` (now
# the stats tests' reference only). One CTA worker loop lowered it by its
# measured -9 (2,648): `Device::launch` runs the same worker function on the
# launching thread or on each scoped thread, each returning its own
# `(index, result)` list merged through a sorted list of positions, so the
# serial loop, the per-CTA lock and the per-index result slots are gone.
printf '  %-10s %6d  (gpu, ceiling 2648)\n' gpu "$gpu"
if [ "$gpu" -gt 2648 ]; then
    echo "gpu grew past its ceiling" >&2
    exit 1
fi
# One instruction counter: every counting tool injects the executed-level
# multiplicity body, coalesce-marked, and the planner's block coalescing is
# the paper's per-basic-block variant, exact. The basic-block counter, the
# issue-level and per-site counting bodies, the counter's body selector and
# the histogram's per-site path are gone: the measured 1,330 (from 1,590).
printf '  %-10s %6d  (tools, ceiling 1330)\n' tools "$tools"
if [ "$tools" -gt 1330 ]; then
    echo "tools grew past its ceiling" >&2
    exit 1
fi

echo "== unsafe inventory =="
# All unsafe code lives in one file, the word accessor of guest memory, and
# every `unsafe {` / `unsafe impl` there sits directly under a comment block
# containing `// SAFETY:`. (Comment lines that merely say "unsafe" don't count.)
awk '
    FNR == 1 { block = 0; safety = 0 }
    /^[[:space:]]*\/\// { if (!block) safety = 0; block = 1; if (/\/\/ SAFETY:/) safety = 1; next }
    /(^|[^[:alnum:]_])unsafe([[:space:]]*\{|[[:space:]]+(impl|fn|trait|extern))/ {
        if (FILENAME != "crates/gpu/src/mem.rs") { print FILENAME ":" FNR ": unsafe outside crates/gpu/src/mem.rs"; bad = 1 }
        else if (!(block && safety)) { print FILENAME ":" FNR ": unsafe without a // SAFETY: comment directly above"; bad = 1 }
        else n++
    }
    { block = 0 }
    END { printf "  %d unsafe sites, all in crates/gpu/src/mem.rs\n", n; exit bad }
' $(find crates/*/src -name '*.rs' | sort)

echo "== obs inventory: no global recorder state, no environment knobs, one calling convention, one verifier input =="
# A recorder is a value its context owns. The one `static` `common::obs` may
# declare is the thread-local binding (a handle to the bound recorder, never
# an event), and nothing in the product, the bench or the examples reads the
# two environment variables the global recorder and `common::bench` had.
awk '
    /#\[cfg\(test\)\]/ { done = 1 }
    done { next }
    /^thread_local! *\{/ { blocks++; inside = 1; next }
    inside && /^\}/ { inside = 0 }
    /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?static[[:space:]]/ {
        if (inside) bound++
        else { print FILENAME ":" FNR ": static outside the thread_local! binding"; bad = 1 }
    }
    END {
        if (blocks != 1 || bound != 1) { print FILENAME ": expected one thread_local! holding one static"; bad = 1 }
        else print "  1 static, the thread-local binding"
        exit bad
    }
' crates/common/src/obs.rs
knobs=$(grep -rnE 'NVBIT_OBS|NVBIT_BENCH_SAMPLES' crates/*/src crates/bench/benches examples || true)
if [ -n "$knobs" ]; then
    echo "a retired environment knob is back:" >&2
    echo "$knobs" >&2
    exit 1
fi
# One calling convention: a tool function is compiled once, and its splice
# body is that compile without the callee-save bracket (`leaf_body`).
abi=$(grep -rnE 'Abi::Scratch|compile_ast_abi|compile_module_abi|allocate_abi|dual_abi' crates/*/src || true)
if [ -n "$abi" ]; then
    echo "the retired second calling convention is back:" >&2
    echo "$abi" >&2
    exit 1
fi
# One verifier input: the verifier takes the plan the build made, in one site
# walk, with no second pass and no copy of the core's tool-function or
# routine tables.
copies=$(grep -rnwE 'verify_plan_instrs|load_tool_body|tool_bodies|save_addrs|restore_addrs' crates/*/src || true)
if [ -n "$copies" ]; then
    echo "the verifier's retired bookkeeping is back:" >&2
    echo "$copies" >&2
    exit 1
fi
# One derivation per build: the verifier checks the image against the
# build's decode, analysis and plan, and never analyses or plans again.
rederived=$(awk '/#\[cfg\(test\)\]/ { exit } /Analysis::of|plan::build/ { print FILENAME ":" FNR ": " $0 }' \
    crates/core/src/verify.rs)
if [ -n "$rederived" ]; then
    echo "the verifier's second derivation is back:" >&2
    echo "$rederived" >&2
    exit 1
fi
# The verifier checks the image, not the planner: it does not re-check the
# plan's groups, nor what decoding guarantees of every word.
# (`SassError::BadOperands` is the decoder's and assembler's own error.)
rechecks=$(grep -rnE '\b(check_groups|CoalesceMismatch|RegionMismatch|AfterMismatch|same_region)\b|DiagKind::Bad(Operands|Predicate)\b' crates/*/src || true)
if [ -n "$rechecks" ]; then
    echo "a retired re-check of the planner or the decoder is back:" >&2
    echo "$rechecks" >&2
    exit 1
fi
# One effect classifier: a tool body's lowerable effect is `ToolFn::effect`
# (`codegen::effect_of`), counters and channel pushes alike; the counter-only
# classifier and its field do not come back beside it.
counter=$(grep -rnE 'counter_of|ToolFn::counter|\.counter\b' crates/*/src || true)
if [ -n "$counter" ]; then
    echo "the retired counter-only classifier is back:" >&2
    echo "$counter" >&2
    exit 1
fi

# Merging only over a proven CFG: without one the plan merges nothing (the
# paper's flat view under an indirect branch), and an `After` call stays an
# `After` call at every rung. The partial partition, the after-point
# lowering pass and the statistics they fed do not come back.
icf=$(grep -rnE 'partial_blocks|icf_recovered|after_lowered|sites_dropped' crates/*/src || true)
if [ -n "$icf" ]; then
    echo "the planner's retired ICF partition or after-point lowering is back:" >&2
    echo "$icf" >&2
    exit 1
fi

# One instruction counter: `InstrCount` (and the histogram) count through
# the executed-level multiplicity body; the basic-block counter, the
# counter's body selector and the per-site and issue-level bodies do not
# come back beside it.
counting=$(grep -rnE '\b(BbInstrCount|CountBody)\b|nvbit_count_(one|block)|nvbit_count_mult\b' crates/*/src || true)
if [ -n "$counting" ]; then
    echo "a retired counting tool or body is back:" >&2
    echo "$counting" >&2
    exit 1
fi

# One lock: the channel's non-test code passes owned buffers under a `Mutex`,
# and the lock-free doorbell protocol (atomics, CAS claims, a spin-wait) does
# not come back beside it.
lockfree=$(awk '/#\[cfg\(test\)\]/ { exit } /std::sync::atomic|compare_exchange|spin_loop/ { print FILENAME ":" FNR ": " $0 }' \
    crates/common/src/channel.rs)
if [ -n "$lockfree" ]; then
    echo "the channel's retired lock-free protocol is back:" >&2
    echo "$lockfree" >&2
    exit 1
fi

# The executor trusts the decoder: no operand-shape fault ("... without
# register", "... operands must be registers") comes back in its non-test
# code. Every fault it keeps is one guest bytes can reach.
shapes=$(awk '/#\[cfg\(test\)\]/ { exit } /"[^"]*( without [a-z]|operands must be registers)/ { print FILENAME ":" FNR ": " $0 }' \
    crates/gpu/src/executor.rs)
if [ -n "$shapes" ]; then
    echo "a retired operand-shape fault is back in the executor:" >&2
    echo "$shapes" >&2
    exit 1
fi

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (deny rustdoc warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== doc-tests (README quickstart + API examples) =="
cargo test --workspace --doc -q

echo "== tier-1: cargo build --release && cargo test -q (every crate: default-members) =="
cargo build --release
cargo test --workspace -q

echo "== gpu (release): executor unit tests (pooled launch-state hygiene, word-granule memory, address row) + executor-vs-interpreter differential, with the vectorised row paths and the constant, global and special-register row paths =="
# Tier-1 runs these in debug only (which is what catches arithmetic
# overflow); the row loops are vectorised only in release, and the racing
# misaligned-store test has the most to race with there.
cargo test --release -q -p nvbit-gpu

echo "== determinism (release): pinned ExecStats + output hashes, Serial vs Parallel =="
cargo test --release -q --test determinism

echo "== hostile PTX (release): multi-byte text, the 4,000,000,000-register range, 20,000 mutated sources under a 2 s deadline each; compiled bytes and tool splice bodies pinned to PR 25's =="
# Tier-1 runs both in debug (where an arithmetic overflow panics); the
# deadlines are the release build's.
cargo test --release -q --test ptx_hostile --test ptx_pin -- --nocapture | grep -E '^  |test result'

echo "== allocation budget (release) =="
# Heap allocations per function and JIT phase on a 32-kernel module, counted
# by a global allocator (exact, host-independent), against the figures of the
# commit before the instruction became a value, and of a native module_load
# against the commit before the PTX front end stopped allocating per token;
# also the Instruction: Copy / 80-byte assertion and the image-hash pin of
# fft/stencil/spmv x five rungs.
cargo test --release -q --test alloc_budget -- --nocapture --test-threads 1 | grep -E '^  |test result'

echo "== verifier verdicts under seeded mutation (release): per-class kill counts, verdict hash pinned =="
# 4,095 single-instruction mutants of 32 accepted images (four apps x four
# rungs x spliced / out-of-line counter); the hash of every mutant's sorted
# DiagKinds is pinned, so a verifier change that drops a check fails here.
cargo test --release -q -p nvbit-core --lib verifier_verdicts_under_seeded_mutation -- --nocapture \
    | grep -E '^verifier kills|^  |test result'

echo "== verify_all: every tool x every workload, zero diagnostics =="
# Lifts and instruments every bundled tool against every workload kernel
# (fft pipeline, SPECAccel suite, ML models) and requires the pre-swap
# static verifier to accept every generated image.
cargo test --release -q -p nvbit-tools --test verify_all -- --include-ignored

echo "== differential: liveness-reduced saves vs full-tier; order-free tools at 1/2/4/8 workers =="
cargo test --release -q -p nvbit-tools --test differential_saves

echo "== pressure: save-tier ladder + tool-body shape classifier unit tests =="
cargo test --release -q -p nvbit-sass --lib pressure

echo "== differential: every rung of the plan ladder (naive/block/region/spliced/promoted); wide-tool splices cheaper than the calls they replace; counters past the register file exact =="
cargo test --release -q -p nvbit-tools --test differential_plan

echo "== inject_overhead: plan ladder over the workload sweep, sampling x plan, save policy (every gate recorded in results/BENCH_inject_overhead.json) =="
# Gates: >=25% fft coalescing cut, splicing keeps it; region wins on >=2 of
# fft/stencil/spmv; promotion cuts every workload's cycles below splicing's;
# tool counts and histograms equal across rungs; one
# sampled launch, and the two levers multiply; >=95% exact-save and >=30%
# wide-tool slot reduction; the wide splice saves no more than its call.
cargo run --release -q -p nvbit-bench --bin inject_overhead

echo "== module-unload regression: recycled handles never see stale caches =="
cargo test --release -q -p nvbit-core --test module_unload

echo "== channel determinism: Block bit-identical across schedulers, DropCount exact accounting =="
cargo test --release -q -p nvbit-tools --test channel_determinism

echo "== channel_bw: full capture and zero drops under Block at every size, >=16x oversubscription at 4Ki =="
cargo run --release -q -p nvbit-bench --bin channel_bw

echo "== obs_overhead: observability hooks cost < 1% of an instrumented run disabled, < 5% enabled =="
# Each bound is hooks per run x ns per hook (scope entry included) over the
# obs-off run's time: both sit an order of magnitude under their bars, which
# is what makes them host-independent enough to gate.
cargo bench -q -p nvbit-bench --bench obs_overhead

echo "== scoped recorder (release): concurrent and interleaved drivers record disjoint reports =="
# Default test threads on purpose: the obs tests share no state to serialise on.
cargo test --release -q --test obs_pipeline
cargo test --release -q -p nvbit-core --test image_versions_obs

echo "== no self-disabling gates: every result stamped with host and revision, every gate holding =="
# A bench bin that cannot enforce its gate on this host must fail, not
# record a gate that does not hold (or `"enforced": false`) and pass: a gate
# that switched itself off is unmeasured, whatever the JSON next to it says.
# A result counts only on a recorded host at a recorded revision
# (`bench_harness::Report` writes both).
bad=""
for f in results/BENCH_*.json; do
    if ! grep -q '"host":' "$f" || ! grep -q '"rev":' "$f"; then
        bad="$bad $f (no host or rev)"
    fi
    if grep -qE '"holds": *false|"enforced": *false' "$f"; then
        bad="$bad $f (a gate that does not hold)"
    fi
done
if [ -n "$bad" ]; then
    echo "results outside the one schema or with a failed gate:$bad" >&2
    exit 1
fi

echo "== benchmark smoke: every BENCHMARK.json workload runs and passes its output checks (no timing gate) =="
# The pipeline builds benchmark/ from this checkout, so a product change that
# breaks one of its output checks should fail here first. cargo refreshes the
# benchmark's committed lock file, which a product PR must not change: put it
# back however this script ends.
cp benchmark/Cargo.lock target/benchmark.Cargo.lock.orig
trap 'cp target/benchmark.Cargo.lock.orig benchmark/Cargo.lock' EXIT
for w in exec_spec jit_unique trace_chan sample_swap; do
    last=$(cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$w" --seed 1 --seconds 2 --trace 0 | tail -n 1)
    case "$last" in
        *'"correct":true'*) echo "  $w: correct" ;;
        *) echo "benchmark workload $w failed its output checks: $last" >&2; exit 1 ;;
    esac
done

echo "CI OK"
