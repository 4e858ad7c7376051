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
driver=0
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
        driver) driver=$n ;;
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
# them as literals. One implementation each lowered it by its measured -38
# (9,349): the codec is one struct (`sass::codec::Codec`, the statics `ENC64`
# and `ENC128`) instead of a trait over two zero-sized types with two copies
# of the length check (its one decoder is inlined once per family, so the
# widths stay constants on the simulator's fetch path, and
# `Arch::instruction_size` reads the codec's), a planned call's lowering is
# one enum (`plan::Lowering`) instead of a flag and a code list, and a tool function
# always carries its body, so `ToolFn::opaque` and codegen's and the
# verifier's handling of a missing body are gone; net of `plan::Promotion`
# stating the site prologue and epilogue it emits. One launch unit lowered it
# by its measured -3 (9,346): the core's per-launch closure walk and the
# verifier's related-function ranges are gone (the driver states a function's
# whole reach at load, and control flow may leave the image only for a
# routine, a tool or an address the original names), net of the one helper
# launch and `enable_instrumented` share. Retiring the predicate filter
# and merging calls in one pass per rung lowered it by its measured -122
# (9,224): no `set_pred_filter`, no filtered injection or planned call, no
# `SSY`/`SYNC` diamond around a filtered call and no filter bit in its dead
# reads; the planner's group chains, their second merge walk and their
# scratch buffers are gone, and a merged call counts its sites. Stating the
# instruction-set vocabulary once lowered it by its measured -42 (9,182):
# `Arch`'s string parsing and `sm_label`, `asm::disassemble_listing` and
# `CfClass::is_relative`, which nothing called, are gone, net of the one
# `PARAM_BASE` sass now states for the compiler and the device. Retiring the
# splice lowering lowered it by its measured -384 (8,798): a planned call is
# called out of line or lowered, so the splice, the renaming exact bracket
# (`Rename::scavenge`, `emit_exact`) and everything only it read (dead reads,
# predicate masks, a tool body's write ceiling as a field, the exact frame's
# accounting) are gone from codegen, and the verifier's splice checks (the
# renamed match, the shape re-check) and its exact-frame store tracking from
# verify, net of the rule that no injected code writes `R1` inside a save
# frame (sass: -1, its shape classifier documented as the lowering
# precondition). Doing only the work a build uses raised it by its measured
# +143 (8,941): liveness solved on first demand (`Analysis` keeps its flow
# graph, `Analysis::liveness`) and the verifier's sound bound beside
# `Dataflow` (`Dataflow::bound`, `LiveSet::written_by` / `meets`,
# `Analysis::live_around`), the save/restore routines loaded only for a plan
# that calls out of line, one codec entry that encodes a word in place
# (`Codec::encode_to`) so `finish` encodes only the body words that change,
# the code-cache table indexed by function handle (`Funcs`) and the build's
# phase spans; `verify.rs` stayed at 590.
printf '  %-10s %6d  (sass + core + common, ceiling 8941)\n' jit "$jit"
if [ "$jit" -gt 8941 ]; then
    echo "sass + core + common grew past its ceiling" >&2
    exit 1
fi
# The verifier decides from `sass` what liveness a site needs
# (`Analysis::live_around`); its own walk stays inside this file's ceiling.
verify_lines=$(awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' crates/core/src/verify.rs)
printf '  %-10s %6d  (crates/core/src/verify.rs, ceiling 590)\n' verify "$verify_lines"
if [ "$verify_lines" -gt 590 ]; then
    echo "verify.rs grew past its ceiling" >&2
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
# the planner no longer reports, lowered it by its measured -1 (925). The
# device-function app's rows raised it by their measured +46 (971):
# `spmv_calls` in the ladder, outside the promotion gate (a function that
# calls, returns or traps stays at the splicing rung), and in the save-policy
# section, and its sampling row, gated on 0 % error, for which the `sampling`
# bin measures any app, not only a SpecAccel benchmark. Retiring the splice
# rung left it at its measured 971: `inject_overhead` lost the `spliced`
# rung and the exact-save rows, and its save-policy section moved to the
# `Region` rung, liveness against full tier for both counting bodies. Fig.
# 5's per-phase columns raised it by their measured +15 (986): plan,
# routines, codegen and verify where one code-generation column was, and
# the gates that no lift solves liveness twice and that no top-rung build
# loads a routine set.
printf '  %-10s %6d  (bench, ceiling 986)\n' bench "$bench"
if [ "$bench" -gt 986 ]; then
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
# Recording a function's callees once lowered it by its measured -8
# (5,024): the relocations, one per call, are the call edges the driver
# walks, so `CompiledFunction::related` and its bookkeeping are gone.
# Stating the instruction-set vocabulary once lowered it by its measured
# -123 (4,901): the AST carries `sass::CmpOp` and `sass::SpecialReg`, so
# `PCmp`, `PtxSpecial`, their `to_sass` bridges, `AtomOp::suffix`,
# `PtxType::is_signed_int` and ptx's own `PARAM_BASE` are gone.
printf '  %-10s %6d  (ptx, ceiling 4901)\n' ptx "$ptx"
if [ "$ptx" -gt 4901 ]; then
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
# Deleting the device-spec JSON codec no caller used and the accessors
# nothing called (`Device::{unlabel_code, memory_mut}`,
# `LaunchConfig::push_param_f32`) lowered it by its measured -118 (2,530).
# Deleting `ExecStats::top_ops`, which nothing called, and the device's own
# copy of `PARAM_BASE` lowered it by its measured -11 (2,519).
printf '  %-10s %6d  (gpu, ceiling 2519)\n' gpu "$gpu"
if [ "$gpu" -gt 2519 ]; then
    echo "gpu grew past its ceiling" >&2
    exit 1
fi
# One instruction counter: every counting tool injects the executed-level
# multiplicity body, coalesce-marked, and the planner's block coalescing is
# the paper's per-basic-block variant, exact. The basic-block counter, the
# issue-level and per-site counting bodies, the counter's body selector and
# the histogram's per-site path are gone: the measured 1,330 (from 1,590).
# Instrumenting each function once, including a device function two kernels
# call, moved it by its measured +10 (1,340): one helper (`uninstrumented` in
# lib.rs) that the counter, the histogram, the divergence tool and the trace
# channel share in place of their own target lists and per-kernel sets, and
# the trace channel now instruments the functions a kernel calls too. One
# histogram counter array lowered it by its measured -38 (1,302): a slot per
# opcode in one array allocated at `at_init`, so the per-kernel state, its
# snapshots and slot table, the per-kernel merge and the sampled-key set are
# gone.
# Routing the `WFFT32` emulation tool through `uninstrumented` moved it by
# its measured +4 (1,306): it now replaces a proxy in every function a
# kernel can reach, once, where it looked only at the launched kernel and a
# `WFFT32` inside a device function faulted the launch. Deleting
# `WfftEmu::replaced`, a count nothing read beside the `tool.wfft_emu.sites`
# counter, lowered it by its measured -2 (1,304). Retiring the splice
# lowering lowered it by its measured -2 (1,302): the counting bodies are
# documented as what the top rung lowers or calls, not splices.
printf '  %-10s %6d  (tools, ceiling 1302)\n' tools "$tools"
if [ "$tools" -gt 1302 ]; then
    echo "tools grew past its ceiling" >&2
    exit 1
fi
# One handle table: the driver's measured 1,068 (from 1,085). A handle is
# the index of what it names in one object table with a free count, so the
# counter, the free-handle set, the context list, the module and function
# maps and the ten open-coded lookups are gone (one accessor per kind), as
# are the fields nothing read (`FunctionInfo::{handle, arch}`,
# `ModuleState::ctx`) and `Driver::{module_name, module_is_library}`; net of
# the context check `module_load` now makes and the release of a failed
# load's module handle. Freeing the code a failed load allocated, before
# its module handle is released, raised it by its measured +5 (1,073).
printf '  %-10s %6d  (driver, ceiling 1073)\n' driver "$driver"
if [ "$driver" -gt 1073 ]; then
    echo "driver grew past its ceiling" >&2
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

echo "== obs inventory: no global recorder state =="
# A recorder is a value its context owns. The one `static` `common::obs` may
# declare is the thread-local binding (a handle to the bound recorder, never
# an event).
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
echo "== retired names: nothing a change retired comes back =="
# One row per retirement: `scope;paths;what was retired;pattern` (GNU grep
# -E; the pattern is last, so it may hold any character but a newline).
# `all` searches whole files; `product` only the lines before a file's first
# `#[cfg(test)]`. A path is a file or a directory searched for `*.rs`.
retired=(
    # A recorder is a value its context owns: nothing reads the environment
    # knobs of the global recorder and `common::bench`.
    'all;crates/*/src crates/bench/benches examples;the environment knobs of the global recorder;NVBIT_OBS|NVBIT_BENCH_SAMPLES'
    # One calling convention: a tool function is compiled once, and the body
    # the planner classifies is that compile without its callee-save bracket.
    'all;crates/*/src;the second calling convention;Abi::Scratch|compile_ast_abi|compile_module_abi|allocate_abi|dual_abi'
    # One verifier input: the plan the build made, in one site walk, with no
    # second pass and no copy of the core's tool-function or routine tables.
    "all;crates/*/src;the verifier's copies of the core's tables;\\b(verify_plan_instrs|load_tool_body|tool_bodies|save_addrs|restore_addrs)\\b"
    # One derivation per build: the verifier never analyses or plans again.
    "product;crates/core/src/verify.rs;the verifier's second derivation;Analysis::of|plan::build"
    # The verifier checks the image, not the planner's groups, nor what
    # decoding guarantees of every word (`SassError::BadOperands` is the
    # decoder's and assembler's own error).
    "all;crates/*/src;the verifier's re-checks of the planner and the decoder;\\b(check_groups|CoalesceMismatch|RegionMismatch|AfterMismatch|same_region)\\b|DiagKind::Bad(Operands|Predicate)\\b"
    # One effect classifier (`ToolFn::effect`, `codegen::effect_of`).
    'all;crates/*/src;the counter-only classifier;counter_of|ToolFn::counter|\.counter\b'
    # Merging only over a proven CFG; an `After` call stays one at every rung.
    "all;crates/*/src;the planner's ICF partition and after-point lowering;partial_blocks|icf_recovered|after_lowered|sites_dropped"
    # One instruction counter through the executed-level multiplicity body.
    'all;crates/*/src;a second counting tool or body;\b(BbInstrCount|CountBody)\b|nvbit_count_(one|block)|nvbit_count_mult\b'
    # One lock: the channel passes owned buffers under a `Mutex`.
    "product;crates/common/src/channel.rs;the channel's lock-free protocol;std::sync::atomic|compare_exchange|spin_loop"
    # The executor trusts the decoder: every fault it keeps is one guest
    # bytes can reach.
    "product;crates/gpu/src/executor.rs;the executor's operand-shape faults;\"[^\"]*( without [a-z]|operands must be registers)"
    # One implementation each: one codec struct, one lowering per planned
    # call, one tool-function constructor, whose body is always there.
    'all;crates/*/src;a second codec, tool-function registration or lowering;trait Codec|ToolFn::opaque|pub inline: bool|pub promoted:'
    # One launch unit: the driver states a function's reach once.
    "all;crates/tools/src/opcode_hist.rs;the histogram's per-kernel state;struct KernelState"
    "product;crates/core/src/verify.rs;the verifier's copy of the related functions;pub related"
    # One handle table, and a function's callees recorded once, as its
    # relocations.
    "all;crates/driver/src;the driver's second handle table;free_handles|take_handle|HashMap<u32, (FunctionInfo|ModuleState)>|fn module_name"
    "product;crates/ptx/src/lib.rs;the compiler's second callee list;pub related"
    # No option, input format or vocabulary copy without a caller:
    # predicate-filtered injection, the device-spec JSON codec, the
    # planner's group chains, and the PTX copies of `sass::CmpOp` and
    # `sass::SpecialReg` with the string forms and queries nothing called.
    'all;crates/*/src;an option, codec, merge structure or vocabulary copy no caller used;set_pred_filter|pred_filter|DeviceSpec::from_json|parse_json|group_tail|MergeScratch|PCmp|PtxSpecial|FromStr for Arch|sm_label|disassemble_listing|top_ops|is_signed_int|fn is_relative'
    # A planned call runs out of line or as its lowered effect: the splice
    # rung, its renaming exact bracket and the verifier's splice checks.
    'all;crates/*/src;the splice lowering;Lowering::Splice|PlanLevel::Spliced|struct Rename|scavenge|emit_exact|renamed_match|exact_live'
)
back=""
for row in "${retired[@]}"; do
    IFS=';' read -r scope paths what pattern <<<"$row"
    for f in $(find $paths -name '*.rs' | sort); do
        end=$(awk '/#\[cfg\(test\)\]/ { print FNR; exit }' "$f")
        [ "$scope" = product ] && [ -n "$end" ] || end=0
        hits=$(grep -nHE -- "$pattern" "$f" | awk -F: -v end="$end" 'end == 0 || $2 < end' || true)
        [ -z "$hits" ] || back="$back"$'\n'"$what:"$'\n'"$hits"
    done
done
if [ -n "$back" ]; then
    echo "a retired name is back:$back" >&2
    exit 1
fi
echo "  ${#retired[@]} retirements, none back"

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

echo "== hostile PTX (release): multi-byte text, the 4,000,000,000-register range, 20,000 mutated sources under a 2 s deadline each; compiled bytes and tool bodies pinned to PR 25's =="
# Tier-1 runs both in debug (where an arithmetic overflow panics); the
# deadlines are the release build's.
cargo test --release -q --test ptx_hostile --test ptx_pin -- --nocapture | grep -E '^  |test result'

echo "== allocation budget (release) =="
# Heap allocations per function and JIT phase on a 32-kernel module, counted
# by a global allocator (exact, host-independent), against the figures of the
# commit before the instruction became a value, and of a native module_load
# against the commit before the PTX front end stopped allocating per token;
# also the Instruction: Copy / 80-byte assertion and the image-hash pin of
# fft/stencil/spmv x four rungs.
cargo test --release -q --test alloc_budget -- --nocapture --test-threads 1 | grep -E '^  |test result'

echo "== verifier verdicts under seeded mutation (release): per-class kill counts, verdict hash pinned =="
# 3,072 single-instruction mutants of 24 accepted images (four apps x three
# rungs below the default x spliceable / calling counter) and 4,096 of five
# images at the default rung; the hash of every mutant's sorted DiagKinds is
# pinned, so a verifier change that drops a check fails here.
cargo test --release -q -p nvbit-core --lib verifier_verdicts_under_seeded_mutation -- --nocapture \
    | grep -E '^verifier kills|^  |test result'

echo "== verify_all: every tool x every workload on Pascal and Volta, zero diagnostics =="
# Lifts and instruments every bundled tool against every workload kernel
# (fft pipeline, SPECAccel suite, ML models) and requires the pre-swap
# static verifier to accept every generated image.
cargo test --release -q -p nvbit-tools --test verify_all -- --include-ignored

echo "== differential: liveness-reduced saves vs full-tier; order-free tools at 1/2/4/8 workers =="
cargo test --release -q -p nvbit-tools --test differential_saves

echo "== pressure: save-tier ladder + tool-body shape classifier unit tests =="
cargo test --release -q -p nvbit-sass --lib pressure

echo "== differential: every rung of the plan ladder (naive/block/region/promoted); declined calls out of line; counters past the register file exact =="
cargo test --release -q -p nvbit-tools --test differential_plan

echo "== inject_overhead: plan ladder over the workload sweep, sampling x plan, save policy (every gate recorded in results/BENCH_inject_overhead.json) =="
# Gates: >=25% fft coalescing cut, promotion keeps it; region wins on >=2
# of fft/stencil/spmv; promotion cuts every workload's cycles below the
# `Region` rung's; tool counts and histograms equal across rungs; one
# sampled launch, and the two levers multiply; >=50% slot reduction by
# liveness sizing at `Region`, for the counting and the wide body.
cargo run --release -q -p nvbit-bench --bin inject_overhead

echo "== fig5: the JIT per function, by phase (every gate recorded in results/BENCH_fig5.json) =="
# Gates: every component but the routines attributed on every benchmark,
# one decode per lift, at most one liveness solve per lift, and no
# routine-set load at the top rung, where every count is lowered.
cargo run --release -q -p nvbit-bench --bin fig5

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
