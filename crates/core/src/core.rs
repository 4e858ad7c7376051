//! The NVBit core: driver interposition, tool dispatch, state management
//! and the user-level API handed to tools.
//!
//! # Code-cache concurrency contract
//!
//! `CoreState` is shared behind an `Arc` and sharded: per-function state
//! lives in `SHARDS` independent mutex-guarded maps keyed by the raw
//! function handle. Shard locks are held only for short map operations —
//! never across device calls that could re-enter the core, and never two
//! at once — so batch instrumentation can fan lift/codegen/verify work out
//! across `std::thread::scope` workers (the PR-1 scheduler pattern) while
//! the main thread keeps exclusive use of the single-threaded [`Driver`],
//! servicing trampoline allocations over a channel in deterministic input
//! order (a turnstile), which makes parallel builds bit-identical to
//! serial ones.
//!
//! # Versioned images
//!
//! Each function caches *multiple* instrumented images keyed by
//! ([`FuncSpec::content_hash`], [`SavePolicy`]). Flipping
//! `enable_instrumented` or `set_save_policy` between already-built
//! versions is a pure O(memcpy) swap (paper §6.2) — codegen never re-runs
//! for a key it has seen. `cuModuleUnload` evicts every entry of the dying
//! module and frees its trampolines, so a recycled handle can never be
//! served a stale lifted image.

use crate::codegen::{generate, InstrumentedImage, SavePolicy, ToolFn};
use crate::hal::Hal;
use crate::instr::Instr;
use crate::lift::{lift, Lifted};
use crate::plan::{self, PlanOpts, PlanStats};
use crate::saverestore::{restore_text, save_text, Routines, TIERS};
use crate::spec::{Arg, FuncSpec, IPoint};
use crate::verify::{self, Diagnostic, ExternalCode};
use crate::{NvbitError, Result};
use cuda::{CbId, CbParams, CuContext, CuFunction, CuModule, Driver, Interposer};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, RwLock};

/// A user instrumentation tool — the analog of an NVBit tool shared
/// library. Implement the callbacks you need; defaults are no-ops.
pub trait NvbitTool {
    /// Application start (before any driver call).
    fn at_init(&mut self, api: &NvbitApi<'_>) {
        let _ = api;
    }

    /// Application termination.
    fn at_term(&mut self, api: &NvbitApi<'_>) {
        let _ = api;
    }

    /// A context started.
    fn at_ctx_init(&mut self, api: &NvbitApi<'_>, ctx: CuContext) {
        let _ = (api, ctx);
    }

    /// A context is being destroyed.
    fn at_ctx_term(&mut self, api: &NvbitApi<'_>, ctx: CuContext) {
        let _ = (api, ctx);
    }

    /// Entry/exit of every CUDA driver API call (paper Listing 2).
    fn at_cuda_event(
        &mut self,
        api: &NvbitApi<'_>,
        is_exit: bool,
        cbid: CbId,
        params: &CbParams<'_>,
    );
}

/// Number of independent function-state shards.
const SHARDS: usize = 16;

/// Whether a function currently runs its original or instrumented version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Version {
    Original,
    Instrumented,
}

/// Key of one cached instrumented image: what was asked for (the spec),
/// how saves were sized (the policy) and which plan passes ran (the
/// options). Same key ⇒ bit-identical image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ImageKey {
    spec_hash: u64,
    policy: SavePolicy,
    opts: PlanOpts,
}

/// Per-function code-cache entry.
struct FuncEntry {
    func: CuFunction,
    lifted: Option<Arc<Lifted>>,
    spec: FuncSpec,
    /// Cached [`FuncSpec::content_hash`]; refreshed when `spec.dirty`.
    spec_hash: Option<u64>,
    /// All generated versions, kept until reset/unload (paper Figure 5:
    /// amortization; §6.2: O(memcpy) sampling switches).
    images: HashMap<ImageKey, InstrumentedImage>,
    /// What the tool asked for (`enable_instrumented`). Defaults to
    /// instrumented once instrumentation exists, like NVBit.
    desired: Version,
    /// The version currently written at the function's code address
    /// (`None` = the original code).
    current: Option<ImageKey>,
}

impl FuncEntry {
    fn new(func: CuFunction) -> FuncEntry {
        FuncEntry {
            func,
            lifted: None,
            spec: FuncSpec::default(),
            spec_hash: None,
            images: HashMap::new(),
            desired: Version::Instrumented,
            current: None,
        }
    }

    /// The image key of the entry's present spec under `policy`/`opts`.
    fn key(&mut self, policy: SavePolicy, opts: PlanOpts) -> ImageKey {
        if self.spec.dirty || self.spec_hash.is_none() {
            self.spec_hash = Some(self.spec.content_hash());
            self.spec.dirty = false;
        }
        ImageKey { spec_hash: self.spec_hash.expect("just refreshed"), policy, opts }
    }
}

/// Everything a worker needs to build one instrumented image, fully owned
/// (workers never touch [`CoreState`] or the [`Driver`]).
struct BuildInput {
    func: CuFunction,
    key: ImageKey,
    info: cuda::FunctionInfo,
    /// Pristine function bytes (never read while an instrumented version
    /// is installed — see the gather phase).
    code: Vec<u8>,
    lifted: Option<Arc<Lifted>>,
    spec: FuncSpec,
    ext: ExternalCode,
}

/// Result of building one image (worker side).
struct BuildOutcome {
    idx: usize,
    /// The lifted view used (newly created when the input carried none).
    lifted: Option<Arc<Lifted>>,
    result: Result<(InstrumentedImage, Vec<Diagnostic>)>,
}

/// Advances the allocation turnstile past `next` on drop, so a build that
/// errors (or panics) before reaching its allocation never wedges the
/// workers queued behind it.
struct TurnGuard<'a> {
    turn: &'a Mutex<usize>,
    cv: &'a Condvar,
    next: usize,
}

impl Drop for TurnGuard<'_> {
    fn drop(&mut self) {
        let mut g = self.turn.lock().unwrap_or_else(|e| e.into_inner());
        *g = (*g).max(self.next);
        self.cv.notify_all();
    }
}

/// Builds one instrumented image from an owned input: lift (if not cached),
/// codegen, then pre-swap verification. Pure CPU work except `alloc` —
/// safe on worker threads; obs spans land on the calling thread.
fn build_one(
    idx: usize,
    hal: &Hal,
    input: &BuildInput,
    tool_fns: &HashMap<String, ToolFn>,
    routines: &HashMap<u16, Routines>,
    alloc: impl FnMut(u64) -> Result<u64>,
) -> BuildOutcome {
    let _span = common::obs::span("instrument");
    common::obs::counter("instr_image.build", 1);
    let mut lifted = input.lifted.clone();
    let result = (|| -> Result<(InstrumentedImage, Vec<Diagnostic>)> {
        let l = match lifted.clone() {
            Some(l) => l,
            None => {
                let _lspan = common::obs::span("lift");
                let l = Arc::new(lift(hal, &input.info, &input.code)?);
                lifted = Some(l.clone());
                l
            }
        };
        let original: Vec<sass::Instruction> = l.instrs.iter().map(|i| i.raw().clone()).collect();
        // Lower the spec into the plan IR, running the coalescing and
        // inlining passes the image key's options select.
        let plan = {
            let _pspan = common::obs::span("plan");
            let plan = plan::build(
                &input.spec,
                &original,
                hal.arch(),
                &l.analysis,
                tool_fns,
                input.key.opts,
            )?;
            common::obs::counter("plan.coalesced_away", plan.stats.coalesced_away);
            common::obs::counter("plan.inlined_calls", plan.stats.inlined_calls);
            common::obs::counter("plan.after_lowered", plan.stats.after_lowered);
            common::obs::counter("plan.region_groups", plan.stats.region_groups);
            common::obs::counter("plan.icf_recovered", plan.stats.icf_recovered);
            common::obs::counter("plan.pressure.accepted", plan.stats.inline_accepted);
            common::obs::counter("plan.pressure.declined", plan.stats.inline_declined);
            common::obs::counter("plan.occ.accepted", plan.stats.occ_accepted);
            common::obs::counter("plan.occ.declined", plan.stats.occ_declined);
            plan
        };
        let image = {
            let _cspan = common::obs::span("codegen");
            generate(
                hal,
                &input.info,
                &original,
                &input.code,
                &plan,
                tool_fns,
                routines,
                &l.analysis,
                input.key.policy,
                alloc,
            )?
        };
        // Pre-swap verification: a bad image corrupts the application, so
        // the install phase refuses any image with findings.
        let diags = {
            let _vspan = common::obs::span("verify");
            verify::verify(hal, input.info.addr, &image, &input.ext)?
        };
        Ok((image, diags))
    })();
    BuildOutcome { idx, lifted, result }
}

/// Shared core state (see the module docs for the concurrency contract).
pub(crate) struct CoreState {
    hal: Mutex<Option<Hal>>,
    tool_fns: RwLock<HashMap<String, ToolFn>>,
    routines: RwLock<HashMap<u16, Routines>>,
    shards: Vec<Mutex<HashMap<u32, FuncEntry>>>,
    save_policy: Mutex<SavePolicy>,
    plan_opts: Mutex<PlanOpts>,
    /// Worker threads for batch instrumentation; 0 = one per hardware
    /// thread.
    jit_workers: AtomicUsize,
    /// Block thread count of the most recently intercepted launch
    /// (0 = none yet). Resolves [`sass::occupancy::OccupancyCfg::PER_LAUNCH`]
    /// occupancy configs: the resolved shape is part of the plan-cache
    /// key, so a shape change replans while repeats hit the cache.
    launch_threads: AtomicU32,
}

impl CoreState {
    fn new() -> CoreState {
        let workers =
            std::env::var("NVBIT_JIT_WORKERS").ok().and_then(|v| v.parse().ok()).unwrap_or(0usize);
        CoreState {
            hal: Mutex::new(None),
            tool_fns: RwLock::new(HashMap::new()),
            routines: RwLock::new(HashMap::new()),
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            save_policy: Mutex::new(SavePolicy::default()),
            plan_opts: Mutex::new(PlanOpts::default()),
            jit_workers: AtomicUsize::new(workers),
            launch_threads: AtomicU32::new(0),
        }
    }

    /// The current plan options with any per-launch occupancy sentinel
    /// resolved to the last intercepted launch's block shape. Every
    /// path that derives a plan-cache key goes through this, so launch
    /// interception and the inspection APIs (`plan_stats`,
    /// `save_stats`, `verify_instrumented`) agree on which image a
    /// given option set names.
    fn resolved_opts(&self) -> PlanOpts {
        let mut opts = *self.plan_opts.lock().unwrap();
        if let Some(cfg) = opts.occupancy.as_mut() {
            if cfg.per_launch() {
                cfg.block_threads = self.launch_threads.load(Ordering::Relaxed).max(1);
            }
        }
        opts
    }

    fn shard(&self, raw: u32) -> &Mutex<HashMap<u32, FuncEntry>> {
        &self.shards[raw as usize % SHARDS]
    }

    fn hal(&self, drv: &Driver) -> Hal {
        *self.hal.lock().unwrap().get_or_insert_with(|| Hal::new(drv.arch()))
    }

    fn effective_workers(&self, inputs: usize) -> usize {
        let configured = self.jit_workers.load(Ordering::Relaxed);
        let configured = if configured == 0 {
            std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
        } else {
            configured
        };
        configured.min(inputs)
    }

    /// Code regions outside the image that instrumented control flow may
    /// legitimately reach, for the pre-swap verifier.
    fn external_code(&self, drv: &Driver, info: &cuda::FunctionInfo) -> ExternalCode {
        let mut ext = ExternalCode::default();
        for r in self.routines.read().unwrap().values() {
            ext.save_addrs.push(r.save_addr);
            ext.restore_addrs.push(r.restore_addr);
        }
        for (name, t) in self.tool_fns.read().unwrap().iter() {
            ext.tool_addrs.push(t.addr);
            if let Some(body) = &t.body {
                ext.tool_bodies.push((name.clone(), body.clone()));
            }
        }
        for f in &info.related {
            if let Ok(ri) = drv.function_info(*f) {
                ext.code_regions.push((ri.addr, ri.addr + ri.code_len));
            }
        }
        ext
    }

    /// Loads the embedded save/restore routines on first use (Tool
    /// Functions Loader, the `libnvbit.a`-embedded part). Built fully
    /// before publication, so a failure leaves the table empty and a
    /// retry starts clean.
    fn ensure_routines(&self, drv: &Driver) -> Result<()> {
        if !self.routines.read().unwrap().is_empty() {
            return Ok(());
        }
        let hal = self.hal(drv);
        let mut built = HashMap::new();
        for tier in TIERS {
            let save = hal.assemble_text(&save_text(tier, &hal))?;
            let restore = hal.assemble_text(&restore_text(tier, &hal))?;
            let (save_addr, restore_addr) = drv.with_device(|d| -> gpu::Result<(u64, u64)> {
                let sa = d.alloc(save.len() as u64)?;
                d.write(sa, &save)?;
                d.label_code(sa, save.len() as u64, &format!("nvbit$save{tier}"));
                let ra = d.alloc(restore.len() as u64)?;
                d.write(ra, &restore)?;
                d.label_code(ra, restore.len() as u64, &format!("nvbit$restore{tier}"));
                Ok((sa, ra))
            })?;
            built.insert(
                tier,
                Routines {
                    tier,
                    save_addr,
                    restore_addr,
                    frame_bytes: crate::saverestore::frame_bytes(tier, &hal),
                },
            );
        }
        *self.routines.write().unwrap() = built;
        Ok(())
    }

    /// Lifts (and caches) a function.
    fn lifted_for(&self, drv: &Driver, func: CuFunction) -> Result<Arc<Lifted>> {
        let raw = func.raw();
        if let Some(l) = self.shard(raw).lock().unwrap().get(&raw).and_then(|e| e.lifted.clone()) {
            common::obs::counter("lift_cache.hit", 1);
            return Ok(l);
        }
        common::obs::counter("lift_cache.miss", 1);
        let _span = common::obs::span("lift");
        let hal = self.hal(drv);
        let info = drv.function_info(func)?;
        let code = drv.read_code(func)?;
        let lifted = Arc::new(lift(&hal, &info, &code)?);
        self.shard(raw).lock().unwrap().entry(raw).or_insert_with(|| FuncEntry::new(func)).lifted =
            Some(lifted.clone());
        Ok(lifted)
    }

    /// Functions whose present (spec, policy, opts) key has no cached
    /// image yet.
    fn pending(&self, policy: SavePolicy, opts: PlanOpts) -> Vec<CuFunction> {
        let mut v = Vec::new();
        for shard in &self.shards {
            let mut g = shard.lock().unwrap();
            for e in g.values_mut() {
                if !e.spec.is_empty() {
                    let k = e.key(policy, opts);
                    if !e.images.contains_key(&k) {
                        v.push(e.func);
                    }
                }
            }
        }
        v.sort_by_key(|f| f.raw());
        v
    }

    /// Instruments a batch of functions: gather inputs, build images
    /// (in parallel when configured), install, then reconcile the
    /// desired/current version of every batch member. Returns one result
    /// per distinct function.
    fn apply_batch(&self, drv: &Driver, funcs: &[CuFunction]) -> Vec<(CuFunction, Result<()>)> {
        let policy = *self.save_policy.lock().unwrap();
        let opts = self.resolved_opts();
        let mut seen = std::collections::HashSet::new();
        let funcs: Vec<CuFunction> =
            funcs.iter().copied().filter(|f| seen.insert(f.raw())).collect();
        let mut errors: HashMap<u32, NvbitError> = HashMap::new();

        // Gather: decide per function under a brief shard lock, then
        // assemble fully-owned build inputs on the main thread.
        let mut inputs: Vec<BuildInput> = Vec::new();
        for &func in &funcs {
            let raw = func.raw();
            let (key, lifted, spec, pristine) = {
                let mut shard = self.shard(raw).lock().unwrap();
                let Some(entry) = shard.get_mut(&raw) else { continue };
                if entry.spec.is_empty() {
                    continue;
                }
                let key = entry.key(policy, opts);
                if entry.images.contains_key(&key) {
                    // The code-cache reuse the paper's Figure 5
                    // amortization depends on.
                    common::obs::counter("instr_image.reuse", 1);
                    continue;
                }
                // The code at the function's address may currently be an
                // instrumented version; build new images from the pristine
                // bytes every cached image carries.
                let pristine = entry.images.values().next().map(|img| img.original.clone());
                (key, entry.lifted.clone(), entry.spec.clone(), pristine)
            };
            common::obs::counter(
                if lifted.is_some() { "lift_cache.hit" } else { "lift_cache.miss" },
                1,
            );
            if let Err(e) = self.ensure_routines(drv) {
                errors.insert(raw, e);
                continue;
            }
            let gathered = (|| -> Result<BuildInput> {
                let info = drv.function_info(func)?;
                let code = match pristine {
                    Some(c) => c,
                    None => drv.read_code(func)?,
                };
                let ext = self.external_code(drv, &info);
                Ok(BuildInput { func, key, info, code, lifted, spec, ext })
            })();
            match gathered {
                Ok(i) => inputs.push(i),
                Err(e) => {
                    errors.insert(raw, e);
                }
            }
        }

        // Build + install.
        for out in self.build_all(drv, &inputs) {
            let input = &inputs[out.idx];
            let raw = input.func.raw();
            match out.result {
                Err(e) => {
                    errors.insert(raw, e);
                }
                Ok((image, diags)) => {
                    if !diags.is_empty() {
                        common::obs::counter("instr_image.verify_reject", 1);
                        if drv.with_device(|d| d.free(image.tramp_addr)).is_err() {
                            common::obs::counter("tramp.free_fail", 1);
                        }
                        errors.insert(raw, NvbitError::VerifyFailed(diags));
                    } else if let Err(e) = drv.with_device(|d| -> gpu::Result<()> {
                        d.write(image.tramp_addr, &image.tramp_code)?;
                        d.label_code(
                            image.tramp_addr,
                            image.tramp_code.len() as u64,
                            &format!("{}$tramp", input.info.name),
                        );
                        Ok(())
                    }) {
                        errors.insert(raw, e.into());
                    } else {
                        let mut shard = self.shard(raw).lock().unwrap();
                        match shard.get_mut(&raw) {
                            Some(entry) => {
                                if entry.lifted.is_none() {
                                    entry.lifted = out.lifted.clone();
                                }
                                entry.images.insert(input.key, image);
                            }
                            None => {
                                // Entry vanished mid-batch (reset): drop
                                // the orphaned trampoline.
                                drop(shard);
                                if drv.with_device(|d| d.free(image.tramp_addr)).is_err() {
                                    common::obs::counter("tramp.free_fail", 1);
                                }
                            }
                        }
                    }
                }
            }
        }

        // Reconcile every batch member (including pure cache hits).
        funcs
            .into_iter()
            .map(|func| {
                let res = match errors.remove(&func.raw()) {
                    Some(e) => Err(e),
                    None => self.reconcile(drv, func, policy, opts),
                };
                (func, res)
            })
            .collect()
    }

    /// Builds all inputs: inline on the calling thread when one worker
    /// suffices, else fanned out across scoped workers with the
    /// deterministic allocation turnstile.
    fn build_all(&self, drv: &Driver, inputs: &[BuildInput]) -> Vec<BuildOutcome> {
        if inputs.is_empty() {
            return Vec::new();
        }
        let hal = self.hal(drv);
        let tool_fns = self.tool_fns.read().unwrap().clone();
        let routines = self.routines.read().unwrap().clone();
        let workers = self.effective_workers(inputs.len());
        if workers <= 1 {
            return inputs
                .iter()
                .enumerate()
                .map(|(i, input)| {
                    build_one(i, &hal, input, &tool_fns, &routines, |len| {
                        drv.with_device(|d| d.alloc(len)).map_err(Into::into)
                    })
                })
                .collect();
        }

        // Workers do the pure lift/codegen/verify work; the main thread
        // stays on this side of the single-threaded driver, servicing
        // trampoline allocations over a channel. The turnstile forces
        // allocations into ascending input order, so device addresses —
        // and therefore the generated images — are bit-identical to a
        // serial build.
        let next = AtomicUsize::new(0);
        let turn = Mutex::new(0usize);
        let turn_cv = Condvar::new();
        let outcomes = Mutex::new(Vec::with_capacity(inputs.len()));
        let (tx, rx) = mpsc::channel::<(u64, mpsc::Sender<gpu::Result<u64>>)>();
        std::thread::scope(|s| {
            for _ in 0..workers {
                let tx = tx.clone();
                let (next, turn, turn_cv, outcomes) = (&next, &turn, &turn_cv, &outcomes);
                let (hal, tool_fns, routines) = (&hal, &tool_fns, &routines);
                s.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= inputs.len() {
                        break;
                    }
                    let guard = TurnGuard { turn, cv: turn_cv, next: i + 1 };
                    let alloc = |len: u64| -> Result<u64> {
                        let mut g = turn.lock().unwrap();
                        while *g < i {
                            g = turn_cv.wait(g).unwrap();
                        }
                        drop(g);
                        let (rtx, rrx) = mpsc::channel();
                        let res = if tx.send((len, rtx)).is_ok() { rrx.recv().ok() } else { None };
                        let mut g = turn.lock().unwrap();
                        *g = (*g).max(i + 1);
                        turn_cv.notify_all();
                        drop(g);
                        match res {
                            Some(r) => r.map_err(Into::into),
                            None => Err(NvbitError::BadRequest(
                                "trampoline allocation service unavailable".into(),
                            )),
                        }
                    };
                    let out = build_one(i, hal, &inputs[i], tool_fns, routines, alloc);
                    drop(guard);
                    outcomes.lock().unwrap().push(out);
                });
            }
            drop(tx);
            while let Ok((len, reply)) = rx.recv() {
                let _ = reply.send(drv.with_device(|d| d.alloc(len)));
            }
        });
        let mut v = outcomes.into_inner().unwrap();
        v.sort_by_key(|o| o.idx);
        v
    }

    /// Installs the version the tool asked for, when it differs from what
    /// is at the function's code address: one memcpy plus the local-memory
    /// override (paper §6.2).
    fn reconcile(
        &self,
        drv: &Driver,
        func: CuFunction,
        policy: SavePolicy,
        opts: PlanOpts,
    ) -> Result<()> {
        let raw = func.raw();
        let mut shard = self.shard(raw).lock().unwrap();
        let Some(entry) = shard.get_mut(&raw) else { return Ok(()) };
        let target = if entry.desired == Version::Instrumented {
            let k = entry.key(policy, opts);
            entry.images.contains_key(&k).then_some(k)
        } else {
            None
        };
        if entry.current == target {
            return Ok(());
        }
        let info = drv.function_info(func)?;
        let _swap_span = common::obs::span("swap");
        match target {
            Some(k) => {
                let img = &entry.images[&k];
                drv.with_device(|d| d.write(info.addr, &img.instrumented))?;
                drv.set_local_override(func, img.extra_local)?;
            }
            None => {
                // `current` was Some, so at least that image exists and
                // carries the pristine bytes.
                let img = entry
                    .current
                    .and_then(|c| entry.images.get(&c))
                    .or_else(|| entry.images.values().next());
                if let Some(img) = img {
                    drv.with_device(|d| d.write(info.addr, &img.original))?;
                    drv.set_local_override(func, 0)?;
                }
            }
        }
        entry.current = target;
        Ok(())
    }

    /// Single-function convenience over [`CoreState::apply_batch`].
    fn apply_one(&self, drv: &Driver, func: CuFunction) -> Result<()> {
        self.apply_batch(drv, &[func]).pop().map(|(_, r)| r).unwrap_or(Ok(()))
    }

    /// Drops a function's entry after an instrumentation failure: restore
    /// the original code if a version was installed, then free every
    /// cached trampoline.
    fn discard_entry(&self, drv: &Driver, func: CuFunction) {
        let raw = func.raw();
        let Some(entry) = self.shard(raw).lock().unwrap().remove(&raw) else { return };
        if entry.current.is_some() {
            if let Ok(info) = drv.function_info(func) {
                let img = entry
                    .current
                    .and_then(|c| entry.images.get(&c))
                    .or_else(|| entry.images.values().next());
                if let Some(img) = img {
                    let _ = drv.with_device(|d| d.write(info.addr, &img.original));
                }
                let _ = drv.set_local_override(func, 0);
            }
        }
        for img in entry.images.values() {
            if drv.with_device(|d| d.free(img.tramp_addr)).is_err() {
                common::obs::counter("tramp.free_fail", 1);
            }
        }
    }

    /// `cuModuleUnload` entry: evicts every cached entry of the dying
    /// module and frees its trampolines. Runs while the module is still
    /// queryable; afterwards the driver recycles the handles, so anything
    /// left here would serve stale code to their next owner.
    fn evict_module(&self, drv: &Driver, module: &CuModule) {
        let Ok(funcs) = drv.module_functions(module) else { return };
        let mut lift_evicted = 0u64;
        let mut image_evicted = 0u64;
        for func in funcs {
            let raw = func.raw();
            let Some(entry) = self.shard(raw).lock().unwrap().remove(&raw) else { continue };
            if entry.lifted.is_some() {
                lift_evicted += 1;
            }
            for img in entry.images.values() {
                image_evicted += 1;
                if drv.with_device(|d| d.free(img.tramp_addr)).is_err() {
                    common::obs::counter("tramp.free_fail", 1);
                }
            }
        }
        if lift_evicted > 0 {
            common::obs::counter("lift_cache.evict", lift_evicted);
        }
        if image_evicted > 0 {
            common::obs::counter("instr_image.evict", image_evicted);
        }
    }

    /// Launch-entry instrumentation: batch-build every pending function
    /// (first launch after a module load fans out across all of them) and
    /// reconcile versions.
    ///
    /// `block_threads` is the intercepted launch's block thread count;
    /// it resolves [`sass::occupancy::OccupancyCfg::PER_LAUNCH`]
    /// occupancy configs to the real shape. The resolved opts feed the
    /// plan-cache key, so a launch at a new shape replans while
    /// repeated shapes hit the cached image — the same shape-keyed
    /// reuse the sampling cache applies.
    fn instrument_for_launch(&self, drv: &Driver, func: CuFunction, block_threads: u32) {
        let raw = func.raw();
        let tracked = self
            .shard(raw)
            .lock()
            .unwrap()
            .get(&raw)
            .map(|e| !e.spec.is_empty() || !e.images.is_empty())
            .unwrap_or(false);
        self.launch_threads.store(block_threads.max(1), Ordering::Relaxed);
        let policy = *self.save_policy.lock().unwrap();
        let raw_opts = *self.plan_opts.lock().unwrap();
        let opts = self.resolved_opts();
        if opts != raw_opts {
            common::obs::counter("plan.occ_launch_shape", 1);
        }
        let mut batch = self.pending(policy, opts);
        if tracked && !batch.iter().any(|f| f.raw() == raw) {
            batch.push(func);
            batch.sort_by_key(|f| f.raw());
        }
        for (f, res) in self.apply_batch(drv, &batch) {
            if let Err(e) = res {
                // Instrumentation failures must not corrupt the
                // application; drop the request and keep the original.
                eprintln!("nvbit: instrumentation of {f} failed: {e}");
                self.discard_entry(drv, f);
            }
        }
    }
}

/// The NVBit core: installed as the driver's interposer; dispatches tool
/// callbacks and applies pending instrumentation at callback exits
/// (paper §5.1: "At the exit of the CUDA driver callback ... the Code
/// Generator begins functioning").
pub struct NvbitCore {
    tool: Box<dyn NvbitTool>,
    state: Arc<CoreState>,
}

impl NvbitCore {
    /// Wraps a tool.
    pub fn new(tool: impl NvbitTool + 'static) -> NvbitCore {
        NvbitCore { tool: Box::new(tool), state: Arc::new(CoreState::new()) }
    }
}

/// Attaches a tool to a driver: the run-time injection step (the analog of
/// `LD_PRELOAD`-ing an NVBit tool `.so` into the application).
pub fn attach_tool(drv: &Driver, tool: impl NvbitTool + 'static) {
    drv.install_interposer(Box::new(NvbitCore::new(tool)));
}

impl Interposer for NvbitCore {
    fn at_init(&mut self, drv: &Driver) {
        let api = NvbitApi { drv, state: &self.state };
        self.tool.at_init(&api);
    }

    fn at_term(&mut self, drv: &Driver) {
        let api = NvbitApi { drv, state: &self.state };
        self.tool.at_term(&api);
    }

    fn at_ctx_init(&mut self, drv: &Driver, ctx: CuContext) {
        let api = NvbitApi { drv, state: &self.state };
        self.tool.at_ctx_init(&api, ctx);
    }

    fn at_ctx_term(&mut self, drv: &Driver, ctx: CuContext) {
        let api = NvbitApi { drv, state: &self.state };
        self.tool.at_ctx_term(&api, ctx);
    }

    fn at_cuda_event(&mut self, drv: &Driver, is_exit: bool, cbid: CbId, params: &CbParams<'_>) {
        let api = NvbitApi { drv, state: &self.state };

        {
            let _span = common::obs::span("user_code");
            self.tool.at_cuda_event(&api, is_exit, cbid, params);
        }

        if !is_exit {
            match (cbid, params) {
                (CbId::LaunchKernel, CbParams::LaunchKernel { func, block, .. }) => {
                    let threads = u32::try_from(block.count()).unwrap_or(u32::MAX);
                    self.state.instrument_for_launch(drv, *func, threads);
                }
                (CbId::ModuleUnload, CbParams::Module { module, .. }) => {
                    self.state.evict_module(drv, module);
                }
                _ => {}
            }
        }
    }
}

/// Register-save accounting for one instrumented function, as reported by
/// [`NvbitApi::save_stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SaveStats {
    /// Register slots actually saved across all injections.
    pub saved_slots: u64,
    /// Slots the conservative whole-function tier would have saved.
    pub full_tier_slots: u64,
    /// Largest save tier used by any site.
    pub max_tier: u16,
    /// Number of injection sites.
    pub sites: usize,
    /// Why liveness-driven sizing was not applied, when it was not.
    pub fallback: Option<String>,
}

/// The user-level API handed to tools (paper §4). Obtainable only inside
/// tool callbacks.
pub struct NvbitApi<'a> {
    drv: &'a Driver,
    state: &'a Arc<CoreState>,
}

impl<'a> NvbitApi<'a> {
    /// The underlying driver (for memory management from host callbacks;
    /// calls made here do not re-trigger tool callbacks).
    pub fn driver(&self) -> &Driver {
        self.drv
    }

    /// The hardware abstraction layer of the current device.
    pub fn hal(&self) -> Hal {
        self.state.hal(self.drv)
    }

    // ----- Tool Functions Loader (paper §5.1) -----------------------------

    /// Compiles and loads the tool's instrumentation device functions
    /// (PTX dialect source). Call once, typically from `at_init`. The
    /// functions become injectable by name — the analog of
    /// `NVBIT_EXPORT_DEV_FUNCTION`.
    ///
    /// # Errors
    ///
    /// Compilation or device-memory failures.
    pub fn load_tool_functions(&self, ptx_src: &str) -> Result<()> {
        let hal = self.state.hal(self.drv);
        // Dual-ABI load. The *callable* copy — what gets installed on the
        // device and what out-of-line `JCAL`s execute — compiles under the
        // standard ABI, so its epilogue restores every callee-saved
        // register. The same parse is compiled again under the *scratch*
        // ABI (no prologue, every register fair game): that body is what
        // the planner classifies, the inline pass splices and the pressure
        // cost model prices, since a splice runs inside a trampoline that
        // already saved the site's registers.
        let ast = ptx::parse_module(ptx_src)?;
        let module = ptx::compile_ast(&ast, hal.arch())?;
        let scratch_mod = ptx::compile_ast_abi(&ast, hal.arch(), ptx::Abi::Scratch).ok();
        for f in &module.functions {
            if !f.relocs.is_empty() {
                return Err(NvbitError::BadRequest(format!(
                    "tool function `{}` calls other functions, which is unsupported",
                    f.name
                )));
            }
            // Paper §7: injected functions may not use shared (or constant)
            // memory — the application may be using all of it.
            if f.shared_size > 0 {
                return Err(NvbitError::BadRequest(format!(
                    "tool function `{}` declares shared memory, which instrumentation                      functions may not use (the application owns it)",
                    f.name
                )));
            }
            let addr = self.drv.with_device(|d| -> gpu::Result<u64> {
                let a = d.alloc(f.code.len().max(1) as u64)?;
                d.write(a, &f.code)?;
                d.label_code(a, f.code.len() as u64, &f.name);
                Ok(a)
            })?;
            // Retain the decoded bodies so the planner can classify leaves
            // (precise clobber ceilings, inline candidates) and the verifier
            // can compare inlined splices against the loaded function.
            let body = hal.disassemble(&f.code)?;
            let scratch =
                scratch_mod.as_ref().and_then(|m| m.functions.iter().find(|s| s.name == f.name));
            let tool_fn = match scratch {
                Some(s) => {
                    let scratch_body = hal.disassemble(&s.code)?;
                    ToolFn::dual_abi(
                        addr,
                        (f.reg_count, f.stack_size, &body),
                        (s.reg_count, s.stack_size, scratch_body),
                        f.uses_reg_api,
                        hal.arch(),
                    )
                }
                // No scratch compile (the function calls others): classify
                // the standard body — such bodies are never spliceable.
                None => ToolFn::with_body(
                    addr,
                    f.reg_count,
                    f.stack_size,
                    f.uses_reg_api,
                    body,
                    hal.arch(),
                ),
            };
            self.state.tool_fns.write().unwrap().insert(f.name.clone(), tool_fn);
        }
        Ok(())
    }

    /// The loaded tool functions (name → device address).
    pub fn tool_functions(&self) -> Vec<String> {
        let mut v: Vec<String> = self.state.tool_fns.read().unwrap().keys().cloned().collect();
        v.sort();
        v
    }

    // ----- Inspection API (paper Listing 3/4) ------------------------------

    /// All instructions of a function, in program order (`nvbit_get_instrs`).
    ///
    /// # Errors
    ///
    /// Driver/decode failures.
    pub fn get_instrs(&self, func: CuFunction) -> Result<Vec<Instr>> {
        let lifted = self.state.lifted_for(self.drv, func)?;
        Ok(lifted.instrs.clone())
    }

    /// Basic blocks as instruction-index ranges, or `None` when indirect
    /// control flow forces the flat view (`nvbit_get_basic_blocks` and the
    /// paper's ICF exception).
    ///
    /// # Errors
    ///
    /// Driver/decode failures.
    pub fn get_basic_blocks(&self, func: CuFunction) -> Result<Option<Vec<sass::cfg::BasicBlock>>> {
        let lifted = self.state.lifted_for(self.drv, func)?;
        Ok(lifted.analysis.as_ref().ok().map(|a| a.blocks.clone()))
    }

    /// Why static CFG partitioning failed for the function, if it did —
    /// the structured diagnostic behind a `None` from
    /// [`NvbitApi::get_basic_blocks`].
    ///
    /// # Errors
    ///
    /// Driver/decode failures.
    pub fn get_cfg_failure(&self, func: CuFunction) -> Result<Option<sass::CfgFailure>> {
        let lifted = self.state.lifted_for(self.drv, func)?;
        Ok(lifted.analysis.as_ref().err().cloned())
    }

    /// General-purpose registers live into instruction `idx` of `func`, in
    /// ascending order, from the static dataflow analysis (paper §5.1's
    /// "registers used by the function" made per-instruction). `None` when
    /// indirect control flow defeats the analysis.
    ///
    /// # Errors
    ///
    /// [`NvbitError::BadInstrIndex`] for an out-of-range index;
    /// driver/decode failures.
    pub fn get_live_regs(&self, func: CuFunction, idx: usize) -> Result<Option<Vec<u8>>> {
        let lifted = self.state.lifted_for(self.drv, func)?;
        if idx >= lifted.instrs.len() {
            return Err(NvbitError::BadInstrIndex { index: idx, len: lifted.instrs.len() });
        }
        Ok(lifted.analysis.as_ref().ok().map(|a| a.liveness.live_regs(idx)))
    }

    /// Functions the given function may call (`nvbit_get_related_funcs`).
    ///
    /// # Errors
    ///
    /// Invalid handle.
    pub fn get_related_funcs(&self, func: CuFunction) -> Result<Vec<CuFunction>> {
        Ok(self.drv.function_info(func)?.related)
    }

    /// The function's name (`nvbit_get_func_name`).
    ///
    /// # Errors
    ///
    /// Invalid handle.
    pub fn get_func_name(&self, func: CuFunction) -> Result<String> {
        Ok(self.drv.function_info(func)?.name)
    }

    /// Whether the function comes from a pre-compiled library module.
    ///
    /// # Errors
    ///
    /// Invalid handle.
    pub fn is_library_function(&self, func: CuFunction) -> Result<bool> {
        Ok(self.drv.function_info(func)?.library)
    }

    // ----- Instrumentation API (paper Listing 5) ---------------------------

    /// Injects a call to tool function `fname` before/after instruction
    /// `idx` of `func` (`nvbit_insert_call`). Multiple injections at the
    /// same site run in insertion order.
    ///
    /// # Errors
    ///
    /// Unknown function name or out-of-range index (validated lazily at
    /// code generation; eagerly checked when possible).
    pub fn insert_call(
        &self,
        func: CuFunction,
        idx: usize,
        fname: &str,
        ipoint: IPoint,
    ) -> Result<()> {
        if !self.state.tool_fns.read().unwrap().contains_key(fname) {
            return Err(NvbitError::UnknownToolFunction(fname.to_string()));
        }
        let raw = func.raw();
        self.state
            .shard(raw)
            .lock()
            .unwrap()
            .entry(raw)
            .or_insert_with(|| FuncEntry::new(func))
            .spec
            .insert_call(idx, fname, ipoint);
        Ok(())
    }

    /// Appends an argument to the most recent injection at the site
    /// (`nvbit_add_call_arg*`).
    ///
    /// # Errors
    ///
    /// [`NvbitError::BadRequest`] when no call was inserted at the site.
    pub fn add_call_arg(&self, func: CuFunction, idx: usize, arg: Arg) -> Result<()> {
        let raw = func.raw();
        let mut shard = self.state.shard(raw).lock().unwrap();
        if shard.get_mut(&raw).is_some_and(|entry| entry.spec.add_arg(idx, arg)) {
            Ok(())
        } else {
            Err(NvbitError::BadRequest(format!(
                "add_call_arg before insert_call at instruction {idx}"
            )))
        }
    }

    /// Convenience: pass the evaluated guard predicate.
    ///
    /// # Errors
    ///
    /// See [`NvbitApi::add_call_arg`].
    pub fn add_call_arg_guard_pred(&self, func: CuFunction, idx: usize) -> Result<()> {
        self.add_call_arg(func, idx, Arg::GuardPred)
    }

    /// Convenience: pass a register value.
    ///
    /// # Errors
    ///
    /// See [`NvbitApi::add_call_arg`].
    pub fn add_call_arg_reg_val(&self, func: CuFunction, idx: usize, reg: u8) -> Result<()> {
        self.add_call_arg(func, idx, Arg::RegVal(reg))
    }

    /// Convenience: pass a 64-bit register-pair value.
    ///
    /// # Errors
    ///
    /// See [`NvbitApi::add_call_arg`].
    pub fn add_call_arg_reg_val64(&self, func: CuFunction, idx: usize, reg: u8) -> Result<()> {
        self.add_call_arg(func, idx, Arg::RegVal64(reg))
    }

    /// Convenience: pass a 32-bit immediate.
    ///
    /// # Errors
    ///
    /// See [`NvbitApi::add_call_arg`].
    pub fn add_call_arg_imm32(&self, func: CuFunction, idx: usize, v: i32) -> Result<()> {
        self.add_call_arg(func, idx, Arg::Imm32(v))
    }

    /// Convenience: pass a 64-bit immediate (e.g. a tool counter address).
    ///
    /// # Errors
    ///
    /// See [`NvbitApi::add_call_arg`].
    pub fn add_call_arg_imm64(&self, func: CuFunction, idx: usize, v: u64) -> Result<()> {
        self.add_call_arg(func, idx, Arg::Imm64(v))
    }

    /// Enables predicate filtering on the most recent injection at the
    /// site: lanes whose guard predicate is false skip the injected
    /// function entirely instead of entering it and returning early — the
    /// finer-grained thread selection the paper's §7 sketches as future
    /// work. No-op for unguarded instructions. Warp-level intrinsics inside
    /// the tool function then observe only the guard-true lanes.
    ///
    /// # Errors
    ///
    /// [`NvbitError::BadRequest`] when no call was inserted at the site.
    pub fn set_pred_filter(&self, func: CuFunction, idx: usize) -> Result<()> {
        let raw = func.raw();
        let mut shard = self.state.shard(raw).lock().unwrap();
        if shard.get_mut(&raw).is_some_and(|entry| entry.spec.set_pred_filter(idx)) {
            Ok(())
        } else {
            Err(NvbitError::BadRequest(format!(
                "set_pred_filter before insert_call at instruction {idx}"
            )))
        }
    }

    /// Marks the most recent injection at the site as coalescible: the
    /// planner may merge identical such injections within a basic block
    /// into a single call carrying a multiplicity argument. The injection
    /// enters the *multiplicity protocol* — the tool function receives one
    /// extra trailing `u32` argument (1 when unmerged, N when the call
    /// stands for N sites), whether or not merging actually happens, so
    /// plans built with coalescing on and off stay behaviourally identical.
    /// Only injections whose explicit arguments are all block-invariant
    /// (immediates and constant-bank reads) and that carry no predicate
    /// filter are eligible for merging.
    ///
    /// # Errors
    ///
    /// [`NvbitError::BadRequest`] when no call was inserted at the site.
    pub fn set_coalesce(&self, func: CuFunction, idx: usize) -> Result<()> {
        let raw = func.raw();
        let mut shard = self.state.shard(raw).lock().unwrap();
        if shard.get_mut(&raw).is_some_and(|entry| entry.spec.set_coalesce(idx)) {
            Ok(())
        } else {
            Err(NvbitError::BadRequest(format!(
                "set_coalesce before insert_call at instruction {idx}"
            )))
        }
    }

    /// Removes the original instruction at the site (`nvbit_remove_orig`) —
    /// the relocated original becomes a `NOP`, enabling instruction
    /// emulation (paper §6.3).
    ///
    /// # Errors
    ///
    /// Range errors surface at code generation.
    pub fn remove_orig(&self, func: CuFunction, idx: usize) -> Result<()> {
        let raw = func.raw();
        self.state
            .shard(raw)
            .lock()
            .unwrap()
            .entry(raw)
            .or_insert_with(|| FuncEntry::new(func))
            .spec
            .remove_orig(idx);
        Ok(())
    }

    // ----- Control API (paper Listing 6) -----------------------------------

    /// Selects whether the next launches of `func` run the instrumented or
    /// original version (`nvbit_enable_instrumented`) — the sampling switch
    /// of §6.2. With the version already cached, the swap costs one memcpy
    /// of the function's code. A no-op for functions that were never
    /// instrumented (no spec and no image): no phantom state is created.
    ///
    /// # Errors
    ///
    /// Driver failures during an immediate swap.
    pub fn enable_instrumented(&self, func: CuFunction, enable: bool) -> Result<()> {
        let raw = func.raw();
        {
            let mut shard = self.state.shard(raw).lock().unwrap();
            match shard.get_mut(&raw) {
                Some(entry) if !entry.spec.is_empty() || !entry.images.is_empty() => {
                    entry.desired = if enable { Version::Instrumented } else { Version::Original };
                }
                _ => return Ok(()),
            }
        }
        // Reconcile now (builds the image first if needed, so callees that
        // are never launched still get their code swapped in).
        self.state.apply_one(self.drv, func)
    }

    /// Discards instrumentation of `func`: restores the original code,
    /// clears the local-memory override, frees the trampolines of *every*
    /// cached version and drops the spec (`nvbit_reset_instrumented`).
    ///
    /// Cleanup runs to completion even when a step fails; the first
    /// failure is returned afterwards, and trampoline-free failures are
    /// additionally counted on `tramp.free_fail`.
    ///
    /// # Errors
    ///
    /// The first driver failure encountered while restoring.
    pub fn reset_instrumented(&self, func: CuFunction) -> Result<()> {
        let raw = func.raw();
        let Some(entry) = self.state.shard(raw).lock().unwrap().remove(&raw) else {
            return Ok(());
        };
        let mut first_err: Option<NvbitError> = None;
        if !entry.images.is_empty() {
            if let Ok(info) = self.drv.function_info(func) {
                if let Some(img) = entry.current.and_then(|c| entry.images.get(&c)) {
                    if let Err(e) = self.drv.with_device(|d| d.write(info.addr, &img.original)) {
                        first_err.get_or_insert(e.into());
                    }
                }
                // Always reset the override once any image existed — even
                // when the original version happens to be installed.
                if let Err(e) = self.drv.set_local_override(func, 0) {
                    first_err.get_or_insert(e.into());
                }
            }
        }
        for img in entry.images.values() {
            if let Err(e) = self.drv.with_device(|d| d.free(img.tramp_addr)) {
                common::obs::counter("tramp.free_fail", 1);
                first_err.get_or_insert(e.into());
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Selects how injection-site register saves are sized for subsequent
    /// image builds: liveness-driven per-site tiers (the default) or the
    /// conservative whole-function tier. Images are cached per
    /// (spec, policy) version, so flipping the policy back and forth swaps
    /// between already-built images without re-running code generation.
    pub fn set_save_policy(&self, policy: SavePolicy) {
        *self.state.save_policy.lock().unwrap() = policy;
    }

    /// Selects how far up the [`crate::plan::PlanLevel`] ladder subsequent
    /// image builds climb (the top rung by default). Images are cached per
    /// (spec, policy, plan options) version, so flipping options swaps
    /// between already-built images without re-running code generation.
    pub fn set_plan_opts(&self, opts: PlanOpts) {
        *self.state.plan_opts.lock().unwrap() = opts;
    }

    /// The plan-pass options currently in force.
    pub fn plan_opts(&self) -> PlanOpts {
        *self.state.plan_opts.lock().unwrap()
    }

    /// Sets the number of worker threads batch instrumentation may use
    /// (0 = one per available hardware thread, the default; also
    /// configurable with the `NVBIT_JIT_WORKERS` environment variable).
    /// Whatever the count, parallel builds produce images bit-identical
    /// to a serial build.
    pub fn set_jit_workers(&self, workers: usize) {
        self.state.jit_workers.store(workers, Ordering::Relaxed);
    }

    /// Statically verifies the instrumented image of `func`, generating it
    /// first if none is cached for the present (spec, policy). Returns the
    /// verifier's diagnostics — an empty vector means the image is safe to
    /// swap in. (The core runs the same checks before every swap; this
    /// surfaces them to tools.)
    ///
    /// # Errors
    ///
    /// Driver/codegen failures; a verification *failure* is reported
    /// through the returned diagnostics, not as an error.
    pub fn verify_instrumented(&self, func: CuFunction) -> Result<Vec<Diagnostic>> {
        match self.state.apply_one(self.drv, func) {
            Ok(()) => {}
            Err(NvbitError::VerifyFailed(diags)) => return Ok(diags),
            Err(e) => return Err(e),
        }
        let policy = *self.state.save_policy.lock().unwrap();
        let opts = self.state.resolved_opts();
        let raw = func.raw();
        let image = {
            let mut shard = self.state.shard(raw).lock().unwrap();
            let Some(entry) = shard.get_mut(&raw) else { return Ok(Vec::new()) };
            let key = entry.key(policy, opts);
            match entry.images.get(&key) {
                Some(img) => img.clone(),
                None => return Ok(Vec::new()),
            }
        };
        let hal = self.state.hal(self.drv);
        let info = self.drv.function_info(func)?;
        let ext = self.state.external_code(self.drv, &info);
        verify::verify(&hal, info.addr, &image, &ext)
    }

    /// Register-save accounting for the instrumented image of `func`
    /// (generated first if none is cached for the present spec and
    /// policy): `None` when the function has no instrumentation.
    ///
    /// # Errors
    ///
    /// Driver/codegen/verification failures during generation.
    pub fn save_stats(&self, func: CuFunction) -> Result<Option<SaveStats>> {
        self.state.apply_one(self.drv, func)?;
        let policy = *self.state.save_policy.lock().unwrap();
        let opts = self.state.resolved_opts();
        let raw = func.raw();
        let mut shard = self.state.shard(raw).lock().unwrap();
        let Some(entry) = shard.get_mut(&raw) else { return Ok(None) };
        let key = entry.key(policy, opts);
        Ok(entry.images.get(&key).map(|img| SaveStats {
            saved_slots: img.saved_slots,
            full_tier_slots: img.full_tier_slots,
            max_tier: img.tier,
            sites: img.sites.len(),
            fallback: img.fallback.clone(),
        }))
    }

    /// Plan-pass accounting for the instrumented image of `func`
    /// (generated first if none is cached for the present spec, policy and
    /// plan options): how many requested calls the coalescing pass merged
    /// away and how many emitted calls were inlined. `None` when the
    /// function has no instrumentation.
    ///
    /// # Errors
    ///
    /// Driver/codegen/verification failures during generation.
    pub fn plan_stats(&self, func: CuFunction) -> Result<Option<PlanStats>> {
        self.state.apply_one(self.drv, func)?;
        let policy = *self.state.save_policy.lock().unwrap();
        let opts = self.state.resolved_opts();
        let raw = func.raw();
        let mut shard = self.state.shard(raw).lock().unwrap();
        let Some(entry) = shard.get_mut(&raw) else { return Ok(None) };
        let key = entry.key(policy, opts);
        Ok(entry.images.get(&key).map(|img| img.plan))
    }

    /// True if the function currently has a generated instrumented image
    /// or a pending instrumentation request.
    pub fn is_instrumented(&self, func: CuFunction) -> bool {
        let raw = func.raw();
        self.state
            .shard(raw)
            .lock()
            .unwrap()
            .get(&raw)
            .map(|e| !e.images.is_empty() || !e.spec.is_empty())
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    // The end-to-end behaviour of the core is exercised by the crate's
    // integration tests (`tests/instrumentation.rs`, `tests/version_cache.rs`,
    // `tests/module_unload.rs`), which require the full driver + device
    // stack; unit coverage of the pieces lives in the sibling modules.
}
