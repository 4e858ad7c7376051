//! The NVBit core: driver interposition, tool dispatch, state management
//! and the user-level API handed to tools.
//!
//! # Single-owner core
//!
//! The core runs on the application's host thread, inside driver
//! callbacks, and `CoreState` has exactly one owner: [`NvbitCore`].
//! [`NvbitApi`] lends it to the tool by shared reference, so every field
//! an API method can change is a `Cell`/`RefCell` — only because those
//! methods take `&self` — and no borrow of one is ever alive while a tool
//! callback runs or across a call back into the API.
//!
//! # What a launch builds
//!
//! A function's image is built by `CoreState::build`, straight through on
//! that thread (paper §5.1): lift → plan → load the save/restore routines,
//! once per driver and only for a plan that calls out of line → emit →
//! allocate the body → place and link → verify → upload → cache.
//! Each step is one recorder span (`plan`, `routines`, `codegen`, `finish`,
//! `verify`, `upload`) under the build's `instrument`. It runs at the entry of a
//! launch for the launched function and every function reachable from it
//! through [`cuda::FunctionInfo::related`] that carries a request, in
//! ascending handle order, and from the API calls that need the image at
//! once ([`NvbitApi::enable_instrumented`], and `verify_instrumented`,
//! `save_stats`, `plan_stats`, which report on it) — never because some
//! unrelated function is launched.
//!
//! # The code cache
//!
//! Per function the core keeps the paper's pair (§5.1 Code
//! Loader/Unloader): the original, read and lifted once ([`Lifted`] owns
//! the pristine bytes), and at most one instrumented image of the same
//! size with the [`SavePolicy`] and [`PlanOpts`] it was built under.
//! Flipping `enable_instrumented` swaps between the two by one memcpy
//! (§6.2) and never re-runs codegen. The image is *stale* once the request
//! was edited or a tool function it calls reloaded ([`FuncSpec::dirty`]),
//! or either setting has moved; the next build replaces it — new image from
//! the original's bytes, old body freed — so a function owns one relocated
//! body however often it is re-instrumented. `cuModuleUnload` evicts every
//! entry of the dying module and frees its bodies, so a
//! recycled handle can never be served a stale lifted image.

use crate::codegen::{prepare, InstrumentedImage, SavePolicy, ToolFn, ToolFns};
use crate::hal::Hal;
use crate::instr::Instr;
use crate::lift::{lift, Lifted};
use crate::plan::{self, InstrumentationPlan, Lowering, PlanOpts, PlanStats};
use crate::saverestore::{restore_text, save_text, Routines, TIERS};
use crate::spec::{Arg, FuncSpec, IPoint};
use crate::verify::{self, Diagnostic, Request};
use crate::{NvbitError, Result};
use cuda::{CbId, CbParams, CuContext, CuFunction, CuModule, Driver, Interposer};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::Arc;

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

/// Whether a function currently runs its original or instrumented version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Version {
    Original,
    #[default]
    Instrumented,
}

/// Per-function code-cache entry: the original and at most one
/// instrumented image of it (see the module docs).
#[derive(Default)]
struct FuncEntry {
    /// The original, set before any image is built or installed.
    lifted: Option<Arc<Lifted>>,
    spec: FuncSpec,
    /// The instrumented image with the settings it was built under, kept
    /// until replaced or reset/unload (paper Figure 5: amortization; §6.2:
    /// O(memcpy) sampling switches).
    image: Option<(InstrumentedImage, SavePolicy, PlanOpts)>,
    /// What the tool asked for (`enable_instrumented`). Defaults to
    /// instrumented once instrumentation exists, like NVBit.
    desired: Version,
    /// Body address of the image whose bytes sit at the function's
    /// code address (`None` = the original code). A replaced image's region
    /// is not its successor's, so what it left installed reads as neither
    /// version and `reconcile` writes over it.
    installed: Option<u64>,
}

impl FuncEntry {
    /// True if the function has a pending instrumentation request or a
    /// generated image.
    fn tracked(&self) -> bool {
        !self.spec.is_empty() || self.image.is_some()
    }

    /// The original, read from the device and lifted on first use.
    fn lifted(&mut self, drv: &Driver, func: CuFunction) -> Result<Arc<Lifted>> {
        if let Some(l) = &self.lifted {
            common::obs::counter("lift_cache.hit", 1);
            return Ok(l.clone());
        }
        common::obs::counter("lift_cache.miss", 1);
        let _span = common::obs::span("lift");
        let code = drv.read_code(func)?;
        let lifted = drv.with_function_info(func, |info| lift(&hal_of(drv), info, &code))??;
        Ok(self.lifted.insert(Arc::new(lifted)).clone())
    }
}

/// The code-cache entries by function handle. The driver issues handles as
/// dense slots of one object table, so a handle indexes this one and no
/// lookup hashes it; a slot no function holds an entry in holds the empty
/// entry.
#[derive(Default)]
struct Funcs(Vec<FuncEntry>);

impl Funcs {
    fn get(&self, func: CuFunction) -> Option<&FuncEntry> {
        self.0.get(func.raw() as usize)
    }

    fn get_mut(&mut self, func: CuFunction) -> Option<&mut FuncEntry> {
        self.0.get_mut(func.raw() as usize)
    }

    /// `func`'s entry, the table grown to hold it.
    fn entry(&mut self, func: CuFunction) -> &mut FuncEntry {
        let slot = func.raw() as usize;
        if slot >= self.0.len() {
            self.0.resize_with(slot + 1, FuncEntry::default);
        }
        &mut self.0[slot]
    }

    /// Takes `func`'s entry out, leaving the empty one.
    fn remove(&mut self, func: CuFunction) -> Option<FuncEntry> {
        self.get_mut(func).map(std::mem::take)
    }
}

/// The hardware abstraction layer of `drv`'s device.
fn hal_of(drv: &Driver) -> Hal {
    Hal::new(drv.arch())
}

/// Frees an image's relocated body, counting `tramp.free_fail` when the
/// device refuses.
fn free_body(drv: &Driver, body_addr: u64) -> gpu::Result<()> {
    let freed = drv.with_device(|d| d.free(body_addr));
    if freed.is_err() {
        common::obs::counter("tramp.free_fail", 1);
    }
    freed
}

/// The core's state: owned by [`NvbitCore`], lent to the tool through
/// [`NvbitApi`] (see the module docs for the borrow rule).
#[derive(Default)]
pub(crate) struct CoreState {
    tool_fns: RefCell<ToolFns>,
    routines: RefCell<HashMap<u16, Routines>>,
    /// Per-function code-cache entries.
    funcs: RefCell<Funcs>,
    save_policy: Cell<SavePolicy>,
    plan_opts: Cell<PlanOpts>,
}

impl CoreState {
    /// True if `func` has an entry and it is [`FuncEntry::tracked`].
    fn tracked(&self, func: CuFunction) -> bool {
        self.funcs.borrow().get(func).is_some_and(FuncEntry::tracked)
    }

    /// Reads `func`'s pair, if it has an image.
    fn with_image<R>(
        &self,
        func: CuFunction,
        read: impl FnOnce(&Lifted, &InstrumentedImage) -> R,
    ) -> Option<R> {
        let entries = self.funcs.borrow();
        let entry = entries.get(func)?;
        Some(read(entry.lifted.as_deref()?, &entry.image.as_ref()?.0))
    }

    /// Applies `edit` to the most recent injection at a site of `func`;
    /// `api` names the caller in the error when there is none.
    fn edit_site(
        &self,
        func: CuFunction,
        idx: usize,
        api: &str,
        edit: impl FnOnce(&mut FuncSpec) -> bool,
    ) -> Result<()> {
        if self.funcs.borrow_mut().get_mut(func).is_some_and(|e| edit(&mut e.spec)) {
            Ok(())
        } else {
            Err(NvbitError::BadRequest(format!("{api} before insert_call at instruction {idx}")))
        }
    }

    /// The pre-swap verifier's findings on `image` of `func`, checked
    /// against `plan`, the plan it was built from over `lifted`, with the
    /// tool functions and routines as loaded.
    fn verify(
        &self,
        drv: &Driver,
        func: CuFunction,
        (lifted, plan): (&Lifted, &InstrumentationPlan),
        image: &InstrumentedImage,
    ) -> Result<Vec<Diagnostic>> {
        let _span = common::obs::span("verify");
        let addr = drv.with_function_info(func, |info| info.addr)?;
        let (tool_fns, routines) = (self.tool_fns.borrow(), self.routines.borrow());
        let req = Request { tool_fns: &tool_fns, routines: &routines };
        verify::verify(&hal_of(drv), addr, lifted, plan, image, &req)
    }

    /// Loads the embedded save/restore routines on first use (Tool
    /// Functions Loader, the `libnvbit.a`-embedded part): the first build
    /// whose plan calls out of line. Built fully before publication, so a
    /// failure leaves the table empty and a retry starts clean.
    fn ensure_routines(&self, drv: &Driver) -> Result<()> {
        if !self.routines.borrow().is_empty() {
            return Ok(());
        }
        common::obs::counter("routines.load", 1);
        let hal = hal_of(drv);
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
        *self.routines.borrow_mut() = built;
        Ok(())
    }

    /// Lifts (and caches) a function.
    fn lifted_for(&self, drv: &Driver, func: CuFunction) -> Result<Arc<Lifted>> {
        self.funcs.borrow_mut().entry(func).lifted(drv, func)
    }

    /// Builds and verifies `func`'s image and puts it in place of the one
    /// it has, unless it has no request or its image is not stale: the
    /// paper's §5.1 pipeline, straight through on the driver thread.
    fn build(&self, drv: &Driver, func: CuFunction) -> Result<()> {
        let (policy, opts) = (self.save_policy.get(), self.plan_opts.get());
        // Held to the end: nothing below runs a tool callback or calls back
        // into the API, and the build borrows the entry's spec, lifted view
        // and pristine bytes instead of copying them.
        let mut entries = self.funcs.borrow_mut();
        let Some(entry) = entries.get_mut(func) else { return Ok(()) };
        if entry.spec.is_empty() {
            return Ok(());
        }
        let built_under = entry.image.as_ref().map(|(_, policy, opts)| (*policy, *opts));
        if !entry.spec.dirty && built_under == Some((policy, opts)) {
            // The code-cache reuse the paper's Figure 5 amortization
            // depends on.
            common::obs::counter("instr_image.reuse", 1);
            return Ok(());
        }
        let hal = hal_of(drv);
        let (name, addr) = drv.with_function_info(func, |i| (i.name.clone(), i.addr))?;

        let _span = common::obs::span("instrument");
        common::obs::counter("instr_image.build", 1);
        // The code at the function's address may be an instrumented version;
        // every image is built from the original the entry read first.
        let lifted = entry.lifted(drv, func)?;
        let tool_fns = self.tool_fns.borrow();
        // Lower the spec into the plan IR, running the coalescing and
        // inlining passes the options select.
        let plan = {
            let _pspan = common::obs::span("plan");
            let plan = plan::build(&entry.spec, &lifted, hal.arch(), &tool_fns, opts)?;
            // Why static CFG recovery fell back, counted here and not in the
            // planner, which `verify_instrumented` runs again.
            match &lifted.analysis {
                Err(sass::CfgFailure::IndirectBranch { .. }) => {
                    common::obs::counter("plan.cfg_fail.brx", 1)
                }
                Err(sass::CfgFailure::MisalignedTarget { .. }) => {
                    common::obs::counter("plan.cfg_fail.misaligned", 1)
                }
                Ok(_) => {}
            }
            common::obs::counter("plan.coalesced_away", plan.stats.coalesced_away);
            common::obs::counter("plan.region_groups", plan.stats.region_groups);
            common::obs::counter("plan.splice.declined", plan.stats.inline_declined);
            common::obs::counter("plan.promoted_calls", plan.stats.promoted_calls);
            common::obs::counter("plan.promoted_pairs", plan.stats.promoted_pairs);
            plan
        };
        // Only an out-of-line call reaches the save/restore routines.
        if plan.sites.values().flatten().any(|c| c.lowering == Lowering::Call) {
            let _rspan = common::obs::span("routines");
            self.ensure_routines(drv)?;
        }
        let routines = self.routines.borrow();
        // The body is emitted position-independently first, so an emission
        // error has allocated nothing.
        let prepared = {
            let _cspan = common::obs::span("codegen");
            drv.with_function_info(func, |info| {
                prepare(&hal, info, &lifted, &plan, &tool_fns, &routines, policy)
            })??
        };
        let fspan = common::obs::span("finish");
        let body_addr = drv.with_device(|d| d.alloc(prepared.body_bytes))?;
        // From here on the region is either owned by the entry's image or
        // given back: place and link, then pre-swap verification — a bad
        // image corrupts the application, so one with findings is refused —
        // then upload, the body labelled with where each word comes from.
        let placed = (|| -> Result<InstrumentedImage> {
            let mut image = prepared.finish(&hal, &lifted, &plan.removed, (addr, body_addr))?;
            drop(fspan);
            let diags = self.verify(drv, func, (&lifted, &plan), &image)?;
            if !diags.is_empty() {
                common::obs::counter("instr_image.verify_reject", 1);
                return Err(NvbitError::VerifyFailed(diags));
            }
            let _uspan = common::obs::span("upload");
            drv.with_device(|d| -> gpu::Result<()> {
                d.write(body_addr, &image.body_code)?;
                d.label_body(body_addr, &name, addr, std::mem::take(&mut image.origin));
                Ok(())
            })?;
            Ok(image)
        })();
        match placed {
            Ok(image) => {
                entry.spec.dirty = false;
                // One body per function: the stale image's goes (a failure
                // counts on `tramp.free_fail`, costing the region, not the build).
                if let Some((stale, ..)) = entry.image.replace((image, policy, opts)) {
                    let _ = free_body(drv, stale.body_addr);
                }
                Ok(())
            }
            Err(e) => {
                let _ = free_body(drv, body_addr);
                Err(e)
            }
        }
    }

    /// Installs the version the tool asked for, when it differs from what
    /// is at the function's code address: one memcpy plus the local-memory
    /// override (paper §6.2).
    fn reconcile(&self, drv: &Driver, func: CuFunction) -> Result<()> {
        let mut entries = self.funcs.borrow_mut();
        let Some(entry) = entries.get_mut(func) else { return Ok(()) };
        let (Some(lifted), Some((image, ..))) = (&entry.lifted, &entry.image) else {
            return Ok(());
        };
        let target = (entry.desired == Version::Instrumented).then_some(image.body_addr);
        if entry.installed == target {
            return Ok(());
        }
        let addr = drv.with_function_info(func, |i| i.addr)?;
        let _swap_span = common::obs::span("swap");
        let (code, extra_local) = match target {
            Some(_) => (&image.instrumented, image.extra_local),
            None => (&lifted.code, 0),
        };
        drv.with_device(|d| d.write(addr, code))?;
        drv.set_local_override(func, extra_local)?;
        entry.installed = target;
        Ok(())
    }

    /// Brings `func` to the version the tool asked for, building its image
    /// first when it has none or a stale one.
    fn apply_one(&self, drv: &Driver, func: CuFunction) -> Result<()> {
        self.build(drv, func)?;
        self.reconcile(drv, func)
    }

    /// Drops a function's entry: restores the original code, clears the
    /// local-memory override and frees the image's body. Cleanup
    /// runs to completion even when a step fails; the first failure is
    /// returned afterwards.
    fn reset(&self, drv: &Driver, func: CuFunction) -> Result<()> {
        let Some(entry) = self.funcs.borrow_mut().remove(func) else {
            return Ok(());
        };
        let (Some(lifted), Some((image, ..))) = (entry.lifted, entry.image) else {
            return Ok(());
        };
        let mut first_err: Option<NvbitError> = None;
        if let Ok(addr) = drv.with_function_info(func, |i| i.addr) {
            if entry.installed.is_some() {
                if let Err(e) = drv.with_device(|d| d.write(addr, &lifted.code)) {
                    first_err.get_or_insert(e.into());
                }
            }
            // Always reset the override once an image existed — even when
            // the original version happens to be installed.
            if let Err(e) = drv.set_local_override(func, 0) {
                first_err.get_or_insert(e.into());
            }
        }
        if let Err(e) = free_body(drv, image.body_addr) {
            first_err.get_or_insert(e.into());
        }
        first_err.map_or(Ok(()), Err)
    }

    /// `cuModuleUnload` entry: evicts every cached entry of the dying
    /// module and frees their bodies. Runs while the module is still
    /// queryable; afterwards the driver recycles the handles, so anything
    /// left here would serve stale code to their next owner.
    fn evict_module(&self, drv: &Driver, module: &CuModule) {
        let Ok(funcs) = drv.module_functions(module) else { return };
        let mut lift_evicted = 0u64;
        let mut image_evicted = 0u64;
        for func in funcs {
            let Some(entry) = self.funcs.borrow_mut().remove(func) else { continue };
            lift_evicted += u64::from(entry.lifted.is_some());
            if let Some((image, ..)) = entry.image {
                image_evicted += 1;
                let _ = free_body(drv, image.body_addr);
            }
        }
        if lift_evicted > 0 {
            common::obs::counter("lift_cache.evict", lift_evicted);
        }
        if image_evicted > 0 {
            common::obs::counter("instr_image.evict", image_evicted);
        }
    }

    /// Launch-entry instrumentation, NVBit's `apply_to_related` rule: every
    /// tracked function of the launch [`unit`] is built and reconciled, in
    /// ascending handle order.
    fn instrument_for_launch(&self, drv: &Driver, func: CuFunction) {
        // With nothing ever tracked or lifted a launch costs one look at the
        // table: no `FunctionInfo` is read.
        if self.funcs.borrow().0.is_empty() {
            return;
        }
        for f in unit(drv, func).into_iter().flatten().filter(|f| self.tracked(*f)) {
            if let Err(e) = self.apply_one(drv, f) {
                // Instrumentation failures must not corrupt the
                // application; drop the request and keep the original.
                eprintln!("nvbit: instrumentation of {f} failed: {e}");
                let _ = self.reset(drv, f);
            }
        }
    }
}

/// What a launch of `func` runs: `func` and every function it can reach
/// ([`cuda::FunctionInfo::related`]), in ascending handle order.
fn unit(drv: &Driver, func: CuFunction) -> Result<impl Iterator<Item = CuFunction>> {
    let mut below = drv.with_function_info(func, |info| info.related.clone())?;
    let above = below.split_off(below.partition_point(|f| *f < func));
    Ok(below.into_iter().chain([func]).chain(above))
}

/// The NVBit core: installed as the driver's interposer; dispatches tool
/// callbacks and applies pending instrumentation at callback exits
/// (paper §5.1: "At the exit of the CUDA driver callback ... the Code
/// Generator begins functioning").
pub struct NvbitCore {
    tool: Box<dyn NvbitTool>,
    state: CoreState,
}

impl NvbitCore {
    /// Wraps a tool.
    pub fn new(tool: impl NvbitTool + 'static) -> NvbitCore {
        NvbitCore { tool: Box::new(tool), state: CoreState::default() }
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
                (CbId::LaunchKernel, CbParams::LaunchKernel { func, .. }) => {
                    self.state.instrument_for_launch(drv, *func);
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
    /// Σ slots stored per out-of-line call: its site's tier.
    pub saved_slots: u64,
    /// Slots the conservative whole-function tier would have saved.
    pub full_tier_slots: u64,
    /// Largest save tier used by any site (0: no save routine is called).
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
    state: &'a CoreState,
}

impl<'a> NvbitApi<'a> {
    /// The underlying driver (for memory management from host callbacks;
    /// calls made here do not re-trigger tool callbacks).
    pub fn driver(&self) -> &Driver {
        self.drv
    }

    /// The hardware abstraction layer of the current device.
    pub fn hal(&self) -> Hal {
        hal_of(self.drv)
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
        let hal = hal_of(self.drv);
        let module = ptx::compile_module(ptx_src, hal.arch())?;
        // Validate the whole module before anything is allocated or
        // registered: a rejected module must leave no function behind.
        let mut bodies = Vec::with_capacity(module.functions.len());
        for f in &module.functions {
            // The body the planner classifies for effect lowering: the
            // installed code without its callee-save bracket, whose own
            // writes decide what an out-of-line call can leave clobbered.
            let Some(body) = f.leaf_body() else {
                return Err(NvbitError::BadRequest(format!(
                    "tool function `{}` calls other functions, which is unsupported",
                    f.name
                )));
            };
            // Paper §7: injected functions may not use shared (or constant)
            // memory — the application may be using all of it.
            if f.shared_size > 0 {
                return Err(NvbitError::BadRequest(format!(
                    "tool function `{}` declares shared memory, which instrumentation \
                     functions may not use (the application owns it)",
                    f.name
                )));
            }
            bodies.push(body);
        }
        for (f, body) in module.functions.iter().zip(bodies) {
            let addr = self.drv.with_device(|d| -> gpu::Result<u64> {
                let a = d.alloc(f.code.len().max(1) as u64)?;
                d.write(a, &f.code)?;
                d.label_code(a, f.code.len() as u64, &f.name);
                Ok(a)
            })?;
            let (regs, stack, arch) = (f.reg_count, f.stack_size, hal.arch());
            let tool_fn = ToolFn::with_body(addr, regs, stack, f.uses_reg_api, body, arch);
            // A reload under a loaded name replaces the function and keeps its
            // id, and every image that calls it is stale (a new id no request
            // holds); the code at its old address stays where it is.
            let id = self.state.tool_fns.borrow_mut().insert(&f.name, tool_fn);
            for entry in &mut self.state.funcs.borrow_mut().0 {
                entry.spec.dirty |= entry.spec.injections().iter().any(|c| c.func == id);
            }
        }
        Ok(())
    }

    /// The names of the loaded tool functions, sorted.
    pub fn tool_functions(&self) -> Vec<String> {
        let mut v = self.state.tool_fns.borrow().names.clone();
        v.sort();
        v
    }

    // ----- Inspection API (paper Listing 3/4) ------------------------------

    /// All instructions of a function, in program order (`nvbit_get_instrs`):
    /// the views the core lifted once, shared.
    ///
    /// # Errors
    ///
    /// Driver/decode failures.
    pub fn get_instrs(&self, func: CuFunction) -> Result<Arc<[Instr]>> {
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
        let Ok(analysis) = &lifted.analysis else { return Ok(None) };
        Ok(Some(analysis.liveness(&lifted.instrs).live_regs(idx)))
    }

    /// Every function `func` can reach through calls, itself excluded, by
    /// handle (`nvbit_get_related_funcs`, [`cuda::FunctionInfo::related`]).
    ///
    /// # Errors
    ///
    /// Invalid handle.
    pub fn get_related_funcs(&self, func: CuFunction) -> Result<Vec<CuFunction>> {
        Ok(self.drv.with_function_info(func, |i| i.related.clone())?)
    }

    /// The function's name (`nvbit_get_func_name`).
    ///
    /// # Errors
    ///
    /// Invalid handle.
    pub fn get_func_name(&self, func: CuFunction) -> Result<String> {
        Ok(self.drv.with_function_info(func, |i| i.name.clone())?)
    }

    /// Whether the function comes from a pre-compiled library module.
    ///
    /// # Errors
    ///
    /// Invalid handle.
    pub fn is_library_function(&self, func: CuFunction) -> Result<bool> {
        Ok(self.drv.with_function_info(func, |i| i.library)?)
    }

    // ----- Instrumentation API (paper Listing 5) ---------------------------

    /// Injects a call to tool function `fname` before/after instruction
    /// `idx` of `func` (`nvbit_insert_call`). Multiple injections at the
    /// same site run in insertion order.
    ///
    /// The request takes effect when `func`'s image is next built: at the
    /// entry of the next launch of `func` or of a function it is reachable
    /// from through [`NvbitApi::get_related_funcs`] (this launch, when
    /// called from its entry callback), or at
    /// [`NvbitApi::enable_instrumented`]. A launch of an unrelated function
    /// builds nothing for `func`.
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
        let Some(id) = self.state.tool_fns.borrow().id(fname) else {
            return Err(NvbitError::UnknownToolFunction(fname.to_string()));
        };
        self.state.funcs.borrow_mut().entry(func).spec.insert_call(idx, id, ipoint);
        Ok(())
    }

    /// Appends an argument to the most recent injection at the site
    /// (`nvbit_add_call_arg*`).
    ///
    /// # Errors
    ///
    /// [`NvbitError::BadRequest`] when no call was inserted at the site.
    pub fn add_call_arg(&self, func: CuFunction, idx: usize, arg: Arg) -> Result<()> {
        self.state.edit_site(func, idx, "add_call_arg", |spec| spec.add_arg(idx, arg))
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

    /// Marks the most recent injection at the site as coalescible: the
    /// planner may merge identical such injections within a basic block
    /// into a single call carrying a multiplicity argument. The injection
    /// enters the *multiplicity protocol* — the tool function receives one
    /// extra trailing `u32` argument (1 when unmerged, N when the call
    /// stands for N sites), whether or not merging actually happens, so
    /// plans built with coalescing on and off stay behaviourally identical.
    /// Only injections whose explicit arguments are all block-invariant
    /// (immediates and constant-bank reads) are eligible for merging.
    ///
    /// # Errors
    ///
    /// [`NvbitError::BadRequest`] when no call was inserted at the site.
    pub fn set_coalesce(&self, func: CuFunction, idx: usize) -> Result<()> {
        self.state.edit_site(func, idx, "set_coalesce", |spec| spec.set_coalesce(idx))
    }

    /// Removes the original instruction at the site (`nvbit_remove_orig`) —
    /// the relocated original becomes a `NOP`, enabling instruction
    /// emulation (paper §6.3).
    ///
    /// # Errors
    ///
    /// Range errors surface at code generation.
    pub fn remove_orig(&self, func: CuFunction, idx: usize) -> Result<()> {
        self.state.funcs.borrow_mut().entry(func).spec.remove_orig(idx);
        Ok(())
    }

    // ----- Control API (paper Listing 6) -----------------------------------

    /// Selects whether the next launches of `func` run the instrumented or
    /// original version (`nvbit_enable_instrumented`) — the sampling switch
    /// of §6.2 — for `func` and every function it reaches, NVBit's
    /// `apply_to_related` default. Takes effect immediately for each of them
    /// that was instrumented: its image is built now if it has none, or one
    /// that the request, the save policy or the plan options have moved away
    /// from — which is how a tool pre-builds a function ahead of its launch
    /// — and otherwise the swap costs one memcpy of the function's code and
    /// no rebuild, in either direction. The others (no spec and no image)
    /// are left alone: no phantom state is created. A device function
    /// several kernels reach runs what the last call covering it asked for;
    /// a sampling tool calls this at every launch entry, so each launch runs
    /// its own kernel's choice throughout.
    ///
    /// # Errors
    ///
    /// Invalid handle; build (codegen, verification) failures, and driver
    /// failures during the swap.
    pub fn enable_instrumented(&self, func: CuFunction, enable: bool) -> Result<()> {
        let desired = if enable { Version::Instrumented } else { Version::Original };
        for f in unit(self.drv, func)? {
            match self.state.funcs.borrow_mut().get_mut(f) {
                Some(entry) if entry.tracked() => entry.desired = desired,
                _ => continue,
            }
            self.state.apply_one(self.drv, f)?;
        }
        Ok(())
    }

    /// Discards instrumentation of `func`: restores the original code,
    /// clears the local-memory override, frees the image's body and
    /// drops the spec (`nvbit_reset_instrumented`).
    ///
    /// Cleanup runs to completion even when a step fails; the first
    /// failure is returned afterwards, and body-free failures are
    /// additionally counted on `tramp.free_fail`.
    ///
    /// # Errors
    ///
    /// The first driver failure encountered while restoring.
    pub fn reset_instrumented(&self, func: CuFunction) -> Result<()> {
        self.state.reset(self.drv, func)
    }

    /// Selects how injection-site register saves are sized for subsequent
    /// image builds: liveness-driven per-site tiers (the default) or the
    /// conservative whole-function tier. A function keeps one image, so a
    /// changed policy makes the image it has stale: it is rebuilt under the
    /// new policy, and its body freed, when the function is
    /// next built — its own next launch (or one it is related to), not the
    /// next launch of anything. Set it once, before instrumenting; moving
    /// it back later costs another rebuild.
    pub fn set_save_policy(&self, policy: SavePolicy) {
        self.state.save_policy.set(policy);
    }

    /// Selects how far up the [`crate::plan::PlanLevel`] ladder subsequent
    /// image builds climb (the top rung by default). Takes effect per
    /// function, by a rebuild of the image it has, like
    /// [`NvbitApi::set_save_policy`].
    pub fn set_plan_opts(&self, opts: PlanOpts) {
        self.state.plan_opts.set(opts);
    }

    /// The plan-pass options currently in force.
    pub fn plan_opts(&self) -> PlanOpts {
        self.state.plan_opts.get()
    }

    /// Does nothing: images are built one function at a time on the
    /// application's thread (see the module docs), so there is no worker
    /// count to set. The name stays because the repository's frozen
    /// benchmark adapter calls it.
    pub fn set_jit_workers(&self, _workers: usize) {}

    /// Statically verifies the instrumented image of `func`, generating it
    /// first if it has none or a stale one. Returns the
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
        // Planned once, on the lift, under the options the image was built under.
        let entries = self.state.funcs.borrow();
        let Some(entry) = entries.get(func) else { return Ok(Vec::new()) };
        let (Some(lifted), Some((image, _, opts))) = (&entry.lifted, &entry.image) else {
            return Ok(Vec::new());
        };
        let (tool_fns, arch) = (self.state.tool_fns.borrow(), self.drv.arch());
        let plan = plan::build(&entry.spec, lifted, arch, &tool_fns, *opts)?;
        self.state.verify(self.drv, func, (lifted, &plan), image)
    }

    /// Register-save accounting for the instrumented image of `func`
    /// (generated first if it has none or a stale one): `None` when the
    /// function has no instrumentation.
    ///
    /// # Errors
    ///
    /// Driver/codegen/verification failures during generation.
    pub fn save_stats(&self, func: CuFunction) -> Result<Option<SaveStats>> {
        self.state.apply_one(self.drv, func)?;
        Ok(self.state.with_image(func, |_, img| SaveStats {
            saved_slots: img.saved_slots,
            full_tier_slots: img.full_tier_slots,
            max_tier: img.tier,
            sites: img.sites.len(),
            fallback: img.fallback.clone(),
        }))
    }

    /// Plan-pass accounting for the instrumented image of `func`
    /// (generated first if it has none or a stale one): how many requested calls the coalescing pass merged
    /// away and how many emitted calls were inlined. `None` when the
    /// function has no instrumentation.
    ///
    /// # Errors
    ///
    /// Driver/codegen/verification failures during generation.
    pub fn plan_stats(&self, func: CuFunction) -> Result<Option<PlanStats>> {
        self.state.apply_one(self.drv, func)?;
        Ok(self.state.with_image(func, |_, img| img.plan))
    }

    /// True if the function currently has a generated instrumented image
    /// or a pending instrumentation request.
    pub fn is_instrumented(&self, func: CuFunction) -> bool {
        self.state.tracked(func)
    }
}
