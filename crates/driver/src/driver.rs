//! The driver proper: handles, state tables, loading, launching.

use crate::cubin::FatBinary;
use crate::interpose::{CbId, CbParams, Interposer};
use crate::{DriverError, Result};
use gpu::{Device, DeviceSpec, Dim3, ExecStats, LaunchConfig, LaunchStats};
use ptx::{LineInfo, ParamInfo};
use sass::{Arch, Operand};
use std::cell::{Cell, RefCell, RefMut};
use std::sync::Arc;

macro_rules! handle_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub(crate) u32);

        impl $name {
            /// The raw handle value (stable for the driver's lifetime;
            /// useful as a map key).
            pub fn raw(&self) -> u32 {
                self.0
            }

            /// Reconstructs a handle from a raw value (for tests and
            /// serialized tool state; the driver validates on use that the
            /// value names a live object of this kind).
            pub fn from_raw(v: u32) -> $name {
                $name(v)
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}#{}", stringify!($name), self.0)
            }
        }
    };
}

handle_type!(
    /// An opaque context handle (`CUcontext`).
    CuContext
);
handle_type!(
    /// An opaque module handle (`CUmodule`).
    CuModule
);
handle_type!(
    /// An opaque function handle (`CUfunction`).
    CuFunction
);

/// A kernel launch argument.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KernelArg {
    /// A 32-bit integer.
    U32(u32),
    /// A 64-bit integer.
    U64(u64),
    /// A device pointer.
    Ptr(u64),
    /// A 32-bit float.
    F32(f32),
}

impl KernelArg {
    /// The argument's bytes: the first `len` of the array.
    fn bytes(&self) -> ([u8; 8], usize) {
        match *self {
            KernelArg::U32(v) => (u64::from(v).to_le_bytes(), 4),
            KernelArg::U64(v) | KernelArg::Ptr(v) => (v.to_le_bytes(), 8),
            KernelArg::F32(v) => (u64::from(v.to_bits()).to_le_bytes(), 4),
        }
    }
}

/// Public, copyable description of a loaded function — the properties the
/// paper's Driver Interposer records (§5.1): register usage, stack usage,
/// dependent functions and the memory location of the instructions. It is
/// what the function's handle names in the driver's object table, so the
/// handle and the device architecture are not repeated here.
#[derive(Debug, Clone)]
pub struct FunctionInfo {
    /// Function name.
    pub name: String,
    /// Owning module.
    pub module: CuModule,
    /// True when loaded from a pre-compiled library binary.
    pub library: bool,
    /// Whether this is a launchable kernel or a device function.
    pub kind: ptx::FunctionKind,
    /// Device address of the first instruction.
    pub addr: u64,
    /// Code size in bytes.
    pub code_len: u64,
    /// General-purpose registers used.
    pub reg_count: u32,
    /// Per-thread stack bytes used by the function itself.
    pub stack_size: u32,
    /// Static shared memory bytes.
    pub shared_size: u32,
    /// Kernel parameter layout.
    pub params: Vec<ParamInfo>,
    /// Every function this function can reach through calls, itself
    /// excluded, by handle (paper: related functions); set at `module_load`.
    pub related: Vec<CuFunction>,
    /// Source-correlation table.
    pub line_table: Vec<LineInfo>,
    /// Extra per-thread local bytes requested by the instrumentation layer
    /// (save areas); included in every launch of this kernel.
    pub local_override: u32,
}

/// A record of one kernel launch, including execution statistics, as
/// [`Driver::launches`] builds it from the driver's compact record.
#[derive(Debug, Clone)]
pub struct LaunchRecord {
    /// The launched kernel.
    pub func: CuFunction,
    /// Kernel name.
    pub name: String,
    /// Grid dimensions.
    pub grid: Dim3,
    /// Block dimensions.
    pub block: Dim3,
    /// Device statistics of the launch.
    pub stats: ExecStats,
}

/// One launch as the driver keeps it: its scalar statistics (the maps stay
/// empty) and its executed opcodes' counts, `State::op_counts[ops]`.
struct Launch {
    func: CuFunction,
    grid: Dim3,
    block: Dim3,
    scalars: ExecStats,
    ops: std::ops::Range<usize>,
}

struct ModuleState {
    name: String,
    library: bool,
    /// The module's functions, ordered by name.
    functions: Vec<CuFunction>,
}

/// What a handle names: the slot of the driver's object table at the
/// handle's value.
enum Object {
    /// Never issued (slot 0) or released; the lowest is issued next.
    Free,
    Context,
    Module(ModuleState),
    Function(FunctionInfo),
}

/// The last of `sorted` (ordered by the name `of` each) that is named `name`.
fn last_named<'n, T: Copy>(sorted: &[T], name: &str, of: impl Fn(T) -> &'n str) -> Option<T> {
    let end = sorted.partition_point(|&t| of(t) <= name);
    sorted[..end].last().copied().filter(|&t| of(t) == name)
}

struct State {
    device: Device,
    /// Every context, module and function, indexed by its handle's value.
    /// A released handle is reissued lowest-first. Reuse is deliberate:
    /// real drivers recycle `CUfunction` values, which is exactly what makes
    /// stale instrumentation code caches dangerous.
    objects: Vec<Object>,
    /// `Free` slots past slot 0, so that issuing scans only when one exists.
    free: usize,
    launches: Vec<Launch>,
    op_counts: Vec<(sass::Op, u64)>,
    /// `(function, launches before its unload, name)` for each unloaded
    /// function, so a launch's record names the kernel it ran even after
    /// the handle is reissued.
    unloaded: Vec<(CuFunction, usize, String)>,
}

impl State {
    /// Issues the lowest free handle value, else a new one, naming `obj`.
    fn issue(&mut self, obj: Object) -> u32 {
        if self.free == 0 {
            self.objects.push(obj);
            return self.objects.len() as u32 - 1;
        }
        self.free -= 1;
        let i = 1 + self.objects[1..].iter().position(|o| matches!(o, Object::Free)).unwrap();
        self.objects[i] = obj;
        i as u32
    }

    fn release(&mut self, h: u32) {
        self.objects[h as usize] = Object::Free;
        self.free += 1;
    }

    fn is_context(&self, ctx: &CuContext) -> bool {
        matches!(self.objects.get(ctx.0 as usize), Some(Object::Context))
    }

    fn module(&self, h: &CuModule) -> Result<&ModuleState> {
        match self.objects.get(h.0 as usize) {
            Some(Object::Module(m)) => Ok(m),
            _ => Err(DriverError::InvalidHandle(h.to_string())),
        }
    }

    fn function(&self, h: CuFunction) -> Result<&FunctionInfo> {
        match self.objects.get(h.0 as usize) {
            Some(Object::Function(f)) => Ok(f),
            _ => Err(DriverError::InvalidHandle(h.to_string())),
        }
    }

    fn function_mut(&mut self, h: CuFunction) -> Result<&mut FunctionInfo> {
        match self.objects.get_mut(h.0 as usize) {
            Some(Object::Function(f)) => Ok(f),
            _ => Err(DriverError::InvalidHandle(h.to_string())),
        }
    }
}

/// The simulated CUDA driver. Single-threaded by design (deterministic);
/// interior mutability lets interposer callbacks re-enter the API.
pub struct Driver {
    /// This context's observability recorder; every entry point that can
    /// reach an `obs` hook enters it first.
    obs: Arc<common::obs::Recorder>,
    state: RefCell<State>,
    interposer: RefCell<Option<Box<dyn Interposer>>>,
    in_callback: Cell<bool>,
    terminated: Cell<bool>,
}

impl Driver {
    /// Creates a driver owning a fresh device.
    pub fn new(spec: DeviceSpec) -> Driver {
        Driver {
            obs: common::obs::Recorder::new(),
            state: RefCell::new(State {
                device: Device::new(spec),
                objects: vec![Object::Free],
                free: 0,
                launches: Vec::new(),
                op_counts: Vec::new(),
                unloaded: Vec::new(),
            }),
            interposer: RefCell::new(None),
            in_callback: Cell::new(false),
            terminated: Cell::new(false),
        }
    }

    /// The device architecture.
    pub fn arch(&self) -> Arch {
        self.state.borrow().device.spec().arch
    }

    /// This driver's observability recorder: disabled until
    /// `obs().set_enabled(true)`, after which everything the driver, the
    /// core, the device and the tools do on this driver's behalf — on any
    /// thread spawned from then on — lands in `obs().report()`, and in no
    /// other driver's. Enable it before `attach_tool`: a thread spawned
    /// while it was off (a channel tool's drain thread, spawned in
    /// `at_init`) inherited no binding and never records.
    pub fn obs(&self) -> &Arc<common::obs::Recorder> {
        &self.obs
    }

    /// Installs the interposer (the `LD_PRELOAD` analog) and fires its
    /// `at_init` callback. Only one interposer can be installed.
    pub fn install_interposer(&self, ip: Box<dyn Interposer>) {
        {
            let mut slot = self.interposer.borrow_mut();
            assert!(slot.is_none(), "an interposer is already installed");
            *slot = Some(ip);
        }
        self.with_interposer(|ip, drv| ip.at_init(drv));
    }

    /// Fires `at_term` and removes the interposer. Also invoked by `Drop`.
    pub fn shutdown(&self) {
        if self.terminated.replace(true) {
            return;
        }
        let _obs = self.obs.enter();
        self.with_interposer(|ip, drv| ip.at_term(drv));
        *self.interposer.borrow_mut() = None;
    }

    fn with_interposer(&self, f: impl FnOnce(&mut dyn Interposer, &Driver)) {
        if self.in_callback.get() {
            return; // driver calls from inside a callback stay silent
        }
        let _obs = self.obs.enter();
        // Take the interposer out so callbacks can re-enter the driver
        // without double-borrowing the slot.
        let taken = self.interposer.borrow_mut().take();
        if let Some(mut ip) = taken {
            self.in_callback.set(true);
            f(ip.as_mut(), self);
            self.in_callback.set(false);
            let mut slot = self.interposer.borrow_mut();
            if slot.is_none() {
                *slot = Some(ip);
            }
        }
    }

    fn event(&self, is_exit: bool, cbid: CbId, params: &CbParams<'_>) {
        // Times the whole interposition callback, tool host code and any
        // instrumentation work the core performs inside it included
        // (`obs` spans are inclusive; see DESIGN.md "Observability").
        let _obs = self.obs.enter();
        let _span = common::obs::span("interpose");
        self.with_interposer(|ip, drv| ip.at_cuda_event(drv, is_exit, cbid, params));
    }

    /// Runs a closure with mutable access to the raw device — the backdoor
    /// the instrumentation core uses (no callbacks fire).
    pub fn with_device<R>(&self, f: impl FnOnce(&mut Device) -> R) -> R {
        f(&mut self.state.borrow_mut().device)
    }

    fn device_mut(&self) -> RefMut<'_, Device> {
        RefMut::map(self.state.borrow_mut(), |s| &mut s.device)
    }

    // ----- Contexts ------------------------------------------------------

    /// `cuCtxCreate`.
    pub fn ctx_create(&self) -> Result<CuContext> {
        let ctx = CuContext(self.state.borrow_mut().issue(Object::Context));
        self.event(false, CbId::CtxCreate, &CbParams::Ctx { ctx });
        self.with_interposer(|ip, drv| ip.at_ctx_init(drv, ctx));
        self.event(true, CbId::CtxCreate, &CbParams::Ctx { ctx });
        Ok(ctx)
    }

    /// `cuCtxDestroy`.
    pub fn ctx_destroy(&self, ctx: CuContext) -> Result<()> {
        self.event(false, CbId::CtxDestroy, &CbParams::Ctx { ctx });
        self.with_interposer(|ip, drv| ip.at_ctx_term(drv, ctx));
        let live = self.state.borrow().is_context(&ctx);
        if live {
            self.state.borrow_mut().release(ctx.0);
        }
        self.event(true, CbId::CtxDestroy, &CbParams::Ctx { ctx });
        if live {
            Ok(())
        } else {
            Err(DriverError::InvalidHandle(ctx.to_string()))
        }
    }

    // ----- Modules -------------------------------------------------------

    /// `cuModuleLoad`: selects (or JIT-compiles) the image for the current
    /// device, loads every function into device memory and resolves call
    /// relocations.
    ///
    /// # Errors
    ///
    /// [`DriverError::InvalidHandle`] when `ctx` names no live context
    /// (never issued, destroyed, or another kind of handle).
    pub fn module_load(&self, ctx: &CuContext, fatbin: FatBinary) -> Result<CuModule> {
        if !self.state.borrow().is_context(ctx) {
            return Err(DriverError::InvalidHandle(ctx.to_string()));
        }
        let _obs = self.obs.enter();
        let _span = common::obs::span("module_load");
        common::obs::counter("module.loads", 1);
        let arch = self.arch();
        let image: ptx::CompiledModule = match fatbin.image_for(arch) {
            Some(img) => img.clone(),
            None => match &fatbin.ptx {
                // The driver-JIT path: exactly the code a compile-time
                // instrumenter never sees.
                Some(src) => ptx::compile_module(src, arch)?,
                None => {
                    return Err(DriverError::NoBinaryForDevice {
                        arch,
                        module: fatbin.name.clone(),
                    })
                }
            },
        };

        let (name, library) = (fatbin.name.clone(), fatbin.library);
        let module = ModuleState { name, library, functions: Vec::new() };
        let module = CuModule(self.state.borrow_mut().issue(Object::Module(module)));
        self.event(
            false,
            CbId::ModuleLoad,
            &CbParams::Module { module, name: &fatbin.name, library: fatbin.library },
        );

        // A load that fails frees the code it allocated, then releases the
        // module's handle.
        let mut addrs = Vec::with_capacity(image.functions.len());
        let loaded = (|| -> Result<()> {
            let mut st = self.state.borrow_mut();

            // The image's functions by name, equal names in image order:
            // relocations and `module_get_function` look up.
            let funcs = &image.functions;
            let mut by_name: Vec<usize> = (0..funcs.len()).collect();
            by_name.sort_by_key(|&i| &funcs[i].name);
            let find = |name: &str| last_named(&by_name, name, |i| &funcs[i].name);

            // Pass 1: allocate code space for every function. Labels give
            // execution faults a function name and instruction index; the
            // device drops them when the code is freed.
            for f in funcs {
                let addr = st.device.alloc(f.code.len().max(1) as u64)?;
                st.device.label_code(addr, f.code.len() as u64, &f.name);
                addrs.push(addr);
            }
            // Pass 2: patch call relocations and upload.
            let codec = sass::codec::codec_for(arch);
            for (f, &base) in funcs.iter().zip(&addrs) {
                if f.relocs.is_empty() {
                    st.device.write(base, &f.code)?;
                } else {
                    let mut instrs = f.decode();
                    for r in &f.relocs {
                        let target = find(&r.target)
                            .ok_or_else(|| DriverError::NotFound { name: r.target.clone() })?;
                        for o in instrs[r.instr_index].operands.iter_mut() {
                            if let Operand::Abs(a) = o {
                                *a = addrs[target];
                            }
                        }
                    }
                    let patched = codec.encode_stream(&instrs).map_err(|source| {
                        DriverError::Jit(ptx::PtxError::Encode { function: f.name.clone(), source })
                    })?;
                    st.device.write(base, &patched)?;
                }
            }
            // Pass 3: register the functions, then give each every function
            // its calls reach, callees' calls too, each once, by handle. The
            // relocations are the call edges.
            let handles: Vec<CuFunction> = (funcs.iter().zip(&addrs))
                .map(|(f, &addr)| {
                    CuFunction(st.issue(Object::Function(FunctionInfo {
                        name: f.name.clone(),
                        module,
                        library,
                        kind: f.kind,
                        addr,
                        code_len: f.code.len() as u64,
                        reg_count: f.reg_count,
                        stack_size: f.stack_size,
                        shared_size: f.shared_size,
                        params: f.params.clone(),
                        related: Vec::new(),
                        line_table: f.line_table.clone(),
                        local_override: 0,
                    })))
                })
                .collect();
            let calls = |i: usize| funcs[i].relocs.iter().filter_map(|r| find(&r.target));
            for (i, &h) in handles.iter().enumerate() {
                let mut reach: Vec<usize> = calls(i).collect();
                let mut next = 0;
                while let Some(&j) = reach.get(next) {
                    next += 1;
                    for c in calls(j) {
                        if !reach.contains(&c) {
                            reach.push(c);
                        }
                    }
                }
                let mut related: Vec<CuFunction> =
                    reach.into_iter().filter(|&j| j != i).map(|j| handles[j]).collect();
                related.sort_unstable();
                related.dedup();
                st.function_mut(h)?.related = related;
            }
            if let Object::Module(m) = &mut st.objects[module.0 as usize] {
                m.functions = by_name.iter().map(|&i| handles[i]).collect();
            }
            Ok(())
        })();
        if loaded.is_err() {
            let mut st = self.state.borrow_mut();
            for &addr in &addrs {
                st.device.free(addr)?;
            }
            st.release(module.0);
        }
        loaded?;

        self.event(
            true,
            CbId::ModuleLoad,
            &CbParams::Module { module, name: &fatbin.name, library: fatbin.library },
        );
        Ok(module)
    }

    /// `cuModuleGetFunction`.
    pub fn module_get_function(&self, module: &CuModule, name: &str) -> Result<CuFunction> {
        let func = {
            let st = self.state.borrow();
            let of = |h| st.function(h).map_or("", |f| f.name.as_str());
            last_named(&st.module(module)?.functions, name, of)
                .ok_or_else(|| DriverError::NotFound { name: name.to_string() })?
        };
        self.event(false, CbId::ModuleGetFunction, &CbParams::GetFunction { func, name });
        self.event(true, CbId::ModuleGetFunction, &CbParams::GetFunction { func, name });
        Ok(func)
    }

    /// `cuModuleUnload`: releases the module, its function records and
    /// their device code allocations, and recycles the handles.
    ///
    /// The *entry* callback fires while the module is still fully loaded,
    /// so interposers can enumerate its functions and evict any cached
    /// per-function state (lifted code, instrumented images) before the
    /// records disappear; by the exit callback the handles are dead and the
    /// handle values may be reissued by the next load.
    ///
    /// # Errors
    ///
    /// [`DriverError::InvalidHandle`] for an unknown module.
    pub fn module_unload(&self, module: CuModule) -> Result<()> {
        let (name, library, mut funcs) = {
            let st = self.state.borrow();
            let m = st.module(&module)?;
            (m.name.clone(), m.library, m.functions.clone())
        };
        let _obs = self.obs.enter();
        common::obs::counter("module.unloads", 1);
        let p = CbParams::Module { module, name: &name, library };
        self.event(false, CbId::ModuleUnload, &p);
        let freed = (|| -> Result<()> {
            let st = &mut *self.state.borrow_mut();
            funcs.sort_by_key(|f| f.0);
            for f in funcs {
                let addr = st.function(f)?.addr;
                st.device.free(addr)?;
                let name = std::mem::take(&mut st.function_mut(f)?.name);
                st.unloaded.push((f, st.launches.len(), name));
                st.release(f.0);
            }
            st.release(module.0);
            Ok(())
        })();
        self.event(true, CbId::ModuleUnload, &p);
        freed
    }

    /// All functions of a module (kernels and device functions), ordered by
    /// handle. Interposers use this during the `ModuleUnload` entry
    /// callback to evict per-function caches.
    ///
    /// # Errors
    ///
    /// [`DriverError::InvalidHandle`] for an unknown module.
    pub fn module_functions(&self, module: &CuModule) -> Result<Vec<CuFunction>> {
        let mut v = self.state.borrow().module(module)?.functions.clone();
        v.sort_by_key(|h| h.0);
        Ok(v)
    }

    /// All kernels (entry functions) of a module, in load order.
    pub fn module_kernels(&self, module: &CuModule) -> Result<Vec<CuFunction>> {
        let mut v = self.module_functions(module)?;
        let st = self.state.borrow();
        v.retain(|&h| st.function(h).is_ok_and(|f| f.kind == ptx::FunctionKind::Entry));
        Ok(v)
    }

    // ----- Functions -----------------------------------------------------

    /// The recorded properties of a function.
    pub fn function_info(&self, func: CuFunction) -> Result<FunctionInfo> {
        self.with_function_info(func, FunctionInfo::clone)
    }

    /// Reads the recorded properties of a function in place, without the
    /// copy [`Driver::function_info`] makes. `read` runs under a shared
    /// borrow of the driver's state: it may query the driver, but not
    /// change it.
    pub fn with_function_info<R>(
        &self,
        func: CuFunction,
        read: impl FnOnce(&FunctionInfo) -> R,
    ) -> Result<R> {
        Ok(read(self.state.borrow().function(func)?))
    }

    /// Reads the function's current code bytes from device memory (the
    /// `retrieve` phase of the JIT breakdown, paper Fig. 5).
    pub fn read_code(&self, func: CuFunction) -> Result<Vec<u8>> {
        let _obs = self.obs.enter();
        let _span = common::obs::span("retrieve");
        let st = self.state.borrow();
        let info = st.function(func)?;
        let mut buf = vec![0u8; info.code_len as usize];
        st.device.read(info.addr, &mut buf)?;
        Ok(buf)
    }

    /// Requests extra per-thread local memory on every launch of `func`
    /// (used by the instrumentation layer for register save areas).
    pub fn set_local_override(&self, func: CuFunction, extra: u32) -> Result<()> {
        self.state.borrow_mut().function_mut(func)?.local_override = extra;
        Ok(())
    }

    // ----- Memory --------------------------------------------------------

    /// `cuMemAlloc`.
    pub fn mem_alloc(&self, bytes: u64) -> Result<u64> {
        self.event(false, CbId::MemAlloc, &CbParams::MemAlloc { bytes, dptr: 0 });
        let r = self.device_mut().alloc(bytes);
        let dptr = *r.as_ref().unwrap_or(&0);
        self.event(true, CbId::MemAlloc, &CbParams::MemAlloc { bytes, dptr });
        Ok(r?)
    }

    /// `cuMemFree`.
    pub fn mem_free(&self, dptr: u64) -> Result<()> {
        self.event(false, CbId::MemFree, &CbParams::MemFree { dptr });
        let r = self.device_mut().free(dptr);
        self.event(true, CbId::MemFree, &CbParams::MemFree { dptr });
        r.map_err(Into::into)
    }

    /// `cuMemcpyHtoD`.
    pub fn memcpy_htod(&self, dptr: u64, src: &[u8]) -> Result<()> {
        let p = CbParams::Memcpy { dptr, bytes: src.len() as u64, to_device: true };
        self.event(false, CbId::MemcpyHtoD, &p);
        let r = self.device_mut().write(dptr, src);
        self.event(true, CbId::MemcpyHtoD, &p);
        r.map_err(Into::into)
    }

    /// `cuMemcpyDtoH`.
    pub fn memcpy_dtoh(&self, dst: &mut [u8], dptr: u64) -> Result<()> {
        let p = CbParams::Memcpy { dptr, bytes: dst.len() as u64, to_device: false };
        self.event(false, CbId::MemcpyDtoH, &p);
        let r = self.state.borrow().device.read(dptr, dst);
        self.event(true, CbId::MemcpyDtoH, &p);
        r.map_err(Into::into)
    }

    /// `cuCtxSynchronize` (execution is synchronous; this only exists so
    /// interposers see the call).
    pub fn synchronize(&self) -> Result<()> {
        self.event(false, CbId::Synchronize, &CbParams::None);
        self.event(true, CbId::Synchronize, &CbParams::None);
        Ok(())
    }

    // ----- Launch --------------------------------------------------------

    /// `cuLaunchKernel`. Interposers see the entry callback *before* launch
    /// parameters are read, so instrumentation applied there (code swaps,
    /// local-memory overrides) affects this very launch; the exit callback
    /// fires whatever the launch returns.
    pub fn launch_kernel(
        &self,
        func: &CuFunction,
        grid: Dim3,
        block: Dim3,
        args: &[KernelArg],
    ) -> Result<LaunchStats> {
        let _obs = self.obs.enter();
        let _span = common::obs::span("launch");
        common::obs::counter("kernel.launches", 1);
        // Validate the handle before telling anyone about the launch.
        self.state.borrow().function(*func)?;
        let p = CbParams::LaunchKernel { func: *func, grid, block, args };
        self.event(false, CbId::LaunchKernel, &p);
        let launched = (|| {
            // Re-read the function state: the interposer may have changed it.
            let cfg = self.with_function_info(*func, |info| {
                if info.kind != ptx::FunctionKind::Entry {
                    return Err(DriverError::BadArgs(format!("`{}` is not a kernel", info.name)));
                }
                if args.len() != info.params.len() {
                    return Err(DriverError::BadArgs(format!(
                        "`{}` takes {} arguments, got {}",
                        info.name,
                        info.params.len(),
                        args.len()
                    )));
                }

                let size = info.params.iter().map(|p| p.offset + p.size).max().unwrap_or(0);
                let mut cfg = LaunchConfig::with_params(info.addr, grid, block, size);
                for (arg, pinfo) in args.iter().zip(&info.params) {
                    let (bytes, len) = arg.bytes();
                    if len != pinfo.size as usize {
                        return Err(DriverError::BadArgs(format!(
                            "argument `{}` of `{}` is {} bytes, got {len}",
                            pinfo.name, info.name, pinfo.size
                        )));
                    }
                    cfg.write_param_bytes(pinfo.offset, &bytes[..len]);
                }
                cfg.shared_size = info.shared_size;
                cfg.local_size = self.local_requirement(info);
                Ok(cfg)
            })??;

            let stats = self.device_mut().launch(&cfg)?;
            let st = &mut *self.state.borrow_mut();
            let start = st.op_counts.len();
            st.op_counts.extend(stats.ops());
            let (scalars, ops) = (stats.scalars(), start..st.op_counts.len());
            st.launches.push(Launch { func: *func, grid, block, scalars, ops });
            Ok(stats)
        })();
        self.event(true, CbId::LaunchKernel, &p);
        launched
    }

    /// Per-thread local bytes a launch of this kernel needs: its own frame,
    /// the largest frame of any function it can reach, instrumentation
    /// overrides and fixed headroom.
    fn local_requirement(&self, info: &FunctionInfo) -> u32 {
        let st = self.state.borrow();
        let related_max = info
            .related
            .iter()
            .filter_map(|&h| st.function(h).ok())
            .map(|f| f.stack_size + f.local_override)
            .max()
            .unwrap_or(0);
        info.stack_size + related_max + info.local_override + 1024
    }

    // ----- Bookkeeping ---------------------------------------------------

    /// All launches recorded so far, each named by the kernel it ran (also
    /// after that kernel's module was unloaded and its handle reissued).
    pub fn launches(&self) -> Vec<LaunchRecord> {
        let st = self.state.borrow();
        let record = |(i, l): (usize, &Launch)| LaunchRecord {
            func: l.func,
            // The name at the first unload of the handle after launch `i`.
            name: match st.unloaded.iter().find(|u| u.0 == l.func && u.1 > i) {
                Some((.., name)) => name.clone(),
                None => st.function(l.func).map_or(String::new(), |f| f.name.clone()),
            },
            grid: l.grid,
            block: l.block,
            stats: l.scalars.clone().with_ops(st.op_counts[l.ops.clone()].iter().copied()),
        };
        st.launches.iter().enumerate().map(record).collect()
    }

    /// Number of launches recorded.
    pub fn launch_count(&self) -> usize {
        self.state.borrow().launches.len()
    }

    /// Aggregated statistics over all launches.
    pub fn total_stats(&self) -> ExecStats {
        let st = self.state.borrow();
        let mut total = ExecStats::default();
        for l in &st.launches {
            total.merge(&l.scalars);
        }
        total.with_ops(st.op_counts.iter().copied())
    }
}

impl Drop for Driver {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    const APP: &str = r#"
.entry scale(.param .u64 buf, .param .u32 n, .param .f32 k)
{
    .reg .u32 %r<4>;
    .reg .u64 %rd<4>;
    .reg .f32 %f<3>;
    .reg .pred %p<2>;
    ld.param.u64 %rd1, [buf];
    ld.param.u32 %r1, [n];
    ld.param.f32 %f1, [k];
    mov.u32 %r2, %tid.x;
    setp.ge.u32 %p1, %r2, %r1;
    @%p1 bra DONE;
    mul.wide.u32 %rd2, %r2, 4;
    add.u64 %rd3, %rd1, %rd2;
    ld.global.f32 %f2, [%rd3];
    mul.f32 %f2, %f2, %f1;
    st.global.f32 [%rd3], %f2;
DONE:
    exit;
}
"#;

    fn driver() -> Driver {
        Driver::new(DeviceSpec::test(Arch::Volta))
    }

    #[test]
    fn end_to_end_launch_computes_correct_results() {
        let drv = driver();
        let ctx = drv.ctx_create().unwrap();
        let m = drv.module_load(&ctx, FatBinary::from_ptx("app", APP)).unwrap();
        let f = drv.module_get_function(&m, "scale").unwrap();
        let buf = drv.mem_alloc(128).unwrap();
        let data: Vec<u8> = (0..32).flat_map(|i| (i as f32).to_bits().to_le_bytes()).collect();
        drv.memcpy_htod(buf, &data).unwrap();
        drv.launch_kernel(
            &f,
            Dim3::linear(1),
            Dim3::linear(32),
            &[KernelArg::Ptr(buf), KernelArg::U32(20), KernelArg::F32(2.0)],
        )
        .unwrap();
        let mut out = vec![0u8; 128];
        drv.memcpy_dtoh(&mut out, buf).unwrap();
        for i in 0..32usize {
            let v = f32::from_bits(u32::from_le_bytes(out[i * 4..i * 4 + 4].try_into().unwrap()));
            let expect = if i < 20 { 2.0 * i as f32 } else { i as f32 };
            assert_eq!(v, expect, "element {i}");
        }
        assert_eq!(drv.launch_count(), 1);
        assert!(drv.total_stats().warp_instructions > 0);
    }

    #[test]
    fn arg_count_and_size_are_validated() {
        let drv = driver();
        let ctx = drv.ctx_create().unwrap();
        let m = drv.module_load(&ctx, FatBinary::from_ptx("app", APP)).unwrap();
        let f = drv.module_get_function(&m, "scale").unwrap();
        let e = drv.launch_kernel(&f, Dim3::linear(1), Dim3::linear(32), &[KernelArg::U32(1)]);
        assert!(matches!(e, Err(DriverError::BadArgs(_))));
        // Wrong size: u32 where a pointer is expected.
        let e = drv.launch_kernel(
            &f,
            Dim3::linear(1),
            Dim3::linear(32),
            &[KernelArg::U32(0), KernelArg::U32(1), KernelArg::F32(1.0)],
        );
        assert!(matches!(e, Err(DriverError::BadArgs(_))));
    }

    #[test]
    fn unknown_lookups_error() {
        let drv = driver();
        let ctx = drv.ctx_create().unwrap();
        let m = drv.module_load(&ctx, FatBinary::from_ptx("app", APP)).unwrap();
        assert!(matches!(drv.module_get_function(&m, "nope"), Err(DriverError::NotFound { .. })));
        assert!(drv.function_info(CuFunction(9999)).is_err());
        let sass_only =
            FatBinary { name: "noimg".into(), library: false, images: Vec::new(), ptx: None };
        assert!(matches!(
            drv.module_load(&ctx, sass_only),
            Err(DriverError::NoBinaryForDevice { .. })
        ));
    }

    #[derive(Default)]
    struct Recorder {
        events: Rc<RefCell<Vec<(bool, CbId)>>>,
        inited: Rc<Cell<bool>>,
        termed: Rc<Cell<bool>>,
    }

    impl Interposer for Recorder {
        fn at_init(&mut self, _d: &Driver) {
            self.inited.set(true);
        }
        fn at_term(&mut self, _d: &Driver) {
            self.termed.set(true);
        }
        fn at_cuda_event(&mut self, drv: &Driver, is_exit: bool, cbid: CbId, p: &CbParams<'_>) {
            self.events.borrow_mut().push((is_exit, cbid));
            // Re-entrant driver calls from a callback must not recurse into
            // the interposer.
            if let CbParams::LaunchKernel { func, .. } = p {
                let _ = drv.function_info(*func).unwrap();
                let _ = drv.mem_alloc(64).unwrap();
            }
        }
    }

    #[test]
    fn interposer_sees_every_api_call_without_recursion() {
        let events = Rc::new(RefCell::new(Vec::new()));
        let inited = Rc::new(Cell::new(false));
        let termed = Rc::new(Cell::new(false));
        let drv = driver();
        drv.install_interposer(Box::new(Recorder {
            events: events.clone(),
            inited: inited.clone(),
            termed: termed.clone(),
        }));
        assert!(inited.get());

        let ctx = drv.ctx_create().unwrap();
        let m = drv.module_load(&ctx, FatBinary::from_ptx("app", APP)).unwrap();
        let f = drv.module_get_function(&m, "scale").unwrap();
        let buf = drv.mem_alloc(256).unwrap();
        drv.launch_kernel(
            &f,
            Dim3::linear(1),
            Dim3::linear(32),
            &[KernelArg::Ptr(buf), KernelArg::U32(0), KernelArg::F32(1.0)],
        )
        .unwrap();
        drv.shutdown();
        assert!(termed.get());

        let evs = events.borrow();
        let launches: Vec<_> = evs.iter().filter(|(_, c)| *c == CbId::LaunchKernel).collect();
        assert_eq!(launches.len(), 2, "entry + exit, no recursion: {evs:?}");
        // The MemAlloc performed inside the callback must NOT appear, while
        // the application's own does.
        let allocs: Vec<_> = evs.iter().filter(|(_, c)| *c == CbId::MemAlloc).collect();
        assert_eq!(allocs.len(), 2);
        assert!(evs.iter().any(|(_, c)| *c == CbId::ModuleLoad));
        assert!(evs.iter().any(|(_, c)| *c == CbId::CtxCreate));
    }

    #[test]
    fn every_entry_callback_is_followed_by_its_exit_callback_on_error_too() {
        let events = Rc::new(RefCell::new(Vec::new()));
        let drv = driver();
        drv.install_interposer(Box::new(Recorder { events: events.clone(), ..Default::default() }));
        let ctx = drv.ctx_create().unwrap();
        let m = drv.module_load(&ctx, FatBinary::from_ptx("app", APP)).unwrap();
        let f = drv.module_get_function(&m, "scale").unwrap();
        let calls = |cbid| {
            let evs = events.borrow();
            let n = |exit| evs.iter().filter(|&&e| e == (exit, cbid)).count();
            (n(false), n(true))
        };
        // Every lane loads from an address nothing maps: a device fault.
        let args = [KernelArg::Ptr(1 << 40), KernelArg::U32(32), KernelArg::F32(1.0)];
        let e = drv.launch_kernel(&f, Dim3::linear(1), Dim3::linear(32), &args);
        assert!(matches!(e, Err(DriverError::Gpu(gpu::GpuError::Fault { .. }))), "{e:?}");
        assert_eq!(calls(CbId::LaunchKernel), (1, 1));
        // An argument error found after the entry callback.
        let e = drv.launch_kernel(&f, Dim3::linear(1), Dim3::linear(32), &[KernelArg::U32(1)]);
        assert!(matches!(e, Err(DriverError::BadArgs(_))), "{e:?}");
        assert_eq!(calls(CbId::LaunchKernel), (2, 2));
        assert!(drv.mem_alloc(u64::MAX).is_err());
        assert_eq!(calls(CbId::MemAlloc), (1, 1));
        assert_eq!(drv.launch_count(), 0, "a failed launch leaves no record");
    }

    /// A one-kernel module: loaded after `APP`'s is unloaded, its kernel
    /// takes the handle `scale` had.
    const FILL: &str = r#"
.entry fill(.param .u64 buf)
{
    .reg .u32 %r<2>;
    .reg .u64 %rd<4>;
    ld.param.u64 %rd1, [buf];
    mov.u32 %r1, %tid.x;
    mul.wide.u32 %rd2, %r1, 4;
    add.u64 %rd3, %rd1, %rd2;
    st.global.u32 [%rd3], %r1;
    exit;
}
"#;

    #[test]
    fn a_launch_record_keeps_its_kernel_after_the_handle_is_reissued() {
        let drv = driver();
        let ctx = drv.ctx_create().unwrap();
        let buf = drv.mem_alloc(1024).unwrap();
        let scale_args = [KernelArg::Ptr(buf), KernelArg::U32(20), KernelArg::F32(2.0)];
        let mut returned = Vec::new();
        let mut launch = |src: &str, name: &'static str, grid: u32, args: &[KernelArg]| {
            let m = drv.module_load(&ctx, FatBinary::from_ptx(name, src)).unwrap();
            let f = drv.module_get_function(&m, name).unwrap();
            let stats = drv.launch_kernel(&f, Dim3::linear(grid), Dim3::linear(64), args).unwrap();
            returned.push((f, name, grid, ExecStats::from(&stats)));
            m
        };
        let m = launch(APP, "scale", 1, &scale_args);
        drv.module_unload(m).unwrap();
        let m = launch(FILL, "fill", 2, &[KernelArg::Ptr(buf)]);
        drv.module_unload(m).unwrap();
        launch(APP, "scale", 3, &scale_args);
        assert!(returned.iter().all(|r| r.0 == returned[0].0), "one handle, reissued");
        assert_ne!(returned[0].3, returned[1].3);

        let records = drv.launches();
        assert_eq!(records.len(), returned.len());
        for (r, (func, name, grid, stats)) in records.iter().zip(&returned) {
            assert_eq!(
                (r.func, r.name.as_str(), r.grid, r.block),
                (*func, *name, Dim3::linear(*grid), Dim3::linear(64))
            );
            assert_eq!(&r.stats, stats, "{name}");
        }
        let mut folded = ExecStats::default();
        records.iter().for_each(|r| folded.merge(&r.stats));
        assert_eq!(drv.total_stats(), folded);
    }

    const CALLS: &str = r#"
.func (.reg .u32 %out) twice(.reg .u32 %x)
{
    add.u32 %out, %x, %x;
    ret;
}
.entry k(.param .u64 buf)
{
    .reg .u32 %r<4>;
    .reg .u64 %rd<4>;
    ld.param.u64 %rd1, [buf];
    mov.u32 %r1, %tid.x;
    call (%r2), twice, (%r1);
    mul.wide.u32 %rd2, %r1, 4;
    add.u64 %rd3, %rd1, %rd2;
    st.global.u32 [%rd3], %r2;
    exit;
}
"#;

    #[test]
    fn relocations_resolve_and_related_functions_are_tracked() {
        let drv = driver();
        let ctx = drv.ctx_create().unwrap();
        let m = drv.module_load(&ctx, FatBinary::from_ptx("app", CALLS)).unwrap();
        let k = drv.module_get_function(&m, "k").unwrap();
        let info = drv.function_info(k).unwrap();
        assert_eq!(info.related.len(), 1);
        let twice = drv.function_info(info.related[0]).unwrap();
        assert_eq!(twice.name, "twice");
        assert_eq!(twice.kind, ptx::FunctionKind::Device);

        let buf = drv.mem_alloc(128).unwrap();
        drv.launch_kernel(&k, Dim3::linear(1), Dim3::linear(32), &[KernelArg::Ptr(buf)]).unwrap();
        let mut out = vec![0u8; 128];
        drv.memcpy_dtoh(&mut out, buf).unwrap();
        for t in 0..32u32 {
            let v = u32::from_le_bytes(out[t as usize * 4..t as usize * 4 + 4].try_into().unwrap());
            assert_eq!(v, 2 * t);
        }
        // Kernel listing only includes entries.
        let kernels = drv.module_kernels(&m).unwrap();
        assert_eq!(kernels, vec![k]);
    }

    /// `k` calls `c`, which calls `b`, which calls `a`; `ping` and `pong`
    /// call each other, and `k` calls `ping`. Image order is source order,
    /// so the walk from `k` meets its callees against handle order.
    const CHAIN: &str = r#"
.func (.reg .u32 %o) a(.reg .u32 %x) { add.u32 %o, %x, 1; ret; }
.func (.reg .u32 %o) b(.reg .u32 %x) { call (%o), a, (%x); ret; }
.func (.reg .u32 %o) c(.reg .u32 %x) { call (%o), b, (%x); ret; }
.func (.reg .u32 %o) ping(.reg .u32 %x)
{
    .reg .pred %p;
    setp.eq.u32 %p, %x, 0;
    @%p bra done;
    sub.u32 %x, %x, 1;
    call (%x), pong, (%x);
done:
    mov.u32 %o, %x;
    ret;
}
.func (.reg .u32 %o) pong(.reg .u32 %x) { call (%o), ping, (%x); ret; }
.entry k()
{
    .reg .u32 %r<3>;
    mov.u32 %r1, %tid.x;
    call (%r2), c, (%r1);
    call (%r2), ping, (%r2);
    exit;
}
"#;

    #[test]
    fn related_lists_are_the_sorted_transitive_reach() {
        let drv = driver();
        let ctx = drv.ctx_create().unwrap();
        // A module loaded and unloaded first leaves low handles to recycle.
        let old = drv.module_load(&ctx, FatBinary::from_ptx("old", APP)).unwrap();
        drv.module_unload(old).unwrap();
        let m = drv.module_load(&ctx, FatBinary::from_ptx("chain", CHAIN)).unwrap();
        let f = |name: &str| drv.module_get_function(&m, name).unwrap();
        let related = |name: &str| drv.function_info(f(name)).unwrap().related;
        let sorted = |mut v: Vec<CuFunction>| {
            v.sort_unstable();
            v
        };
        assert_eq!(related("k"), sorted(vec![f("a"), f("b"), f("c"), f("ping"), f("pong")]));
        assert_eq!(related("c"), sorted(vec![f("a"), f("b")]));
        assert_eq!(related("a"), vec![]);
        assert_eq!(related("ping"), vec![f("pong")]);
        assert_eq!(related("pong"), vec![f("ping")]);
        drv.launch_kernel(&f("k"), Dim3::linear(1), Dim3::linear(32), &[]).unwrap();
    }

    fn invalid<T: std::fmt::Debug>(r: Result<T>) -> bool {
        matches!(r, Err(DriverError::InvalidHandle(_)))
    }

    #[test]
    fn a_module_loads_only_into_a_live_context() {
        let drv = driver();
        let ctx = drv.ctx_create().unwrap();
        let load = |ctx: CuContext| drv.module_load(&ctx, FatBinary::from_ptx("app", APP));
        assert!(invalid(load(CuContext::from_raw(999))), "never issued");
        let m = load(ctx).unwrap();
        assert!(invalid(load(CuContext::from_raw(m.raw()))), "a module handle");
        let gone = drv.ctx_create().unwrap();
        drv.ctx_destroy(gone).unwrap();
        assert!(invalid(load(gone)), "destroyed");
        assert!(invalid(drv.ctx_destroy(gone)), "destroyed twice");
    }

    #[test]
    fn a_handle_of_another_kind_is_invalid() {
        let drv = driver();
        let ctx = drv.ctx_create().unwrap();
        let m = drv.module_load(&ctx, FatBinary::from_ptx("app", CALLS)).unwrap();
        let k = drv.module_get_function(&m, "k").unwrap();
        let as_module = CuModule::from_raw(k.raw());
        assert!(invalid(drv.module_functions(&as_module)));
        assert!(invalid(drv.module_get_function(&as_module, "k")));
        assert!(invalid(drv.module_unload(as_module)));
        assert!(invalid(drv.function_info(CuFunction::from_raw(m.raw()))));
        assert!(invalid(drv.read_code(CuFunction::from_raw(ctx.raw()))));
        let launch = |f| drv.launch_kernel(&f, Dim3::linear(1), Dim3::linear(1), &[]);
        assert!(invalid(launch(CuFunction::from_raw(m.raw()))));
        assert!(invalid(launch(CuFunction::from_raw(0))), "handle 0 is never issued");
    }

    #[test]
    fn unloaded_handles_are_reissued_exactly_and_lowest_first() {
        let drv = driver();
        let ctx = drv.ctx_create().unwrap();
        let load = |name| drv.module_load(&ctx, FatBinary::from_ptx(name, CALLS)).unwrap();
        let handles = |m: CuModule| {
            let funcs = drv.module_functions(&m).unwrap();
            std::iter::once(m.raw()).chain(funcs.iter().map(CuFunction::raw)).collect::<Vec<_>>()
        };
        let first = handles(load("first"));
        let second = handles(load("second"));
        assert_eq!((first, second.clone()), (vec![2, 3, 4], vec![5, 6, 7]));
        drv.module_unload(CuModule::from_raw(2)).unwrap();
        assert_eq!(handles(load("third")), vec![2, 3, 4], "the freed handles, lowest-first");
        assert_eq!(handles(load("fourth")), vec![8, 9, 10], "then new ones");
        assert_eq!(handles(CuModule::from_raw(5)), second, "untouched");
    }

    #[test]
    fn a_failed_load_releases_its_module_handle() {
        let drv = driver();
        let ctx = drv.ctx_create().unwrap();
        let mut bad = FatBinary::library_from_ptx("bad", CALLS).unwrap();
        let relocs =
            bad.images.iter_mut().flat_map(|m| &mut m.functions).flat_map(|f| &mut f.relocs);
        relocs.for_each(|r| r.target = "gone".into());
        let held = || drv.with_device(|d| (d.memory().live_allocs(), d.decoded_pages()));
        let before = held();
        assert!(matches!(drv.module_load(&ctx, bad), Err(DriverError::NotFound { .. })));
        assert_eq!(held(), before, "the code pass 1 allocated is freed");
        let m = drv.module_load(&ctx, FatBinary::from_ptx("app", APP)).unwrap();
        assert_eq!(m.raw(), 2, "the failed load's handle is issued again");
    }

    #[test]
    fn a_destroyed_context_handle_is_reissued_lowest_first() {
        let drv = driver();
        let ctxs: Vec<CuContext> = (0..3).map(|_| drv.ctx_create().unwrap()).collect();
        assert_eq!(ctxs.iter().map(CuContext::raw).collect::<Vec<_>>(), vec![1, 2, 3]);
        drv.ctx_destroy(ctxs[2]).unwrap();
        drv.ctx_destroy(ctxs[1]).unwrap();
        let again: Vec<u32> = (0..3).map(|_| drv.ctx_create().unwrap().raw()).collect();
        assert_eq!(again, vec![2, 3, 4]);
        drv.module_load(&CuContext::from_raw(3), FatBinary::from_ptx("app", APP)).unwrap();
    }

    #[test]
    fn sass_only_library_loads_without_jit() {
        let lib = FatBinary::library_from_ptx("libmini", APP).unwrap();
        for arch in Arch::ALL {
            let drv = Driver::new(DeviceSpec::test(arch));
            let ctx = drv.ctx_create().unwrap();
            let m = drv.module_load(&ctx, lib.clone()).unwrap();
            let f = drv.module_get_function(&m, "scale").unwrap();
            assert!(drv.function_info(f).unwrap().library);
        }
    }

    #[test]
    fn read_code_returns_decodable_sass() {
        let drv = driver();
        let ctx = drv.ctx_create().unwrap();
        let m = drv.module_load(&ctx, FatBinary::from_ptx("app", APP)).unwrap();
        let f = drv.module_get_function(&m, "scale").unwrap();
        let code = drv.read_code(f).unwrap();
        let arch = drv.arch();
        let instrs = sass::codec::codec_for(arch).decode_stream(&code).unwrap();
        assert!(instrs.iter().any(|i| i.op == sass::Op::Exit));
    }

    #[test]
    fn local_override_is_applied_and_persisted() {
        let drv = driver();
        let ctx = drv.ctx_create().unwrap();
        let m = drv.module_load(&ctx, FatBinary::from_ptx("app", APP)).unwrap();
        let f = drv.module_get_function(&m, "scale").unwrap();
        drv.set_local_override(f, 4096).unwrap();
        assert_eq!(drv.function_info(f).unwrap().local_override, 4096);
    }
}

#[cfg(test)]
mod drop_tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    struct TermFlag(Rc<Cell<bool>>);
    impl crate::interpose::Interposer for TermFlag {
        fn at_term(&mut self, _d: &Driver) {
            self.0.set(true);
        }
        fn at_cuda_event(
            &mut self,
            _d: &Driver,
            _x: bool,
            _c: crate::interpose::CbId,
            _p: &crate::interpose::CbParams<'_>,
        ) {
        }
    }

    #[test]
    fn dropping_the_driver_fires_at_term_exactly_once() {
        let flag = Rc::new(Cell::new(false));
        {
            let drv = Driver::new(gpu::DeviceSpec::test(sass::Arch::Volta));
            drv.install_interposer(Box::new(TermFlag(flag.clone())));
            assert!(!flag.get());
            drv.shutdown();
            assert!(flag.get());
            flag.set(false);
            // Drop after an explicit shutdown must not fire again.
        }
        assert!(!flag.get(), "at_term fired twice");

        let flag2 = Rc::new(Cell::new(false));
        {
            let drv = Driver::new(gpu::DeviceSpec::test(sass::Arch::Volta));
            drv.install_interposer(Box::new(TermFlag(flag2.clone())));
        }
        assert!(flag2.get(), "Drop must fire at_term when shutdown was not called");
    }
}
