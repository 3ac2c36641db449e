//! **Alaska** — automatic, transparent handle-based memory management for
//! unmanaged code, reproduced in Rust from *Getting a Handle on Unmanaged
//! Memory* (ASPLOS 2024).
//!
//! This facade crate ties the pieces together and offers a small builder API;
//! the heavy lifting lives in the component crates:
//!
//! | crate | role |
//! |---|---|
//! | [`alaska_runtime`] | handle encoding, handle table, pins, barriers, services |
//! | [`alaska_anchorage`] | the Anchorage defragmenting allocator + control algorithm |
//! | [`alaska_ir`] | the SSA IR, analyses and cost-model interpreter |
//! | [`alaska_compiler`] | the Alaska passes (translation insertion, hoisting, tracking, …) |
//! | [`alaska_heap`] | the simulated virtual-memory substrate and baseline allocators |
//! | [`alaska_telemetry`] | pause-time histograms, gauges, counters and the structured event trace |
//!
//! # Two ways to use it
//!
//! **Embed the runtime** (the analogue of linking your program against
//! `liballaska` and letting the compiler rewrite `malloc`):
//!
//! ```
//! use alaska::AlaskaBuilder;
//!
//! let rt = AlaskaBuilder::new().with_anchorage().build();
//! let h = rt.halloc(128)?;
//! rt.write_u64(h, 0, 42);
//! assert_eq!(rt.read_u64(h, 0), 42);
//!
//! // Heap objects can move at any barrier; the handle keeps working.
//! rt.defragment(None);
//! assert_eq!(rt.read_u64(h, 0), 42);
//! rt.hfree(h)?;
//! # Ok::<(), alaska::AlaskaError>(())
//! ```
//!
//! **Compile and run IR** (the analogue of `make CC=alaska`):
//!
//! ```
//! use alaska::{AlaskaBuilder, compiler::PipelineConfig, compiler::compile_module};
//! use alaska::ir::module::{Module, FunctionBuilder, Operand};
//! use alaska::ir::interp::{Interpreter, InterpConfig};
//!
//! let mut m = Module::new("demo");
//! let mut f = FunctionBuilder::new("main", 0);
//! let e = f.entry_block();
//! let p = f.malloc(e, Operand::Const(8));
//! f.store(e, Operand::Value(p), Operand::Const(7));
//! let v = f.load(e, Operand::Value(p));
//! f.ret(e, Some(Operand::Value(v)));
//! m.add_function(f.finish());
//!
//! let (handle_based, _report) = compile_module(&m, &PipelineConfig::full());
//! let rt = AlaskaBuilder::new().with_anchorage().build();
//! let mut interp = Interpreter::new(&handle_based, &rt, InterpConfig::default());
//! assert_eq!(interp.run("main", &[]).unwrap().return_value, Some(7));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use alaska_anchorage as anchorage;
pub use alaska_compiler as compiler;
pub use alaska_heap as heap;
pub use alaska_ir as ir;
pub use alaska_runtime as runtime;
pub use alaska_telemetry as telemetry;

pub use alaska_anchorage::service::AnchorageConfig;
pub use alaska_anchorage::{AnchorageService, ControlAlgorithm, ControlParams};
pub use alaska_compiler::{compile_module, PipelineConfig};
pub use alaska_heap::vmem::VirtualMemory;
pub use alaska_runtime::{AlaskaError, Handle, HandleId, Runtime, Service};
pub use alaska_telemetry::Telemetry;

use alaska_runtime::malloc_service::MallocService;
use std::sync::Arc;

/// Which backing-memory service an [`AlaskaBuilder`] installs.
enum ServiceChoice {
    Malloc,
    Anchorage(AnchorageConfig),
    Custom(Box<dyn Service>),
}

/// Builder for an Alaska [`Runtime`].
///
/// ```
/// use alaska::AlaskaBuilder;
/// let rt = AlaskaBuilder::new().with_anchorage().build();
/// assert_eq!(rt.service_name(), "anchorage");
/// ```
pub struct AlaskaBuilder {
    vm: Option<VirtualMemory>,
    service: ServiceChoice,
    handle_faults: bool,
    telemetry: Option<Arc<Telemetry>>,
}

impl Default for AlaskaBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl AlaskaBuilder {
    /// Start building a runtime with the default (non-moving `malloc`) service.
    pub fn new() -> Self {
        AlaskaBuilder {
            vm: None,
            service: ServiceChoice::Malloc,
            handle_faults: false,
            telemetry: None,
        }
    }

    /// Use an existing address space instead of creating a fresh one.
    pub fn with_vm(mut self, vm: VirtualMemory) -> Self {
        self.vm = Some(vm);
        self
    }

    /// Install the Anchorage defragmenting allocator with default parameters.
    pub fn with_anchorage(mut self) -> Self {
        self.service = ServiceChoice::Anchorage(AnchorageConfig::default());
        self
    }

    /// Install Anchorage with an explicit configuration.
    pub fn with_anchorage_config(mut self, config: AnchorageConfig) -> Self {
        self.service = ServiceChoice::Anchorage(config);
        self
    }

    /// Install a custom [`Service`] implementation.
    pub fn with_service(mut self, service: Box<dyn Service>) -> Self {
        self.service = ServiceChoice::Custom(service);
        self
    }

    /// Enable the handle-fault check on the translation path (§7 extension).
    pub fn with_handle_faults(mut self) -> Self {
        self.handle_faults = true;
        self
    }

    /// Install a telemetry hub on the built runtime (and its service).  With
    /// no hub, instrumentation stays a no-op and costs nothing measurable.
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Build the runtime.
    pub fn build(self) -> Runtime {
        let vm = self.vm.unwrap_or_default();
        let service: Box<dyn Service> = match self.service {
            ServiceChoice::Malloc => Box::new(MallocService::new(vm.clone())),
            ServiceChoice::Anchorage(cfg) => {
                Box::new(AnchorageService::with_config(vm.clone(), cfg))
            }
            ServiceChoice::Custom(s) => s,
        };
        let rt = Runtime::with_vm(vm, service);
        rt.enable_handle_faults(self.handle_faults);
        if let Some(hub) = self.telemetry {
            rt.install_telemetry(hub);
        }
        rt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_installs_the_requested_service() {
        let rt = AlaskaBuilder::new().build();
        assert_eq!(rt.service_name(), "malloc-passthrough");
        let rt = AlaskaBuilder::new().with_anchorage().build();
        assert_eq!(rt.service_name(), "anchorage");
    }

    #[test]
    fn builder_with_shared_vm_and_handle_faults() {
        let vm = VirtualMemory::default();
        let rt =
            AlaskaBuilder::new().with_vm(vm.clone()).with_anchorage().with_handle_faults().build();
        let h = rt.halloc(16).unwrap();
        rt.write_u64(h, 0, 3);
        rt.mark_invalid(h).unwrap();
        assert_eq!(rt.read_u64(h, 0), 3);
        assert_eq!(rt.stats().handle_faults, 1);
        assert_eq!(rt.rss_bytes(), vm.rss_bytes());
    }

    #[test]
    fn builder_installs_a_telemetry_hub() {
        let hub = Arc::new(Telemetry::new());
        let rt = AlaskaBuilder::new().with_anchorage().with_telemetry(hub.clone()).build();
        assert!(rt.telemetry().is_some());
        let handles: Vec<u64> = (0..500).map(|_| rt.halloc(128).unwrap()).collect();
        for (i, h) in handles.iter().enumerate() {
            if i % 3 != 0 {
                rt.hfree(*h).unwrap();
            }
        }
        rt.defragment(None);
        let snap = hub.registry().snapshot();
        match snap.get(alaska_runtime::telemetry_names::BARRIER_PAUSE_NS) {
            Some(telemetry::MetricValue::Histogram(h)) => assert!(h.count >= 1),
            other => panic!("expected pause histogram after defragment, got {other:?}"),
        }
    }

    #[test]
    fn custom_service_is_accepted() {
        use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
        // A service synchronises itself; for a bump pointer and a byte count
        // two atomics do.
        struct Bump {
            vm: VirtualMemory,
            base: alaska_heap::vmem::VirtAddr,
            cursor: AtomicU64,
            live: AtomicU64,
        }
        impl Service for Bump {
            fn alloc(&self, size: usize, _id: HandleId) -> Option<alaska_heap::vmem::VirtAddr> {
                let offset = self.cursor.fetch_add(alaska_heap::align_up(size as u64, 16), Relaxed);
                self.live.fetch_add(size as u64, Relaxed);
                let _ = &self.vm;
                Some(self.base.add(offset))
            }
            fn free(&self, _id: HandleId, _addr: alaska_heap::vmem::VirtAddr, size: usize) {
                self.live.fetch_sub(size as u64, Relaxed);
            }
            fn usable_size(&self, _addr: alaska_heap::vmem::VirtAddr) -> Option<usize> {
                None
            }
            fn heap_stats(&self) -> alaska_heap::AllocStats {
                alaska_heap::AllocStats {
                    live_bytes: self.live.load(Relaxed),
                    heap_extent: self.cursor.load(Relaxed),
                    ..Default::default()
                }
            }
            fn name(&self) -> &'static str {
                "bump-example"
            }
        }
        let vm = VirtualMemory::default();
        let base = vm.map(1 << 20);
        let rt = AlaskaBuilder::new()
            .with_vm(vm.clone())
            .with_service(Box::new(Bump { vm, base, cursor: 0.into(), live: 0.into() }))
            .build();
        let h = rt.halloc(64).unwrap();
        rt.write_u64(h, 0, 11);
        assert_eq!(rt.read_u64(h, 0), 11);
        assert_eq!(rt.service_name(), "bump-example");
    }
}
