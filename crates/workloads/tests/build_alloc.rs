//! Pins what `KernelProgram::build` allocates: a cursor per node, and
//! nothing that grows with the problem size. Counted by a global
//! allocator, so the figure is the same on any host.

use cenju4_sim::SystemConfig;
use cenju4_workloads::{AppKind, KernelProgram, Variant};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the bytes the current thread asks for while counting is on.
struct Counting;

thread_local! {
    static COUNTED: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = COUNTED.try_with(|c| {
        if let Some(n) = c.get() {
            c.set(Some(n + bytes as u64));
        }
    });
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counting only reads the requested sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller upholds `realloc`'s contract for `ptr`,
        // `layout` and `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes allocated by building dsm-gather's set-up program: CG dsm(2),
/// mapped, at `scale` on 128 nodes.
fn build_bytes(cfg: &SystemConfig, scale: f64) -> u64 {
    COUNTED.with(|c| c.set(Some(0)));
    let prog = KernelProgram::build(AppKind::Cg, Variant::Dsm2, true, cfg, scale);
    let bytes = COUNTED.with(|c| c.replace(None)).expect("counting was on");
    drop(prog);
    bytes
}

#[test]
fn build_allocates_per_node_state_only() {
    let cfg = SystemConfig::builder(128).build().unwrap();
    let small = build_bytes(&cfg, 0.25);
    assert!(small < 64 * 1024, "build allocated {small} bytes");
    let large = build_bytes(&cfg, 2.0);
    assert_eq!(large, small, "program memory grows with the problem size");
}
