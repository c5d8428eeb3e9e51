//! The materialising step builder, kept as the reference the on-demand
//! cursors of [`KernelProgram`](super::KernelProgram) are tested against:
//! it writes every step of every node into a queue up front.

use super::pick_in;
use crate::apps::{AppKind, AppParams, Variant};
use crate::array::{Mapping, SharedArray};
use cenju4_directory::NodeId;
use cenju4_sim::{Step, SystemConfig};
use std::collections::VecDeque;

/// Every node's full step queue for `(app, variant, mapping)` on `cfg`
/// at `scale`.
pub(super) fn queues(
    app: AppKind,
    variant: Variant,
    mapping: bool,
    cfg: &SystemConfig,
    scale: f64,
) -> Vec<VecDeque<Step>> {
    let p = AppParams::for_app(app, scale);
    let mut b = Builder::new(cfg);
    match (app, variant) {
        (_, Variant::Seq) => b.seq(app, &p),
        (_, Variant::Mpi) => b.mpi(app, &p),
        (AppKind::Bt | AppKind::Sp, v) => b.grid_solver(&p, v, Mapping::from_flag(mapping)),
        (AppKind::Cg, _) => b.cg(&p, Mapping::from_flag(mapping)),
        (AppKind::Ft, v) => b.ft(&p, v, Mapping::from_flag(mapping)),
    }
    b.queues
}

/// Stream builder with per-node emit helpers.
pub(super) struct Builder<'a> {
    queues: Vec<VecDeque<Step>>,
    nodes: u16,
    /// The machine, for its MPI cost model.
    cfg: &'a SystemConfig,
}

impl<'a> Builder<'a> {
    pub(super) fn new(cfg: &'a SystemConfig) -> Self {
        let nodes = cfg.sys.nodes();
        Builder {
            queues: (0..nodes).map(|_| VecDeque::new()).collect(),
            nodes,
            cfg,
        }
    }

    fn emit(&mut self, node: u16, step: Step) {
        self.queues[node as usize].push_back(step);
    }

    fn barrier_all(&mut self) {
        for n in 0..self.nodes {
            self.emit(n, Step::Barrier);
        }
    }

    fn mpi_exchange(&mut self, node: u16, bytes: u64) {
        let t = self.cfg.mpi_transfer(bytes);
        self.emit(node, Step::Think(t));
    }

    // ------------------------------------------------------------------
    // seq: the whole problem on node 0, private memory, no sync.
    // ------------------------------------------------------------------
    fn seq(&mut self, app: AppKind, p: &AppParams) {
        match app {
            AppKind::Bt | AppKind::Sp => {
                for _ in 0..p.iters {
                    for _ in 0..p.blocks * p.sweeps {
                        self.emit(0, Step::private_miss(2 * p.reuse));
                        self.emit(0, Step::think(p.think_ns));
                    }
                }
            }
            AppKind::Ft => {
                for _ in 0..p.iters {
                    // Compute passes + transpose passes, all private.
                    for _ in 0..p.blocks * 2 {
                        self.emit(0, Step::private_miss(2 * p.reuse));
                        self.emit(0, Step::think(p.think_ns));
                    }
                }
            }
            AppKind::Cg => {
                for _ in 0..p.iters {
                    // Matrix stream.
                    for _ in 0..p.matrix_factor * p.blocks {
                        self.emit(0, Step::private_miss(p.reuse));
                        self.emit(0, Step::think(p.think_ns / 4));
                    }
                    // Vector read with full single-node reuse + result.
                    for _ in 0..p.blocks {
                        self.emit(0, Step::private_miss(p.gather_reuse.max(1)));
                        self.emit(
                            0,
                            Step::think(p.think_ns * p.gather_reuse.max(1) as u64 / 8),
                        );
                        self.emit(0, Step::private_miss(2));
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // mpi: dsm(2)'s private compute + explicitly costed exchanges.
    // ------------------------------------------------------------------
    fn mpi(&mut self, app: AppKind, p: &AppParams) {
        let own = (p.blocks / self.nodes as u32).max(1);
        for _ in 0..p.iters {
            match app {
                AppKind::Bt | AppKind::Sp => {
                    for _ in 0..p.sweeps {
                        for n in 0..self.nodes {
                            for _ in 0..own {
                                self.emit(n, Step::private_miss(2 * p.reuse));
                                self.emit(n, Step::think(p.think_ns));
                            }
                            // Boundary-plane exchange with two neighbors.
                            let bd = (own / p.boundary_div).max(1) as u64;
                            self.mpi_exchange(n, bd * 2 * 128);
                        }
                        self.barrier_all();
                    }
                }
                AppKind::Cg => {
                    let matrix_per_node = (p.matrix_factor * p.blocks / self.nodes as u32).max(1);
                    let reuse = (p.gather_reuse / self.nodes as u32).max(1);
                    for n in 0..self.nodes {
                        for _ in 0..matrix_per_node {
                            self.emit(n, Step::private_miss(p.reuse));
                            self.emit(n, Step::think(p.think_ns / 4));
                        }
                        for _ in 0..p.blocks {
                            self.emit(n, Step::private_miss(reuse));
                            self.emit(n, Step::think(p.think_ns * reuse as u64 / 8));
                        }
                        // Allgather of the updated vector.
                        self.mpi_exchange(n, p.blocks as u64 * 128);
                    }
                    self.barrier_all();
                }
                AppKind::Ft => {
                    for n in 0..self.nodes {
                        for _ in 0..own {
                            self.emit(n, Step::private_miss(2 * p.reuse));
                            self.emit(n, Step::think(p.think_ns));
                        }
                        // All-to-all transpose of the owned tiles.
                        self.mpi_exchange(n, own as u64 * 128);
                    }
                    self.barrier_all();
                    for n in 0..self.nodes {
                        for _ in 0..own {
                            self.emit(n, Step::private_hit(p.reuse));
                            self.emit(n, Step::think(p.think_ns));
                        }
                    }
                    self.barrier_all();
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // BT / SP shared-memory variants.
    // ------------------------------------------------------------------

    /// dsm(1): each sweep parallelizes its own outermost loop, so the
    /// effective partition changes between sweeps and blocks migrate
    /// between caches every iteration. dsm(2): one fixed partition, all
    /// interior work in private memory, boundary planes pushed through
    /// receive buffers homed (when mapped) on the consuming node.
    fn grid_solver(&mut self, p: &AppParams, v: Variant, mapping: Mapping) {
        let grid = SharedArray::new(0, p.blocks, self.nodes, mapping);
        match v {
            Variant::Dsm1 => {
                for _ in 0..p.iters {
                    for sweep in 0..p.sweeps {
                        for b in 0..p.blocks {
                            let n = self.sweep_owner(p, sweep, b);
                            self.emit(n, Step::load_reuse(grid.addr(b), p.reuse));
                            // Stencil reads of the neighbouring planes: in
                            // the cross-partitioned sweeps these blocks
                            // belong to (and were just written by) other
                            // nodes — the naive program's penalty.
                            let left = (b + p.blocks - 1) % p.blocks;
                            let right = (b + 1) % p.blocks;
                            self.emit(n, Step::load_reuse(grid.addr(left), p.reuse / 2));
                            self.emit(n, Step::load_reuse(grid.addr(right), p.reuse / 2));
                            self.emit(n, Step::think(p.think_ns));
                            self.emit(n, Step::store_reuse(grid.addr(b), p.reuse));
                        }
                        self.barrier_all();
                    }
                }
            }
            Variant::Dsm2 => {
                // Boundary receive buffers: array 1 holds, for each node,
                // the plane its left neighbor pushes; array 2 the right.
                // Under `Partitioned` mapping each buffer block is homed on
                // its consuming (owner) node — the push writes remotely,
                // the consuming load is a *local* miss.
                let left_buf = SharedArray::new(1, p.blocks, self.nodes, mapping);
                let right_buf = SharedArray::new(2, p.blocks, self.nodes, mapping);
                for _ in 0..p.iters {
                    for _ in 0..p.sweeps {
                        for n in 0..self.nodes {
                            let own = grid.owned_range(NodeId::new(n));
                            let bd = ((own.len() as u32) / p.boundary_div).max(1);
                            // Interior compute in private memory.
                            for _ in own.clone() {
                                self.emit(n, Step::private_miss(2 * p.reuse));
                                self.emit(n, Step::think(p.think_ns));
                            }
                            // Push boundary planes into the neighbors'
                            // receive buffers…
                            let left = (n + self.nodes - 1) % self.nodes;
                            let right = (n + 1) % self.nodes;
                            for i in 0..bd {
                                let lb = pick_in(&right_buf, NodeId::new(left), i);
                                self.emit(n, Step::store_reuse(right_buf.addr(lb), p.reuse));
                                let rb = pick_in(&left_buf, NodeId::new(right), i);
                                self.emit(n, Step::store_reuse(left_buf.addr(rb), p.reuse));
                            }
                            // …and read the planes pushed to us.
                            for i in 0..bd {
                                let lb = pick_in(&left_buf, NodeId::new(n), i);
                                self.emit(n, Step::load_reuse(left_buf.addr(lb), p.reuse));
                                let rb = pick_in(&right_buf, NodeId::new(n), i);
                                self.emit(n, Step::load_reuse(right_buf.addr(rb), p.reuse));
                            }
                        }
                        self.barrier_all();
                    }
                }
            }
            Variant::Seq | Variant::Mpi => unreachable!("handled by caller"),
        }
    }

    /// The node working on block `b` during `sweep` in dsm(1): sweep 0 and
    /// 1 use the contiguous partition (the second shifted by a quarter
    /// chunk), sweep 2+ a strided one — loop nests over different
    /// dimensions partition the same data differently.
    pub(super) fn sweep_owner(&self, p: &AppParams, sweep: u32, b: u32) -> u16 {
        let n = self.nodes as u32;
        match sweep % 3 {
            0 => (b as u64 * n as u64 / p.blocks as u64) as u16,
            1 => {
                let chunk = (p.blocks / n).max(1);
                let shifted = (b + chunk / 4) % p.blocks;
                (shifted as u64 * n as u64 / p.blocks as u64) as u16
            }
            _ => (b % n) as u16,
        }
    }

    // ------------------------------------------------------------------
    // CG: whole-vector gathers with per-node reuse that shrinks as the
    // machine grows. Optimization and mapping do not change the pattern
    // (the paper: "optimizing memory access patterns and specifying data
    // mappings has no effect" on CG).
    // ------------------------------------------------------------------
    fn cg(&mut self, p: &AppParams, mapping: Mapping) {
        let q = SharedArray::new(0, p.blocks, self.nodes, mapping);
        let r = SharedArray::new(1, p.blocks, self.nodes, mapping);
        let reuse = (p.gather_reuse / self.nodes as u32).max(1);
        // The sparse matrix streams through private memory: much larger
        // than the vector and split evenly across nodes — except that row
        // lengths vary, and the imbalance a node sees grows as its row
        // count shrinks (~sqrt(n)). This is what drives CG's sync-time
        // fraction from ~7% at 16 nodes to ~25% at 128 in Table 4.
        let matrix_base = (p.matrix_factor * p.blocks / self.nodes as u32).max(1);
        let spread = 0.5 * (self.nodes as f64 / 128.0).sqrt();
        for _ in 0..p.iters {
            for n in 0..self.nodes {
                let h = {
                    let mut x = n as u64 + 0x9E37;
                    x = (x ^ (x >> 13)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
                    (x >> 40) as f64 / (1u64 << 24) as f64
                };
                let matrix_per_node = ((matrix_base as f64) * (1.0 + spread * h)).round() as u32;
                let own = q.owned_range(NodeId::new(n));
                for _ in 0..matrix_per_node {
                    self.emit(n, Step::private_miss(p.reuse));
                    self.emit(n, Step::think(p.think_ns / 4));
                }
                // Gather: read the *entire* shared vector. Each node
                // starts at its own partition and wraps, as the row
                // structure of a real sparse matrix staggers accesses —
                // otherwise every node would hammer block 0's home at
                // the same instant.
                for k in 0..p.blocks {
                    let b = (k + own.start) % p.blocks;
                    self.emit(n, Step::load_reuse(q.addr(b), reuse));
                    self.emit(n, Step::think(p.think_ns * reuse as u64 / 8));
                }
                // Scatter the owned slice of the result.
                for b in own {
                    self.emit(n, Step::store_reuse(r.addr(b), reuse));
                }
            }
            self.barrier_all();
            // p/q swap: the result becomes next iteration's vector — the
            // owners' stores invalidate every cached copy machine-wide.
            for n in 0..self.nodes {
                for b in q.owned_range(NodeId::new(n)) {
                    self.emit(n, Step::store_reuse(q.addr(b), 2));
                }
            }
            self.barrier_all();
        }
    }

    // ------------------------------------------------------------------
    // FT: private butterflies + all-to-all transpose through shared tiles.
    // ------------------------------------------------------------------
    fn ft(&mut self, p: &AppParams, v: Variant, mapping: Mapping) {
        // Tiles written by their owner, read all-to-all. When mapped, the
        // write side is local; the read side is remote (1/n local).
        let tiles = SharedArray::new(0, p.blocks, self.nodes, mapping);
        // dsm(2) moves more of the line-FFT work into private memory.
        let private_fraction = match v {
            Variant::Dsm1 => 1u32,
            Variant::Dsm2 => 2u32,
            _ => unreachable!("handled by caller"),
        };
        for _ in 0..p.iters {
            for n in 0..self.nodes {
                let own = tiles.owned_range(NodeId::new(n));
                // Local FFT passes.
                for _ in 0..(own.len() as u32 * private_fraction) {
                    self.emit(n, Step::private_miss(p.reuse));
                    self.emit(n, Step::think(p.think_ns));
                }
                // Publish owned tiles.
                for b in own.clone() {
                    self.emit(n, Step::store_reuse(tiles.addr(b), p.reuse / 2));
                }
            }
            self.barrier_all();
            // Transpose read: node n reads a 1/n stripe of every other
            // node's tiles. The naive variant's loop order re-reads each
            // remote tile several times with poor blocking (more stripes,
            // less reuse per visit); dsm(2)'s loop translation fixes that.
            let (stripe_scale, read_reuse) = match v {
                Variant::Dsm1 => (4u32, (p.reuse / 8).max(1)),
                _ => (1u32, p.reuse / 2),
            };
            for n in 0..self.nodes {
                let per_node = ((p.blocks / self.nodes as u32).max(1) * stripe_scale).min(p.blocks);
                for k in 0..per_node {
                    // Deterministic spread over the whole tile array.
                    let b = (k as u64 * 2654435761 + n as u64 * 97) % p.blocks as u64;
                    self.emit(n, Step::load_reuse(tiles.addr(b as u32), read_reuse));
                    self.emit(n, Step::think(p.think_ns / 2 / stripe_scale as u64));
                }
            }
            self.barrier_all();
        }
    }
}
