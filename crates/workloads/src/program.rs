//! Per-node step streams for the four kernels, generated on demand.
//!
//! Each node's stream is a number of *rounds* (iterations, or iteration ×
//! sweep for the grid solvers), and each round a fixed sequence of
//! *phases*: loops whose bodies emit one to five steps. A node's
//! [`Cursor`] is its position in that nest — round, phase, loop index and
//! step inside the body — and `next_step` advances it by one step. The
//! program therefore holds O(nodes) state, whatever the problem size.

use crate::apps::{AppKind, AppParams, Variant};
use crate::array::{Mapping, SharedArray, MAX_BLOCKS};
use cenju4_des::Duration;
use cenju4_directory::NodeId;
use cenju4_sim::{ConfigError, Program, Step, SystemConfig};
use std::ops::Range;

#[cfg(test)]
mod reference;

/// A kernel's per-node step streams, generated as the run asks for them.
///
/// # Examples
///
/// ```
/// use cenju4_workloads::{AppKind, KernelProgram, Variant};
/// use cenju4_sim::SystemConfig;
///
/// let cfg = SystemConfig::builder(4).build()?;
/// let prog = KernelProgram::build(AppKind::Bt, Variant::Dsm1, true, &cfg, 0.25);
/// assert!(prog.total_steps() > 0);
/// # Ok::<(), cenju4_sim::ConfigError>(())
/// ```
pub struct KernelProgram {
    gen: Generator,
    cursors: Vec<Cursor>,
}

impl Program for KernelProgram {
    fn next_step(&mut self, node: NodeId) -> Option<Step> {
        self.gen
            .step(node.index(), &mut self.cursors[node.as_usize()])
    }
}

// A live workload run can be stepped from any thread (the service keeps
// each run behind its own lock).
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<cenju4_sim::Driver<KernelProgram>>();
};

impl KernelProgram {
    /// Builds the step streams for `(app, variant, mapping)` on the
    /// machine described by `cfg`, at problem-size multiplier `scale`.
    ///
    /// For [`Variant::Seq`] the whole problem runs on node 0 and `mapping`
    /// is ignored; for [`Variant::Mpi`] `mapping` is ignored (message
    /// passing uses private memory only).
    ///
    /// # Panics
    ///
    /// Panics if a shared-memory variant's arrays would exceed
    /// [`MAX_BLOCKS`]; [`KernelProgram::try_build`] reports that instead.
    pub fn build(
        app: AppKind,
        variant: Variant,
        mapping: bool,
        cfg: &SystemConfig,
        scale: f64,
    ) -> KernelProgram {
        Self::try_build(app, variant, mapping, cfg, scale)
            .unwrap_or_else(|e| panic!("program build rejected: {e}"))
    }

    /// [`KernelProgram::build`], returning
    /// [`ConfigError::ArrayTooLarge`] for a `scale` at which a
    /// shared-memory variant's arrays exceed [`MAX_BLOCKS`].
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ArrayTooLarge`] for an oversized array.
    pub fn try_build(
        app: AppKind,
        variant: Variant,
        mapping: bool,
        cfg: &SystemConfig,
        scale: f64,
    ) -> Result<KernelProgram, ConfigError> {
        let p = AppParams::for_app(app, scale);
        let shared = matches!(variant, Variant::Dsm1 | Variant::Dsm2);
        if shared && p.blocks > MAX_BLOCKS {
            return Err(ConfigError::ArrayTooLarge {
                blocks: p.blocks,
                max: MAX_BLOCKS,
            });
        }
        let nodes = cfg.sys.nodes();
        let mapping = Mapping::from_flag(mapping);
        let array = |id| SharedArray::new(id, p.blocks, nodes, mapping);
        let kernel = match (app, variant) {
            (_, Variant::Seq) => Kernel::Seq(app),
            (_, Variant::Mpi) => {
                let own = (p.blocks / nodes as u32).max(1) as u64;
                let bytes = match app {
                    // Boundary-plane exchange with two neighbors.
                    AppKind::Bt | AppKind::Sp => (own / p.boundary_div as u64).max(1) * 2 * 128,
                    // Allgather of the updated vector.
                    AppKind::Cg => p.blocks as u64 * 128,
                    // All-to-all transpose of the owned tiles.
                    AppKind::Ft => own * 128,
                };
                Kernel::Mpi {
                    app,
                    exchange: cfg.mpi_transfer(bytes),
                }
            }
            (AppKind::Bt | AppKind::Sp, Variant::Dsm1) => Kernel::GridDsm1 { grid: array(0) },
            (AppKind::Bt | AppKind::Sp, _) => Kernel::GridDsm2 {
                grid: array(0),
                left_buf: array(1),
                right_buf: array(2),
            },
            (AppKind::Cg, _) => Kernel::Cg {
                q: array(0),
                r: array(1),
                reuse: (p.gather_reuse / nodes as u32).max(1),
            },
            (AppKind::Ft, v) => Kernel::Ft {
                tiles: array(0),
                dsm2: v == Variant::Dsm2,
            },
        };
        Ok(KernelProgram {
            gen: Generator { kernel, p, nodes },
            cursors: vec![Cursor::START; nodes as usize],
        })
    }

    /// Estimated instructions node `node` executes over the whole
    /// program: ~8 per memory access, ~0.4 per think-nanosecond (an
    /// R10000-class 4-way core at ~200 MHz sustains a few hundred MIPS).
    pub fn node_instructions(&self, node: NodeId) -> u64 {
        self.steps(node.index())
            .map(|s| match s {
                Step::Access { reuse, .. } => 8 * reuse.max(1) as u64,
                Step::Think(d) => d.as_ns() * 2 / 5,
                Step::Barrier => 200,
            })
            .sum()
    }

    /// Estimated instructions across the machine.
    pub fn total_instructions(&self) -> u64 {
        self.nodes().map(|n| self.node_instructions(n)).sum()
    }

    /// The program's length in steps across all nodes, however far a
    /// run has advanced it.
    pub fn total_steps(&self) -> usize {
        self.nodes().map(|n| self.node_steps(n)).sum()
    }

    /// The length of node `node`'s stream, however far a run has
    /// advanced it.
    pub fn node_steps(&self, node: NodeId) -> usize {
        self.steps(node.index()).count()
    }

    fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.gen.nodes).map(NodeId::new)
    }

    /// Node `n`'s whole stream, from a fresh cursor.
    fn steps(&self, n: u16) -> impl Iterator<Item = Step> + '_ {
        let mut c = Cursor::START;
        std::iter::from_fn(move || self.gen.step(n, &mut c))
    }
}

/// Everything a node's stream depends on besides its cursor.
struct Generator {
    kernel: Kernel,
    p: AppParams,
    nodes: u16,
}

/// The loop nest a program runs, with the shared arrays it touches.
enum Kernel {
    /// The whole problem on node 0, private memory, no sync.
    Seq(AppKind),
    /// dsm(2)'s private compute plus explicitly costed exchanges;
    /// `exchange` is one node's MPI time per round.
    Mpi { app: AppKind, exchange: Duration },
    /// BT/SP dsm(1): each sweep parallelizes its own outermost loop, so
    /// the effective partition changes between sweeps and blocks migrate
    /// between caches every iteration.
    GridDsm1 { grid: SharedArray },
    /// BT/SP dsm(2): one fixed partition, all interior work in private
    /// memory, boundary planes pushed through receive buffers homed (when
    /// mapped) on the consuming node. `left_buf` holds, for each node,
    /// the plane its left neighbor pushes; `right_buf` the right.
    GridDsm2 {
        grid: SharedArray,
        left_buf: SharedArray,
        right_buf: SharedArray,
    },
    /// CG: whole-vector gathers of `q` with per-node reuse `reuse`, which
    /// shrinks as the machine grows; the result goes to `r`.
    Cg {
        q: SharedArray,
        r: SharedArray,
        reuse: u32,
    },
    /// FT: private butterflies plus an all-to-all transpose through
    /// shared tiles.
    Ft { tiles: SharedArray, dsm2: bool },
}

/// One node's position in its stream.
#[derive(Clone, Copy)]
struct Cursor {
    /// Rounds finished.
    round: u32,
    phase: Phase,
    /// Step inside the current loop body.
    sub: u8,
    /// Loop position inside the phase, and its end.
    i: u32,
    end: u32,
}

/// Where a cursor stands inside a round. Each kernel uses the phases it
/// needs; the emitted steps are the kernel's.
#[derive(Clone, Copy, Debug)]
enum Phase {
    /// About to start round `round`, or to finish after the last one.
    Start,
    /// Private compute, `[miss, think]` per visit.
    Compute,
    /// CG's read of the whole vector.
    Gather,
    /// CG's stores of the owned result slice.
    Scatter,
    /// CG's p/q swap: stores of the owned vector slice.
    Swap,
    /// mpi: one costed exchange.
    Exchange,
    /// mpi FT: the private pass after the transpose.
    Hits,
    /// dsm(1): block visits in a contiguous range…
    Blocks,
    /// …then the wrapped tail of a shifted partition…
    Wrapped,
    /// …or every `nodes`-th block from the node's index.
    Strided,
    /// dsm(2): boundary planes pushed into the neighbors' buffers.
    Push,
    /// dsm(2): the planes pushed to this node read back.
    Pull,
    /// FT: owned tiles published.
    Publish,
    /// FT: the transpose reads.
    Transpose,
    /// Past the last step.
    Done,
}

impl Cursor {
    const START: Cursor = Cursor {
        round: 0,
        phase: Phase::Start,
        sub: 0,
        i: 0,
        end: 0,
    };

    fn enter(&mut self, phase: Phase, range: Range<u32>) {
        self.phase = phase;
        self.i = range.start;
        self.end = range.end;
        self.sub = 0;
    }

    fn next_round(&mut self) {
        self.round += 1;
        self.phase = Phase::Start;
    }

    fn in_loop(&self) -> bool {
        self.i < self.end
    }

    /// The next step of a two-step loop body.
    fn pair(&mut self, first: Step, second: Step) -> Step {
        if self.tick(2) == 0 {
            first
        } else {
            second
        }
    }

    /// The step's position inside a loop body of `len` steps; the cursor
    /// moves past it.
    fn tick(&mut self, len: u8) -> u8 {
        let s = self.sub;
        if s + 1 == len {
            self.sub = 0;
            self.i += 1;
        } else {
            self.sub = s + 1;
        }
        s
    }
}

impl Generator {
    /// Advances node `n`'s cursor by one step.
    fn step(&self, n: u16, c: &mut Cursor) -> Option<Step> {
        loop {
            match c.phase {
                Phase::Done => return None,
                Phase::Start if c.round == self.rounds(n) => {
                    c.phase = Phase::Done;
                    return None;
                }
                _ => {}
            }
            if let Some(step) = self.advance(n, c) {
                return Some(step);
            }
        }
    }

    /// Moves node `n`'s cursor once: past its next step, which it returns,
    /// or on to the next phase or round, returning `None`. Kept out of
    /// `step`'s loop: inlined there, each phase's set-up arithmetic was
    /// hoisted in front of the loop and ran on every step, at several
    /// times the cost of emitting one.
    #[inline(never)]
    fn advance(&self, n: u16, c: &mut Cursor) -> Option<Step> {
        match self.kernel {
            Kernel::Seq(app) => self.seq(app, c),
            Kernel::Mpi { app, exchange } => self.mpi(app, exchange, c),
            Kernel::GridDsm1 { grid } => self.grid_dsm1(grid, n, c),
            Kernel::GridDsm2 {
                grid,
                left_buf,
                right_buf,
            } => self.grid_dsm2(grid, left_buf, right_buf, n, c),
            Kernel::Cg { q, r, reuse } => self.cg(q, r, reuse, n, c),
            Kernel::Ft { tiles, dsm2 } => self.ft(tiles, dsm2, n, c),
        }
    }

    /// Rounds in node `n`'s stream.
    fn rounds(&self, n: u16) -> u32 {
        let p = &self.p;
        match self.kernel {
            Kernel::Seq(_) if n != 0 => 0,
            Kernel::Mpi {
                app: AppKind::Bt | AppKind::Sp,
                ..
            }
            | Kernel::GridDsm1 { .. }
            | Kernel::GridDsm2 { .. } => p.iters * p.sweeps,
            _ => p.iters,
        }
    }

    // ------------------------------------------------------------------
    // seq: the whole problem on node 0, private memory, no sync.
    // ------------------------------------------------------------------
    fn seq(&self, app: AppKind, c: &mut Cursor) -> Option<Step> {
        let p = &self.p;
        match c.phase {
            Phase::Start => {
                let visits = match app {
                    AppKind::Bt | AppKind::Sp => p.blocks * p.sweeps,
                    // Compute passes + transpose passes, all private.
                    AppKind::Ft => p.blocks * 2,
                    // Matrix stream.
                    AppKind::Cg => p.matrix_factor * p.blocks,
                };
                c.enter(Phase::Compute, 0..visits);
            }
            Phase::Compute if c.in_loop() => {
                let (reuse, think) = match app {
                    AppKind::Cg => (p.reuse, p.think_ns / 4),
                    _ => (2 * p.reuse, p.think_ns),
                };
                return Some(c.pair(Step::private_miss(reuse), Step::think(think)));
            }
            Phase::Compute if app == AppKind::Cg => c.enter(Phase::Gather, 0..p.blocks),
            // Vector read with full single-node reuse + result.
            Phase::Gather if c.in_loop() => {
                let reuse = p.gather_reuse.max(1);
                return Some(match c.tick(3) {
                    0 => Step::private_miss(reuse),
                    1 => Step::think(p.think_ns * reuse as u64 / 8),
                    _ => Step::private_miss(2),
                });
            }
            Phase::Compute | Phase::Gather => c.next_round(),
            _ => unreachable!("seq has no {:?} phase", c.phase),
        }
        None
    }

    // ------------------------------------------------------------------
    // mpi: dsm(2)'s private compute + explicitly costed exchanges.
    // ------------------------------------------------------------------
    fn mpi(&self, app: AppKind, exchange: Duration, c: &mut Cursor) -> Option<Step> {
        let p = &self.p;
        let nodes = self.nodes as u32;
        let own = || (p.blocks / nodes).max(1);
        match c.phase {
            Phase::Start => {
                let visits = match app {
                    AppKind::Cg => (p.matrix_factor * p.blocks / nodes).max(1),
                    _ => own(),
                };
                c.enter(Phase::Compute, 0..visits);
            }
            Phase::Compute if c.in_loop() => {
                let (reuse, think) = match app {
                    AppKind::Cg => (p.reuse, p.think_ns / 4),
                    _ => (2 * p.reuse, p.think_ns),
                };
                return Some(c.pair(Step::private_miss(reuse), Step::think(think)));
            }
            Phase::Compute if app == AppKind::Cg => c.enter(Phase::Gather, 0..p.blocks),
            Phase::Gather if c.in_loop() => {
                let reuse = (p.gather_reuse / nodes).max(1);
                return Some(c.pair(
                    Step::private_miss(reuse),
                    Step::think(p.think_ns * reuse as u64 / 8),
                ));
            }
            Phase::Compute | Phase::Gather => c.enter(Phase::Exchange, 0..1),
            Phase::Exchange if c.in_loop() => {
                c.i += 1;
                return Some(Step::Think(exchange));
            }
            Phase::Exchange => {
                if app == AppKind::Ft {
                    c.enter(Phase::Hits, 0..own());
                } else {
                    c.next_round();
                }
                return Some(Step::Barrier);
            }
            Phase::Hits if c.in_loop() => {
                return Some(c.pair(Step::private_hit(p.reuse), Step::think(p.think_ns)));
            }
            Phase::Hits => {
                c.next_round();
                return Some(Step::Barrier);
            }
            _ => unreachable!("mpi has no {:?} phase", c.phase),
        }
        None
    }

    // ------------------------------------------------------------------
    // BT / SP shared-memory variants.
    // ------------------------------------------------------------------
    fn grid_dsm1(&self, grid: SharedArray, n: u16, c: &mut Cursor) -> Option<Step> {
        let p = &self.p;
        let nodes = self.nodes as u32;
        match c.phase {
            Phase::Start => match self.dsm1_shift(c.round) {
                Some(shift) => {
                    let own = grid.owned_range(NodeId::new(n));
                    c.enter(
                        Phase::Blocks,
                        own.start.max(shift) - shift..own.end.max(shift) - shift,
                    );
                }
                None => {
                    let visits = match n as u32 {
                        first if first < p.blocks => (p.blocks - first).div_ceil(nodes),
                        _ => 0,
                    };
                    c.enter(Phase::Strided, 0..visits);
                }
            },
            Phase::Blocks | Phase::Wrapped | Phase::Strided if c.in_loop() => {
                let b = match c.phase {
                    Phase::Strided => c.i * nodes + n as u32,
                    _ => c.i,
                };
                return Some(match c.tick(5) {
                    0 => Step::load_reuse(grid.addr(b), p.reuse),
                    // Stencil reads of the neighbouring planes: in the
                    // cross-partitioned sweeps these blocks belong to (and
                    // were just written by) other nodes — the naive
                    // program's penalty.
                    1 => Step::load_reuse(grid.addr((b + p.blocks - 1) % p.blocks), p.reuse / 2),
                    2 => Step::load_reuse(grid.addr((b + 1) % p.blocks), p.reuse / 2),
                    3 => Step::think(p.think_ns),
                    _ => Step::store_reuse(grid.addr(b), p.reuse),
                });
            }
            Phase::Blocks => {
                let shift = self
                    .dsm1_shift(c.round)
                    .expect("only contiguous sweeps visit blocks in ranges");
                let own = grid.owned_range(NodeId::new(n));
                let wrap = p.blocks - shift;
                c.enter(
                    Phase::Wrapped,
                    own.start.min(shift) + wrap..own.end.min(shift) + wrap,
                );
            }
            Phase::Wrapped | Phase::Strided => {
                c.next_round();
                return Some(Step::Barrier);
            }
            _ => unreachable!("dsm(1) has no {:?} phase", c.phase),
        }
        None
    }

    /// The dsm(1) partition of round `round`'s sweep. Sweep 0 and 1 use
    /// the contiguous partition (the second shifted by a quarter chunk),
    /// returned as that shift; sweep 2+ a strided one, `None` — loop nests
    /// over different dimensions partition the same data differently.
    /// Under a shift, node `n` visits its blocks in increasing order, so
    /// those of its range that wrap past the array's end come last.
    fn dsm1_shift(&self, round: u32) -> Option<u32> {
        let p = &self.p;
        match round % p.sweeps % 3 {
            0 => Some(0),
            1 => Some((p.blocks / self.nodes as u32).max(1) / 4),
            _ => None,
        }
    }

    fn grid_dsm2(
        &self,
        grid: SharedArray,
        left_buf: SharedArray,
        right_buf: SharedArray,
        n: u16,
        c: &mut Cursor,
    ) -> Option<Step> {
        let p = &self.p;
        let node = NodeId::new(n);
        match c.phase {
            // Interior compute in private memory.
            Phase::Start => c.enter(Phase::Compute, 0..grid.owned_range(node).len() as u32),
            Phase::Compute if c.in_loop() => {
                return Some(c.pair(Step::private_miss(2 * p.reuse), Step::think(p.think_ns)));
            }
            Phase::Compute => {
                let bd = ((grid.owned_range(node).len() as u32) / p.boundary_div).max(1);
                c.enter(Phase::Push, 0..bd);
            }
            // Push boundary planes into the neighbors' receive buffers…
            Phase::Push if c.in_loop() => {
                let i = c.i;
                return Some(match c.tick(2) {
                    0 => {
                        let left = NodeId::new((n + self.nodes - 1) % self.nodes);
                        let b = pick_in(&right_buf, left, i);
                        Step::store_reuse(right_buf.addr(b), p.reuse)
                    }
                    _ => {
                        let right = NodeId::new((n + 1) % self.nodes);
                        let b = pick_in(&left_buf, right, i);
                        Step::store_reuse(left_buf.addr(b), p.reuse)
                    }
                });
            }
            Phase::Push => c.enter(Phase::Pull, 0..c.end),
            // …and read the planes pushed to us.
            Phase::Pull if c.in_loop() => {
                let i = c.i;
                let buf = match c.tick(2) {
                    0 => left_buf,
                    _ => right_buf,
                };
                let b = pick_in(&buf, node, i);
                return Some(Step::load_reuse(buf.addr(b), p.reuse));
            }
            Phase::Pull => {
                c.next_round();
                return Some(Step::Barrier);
            }
            _ => unreachable!("dsm(2) has no {:?} phase", c.phase),
        }
        None
    }

    // ------------------------------------------------------------------
    // CG: whole-vector gathers with per-node reuse that shrinks as the
    // machine grows. Optimization and mapping do not change the pattern
    // (the paper: "optimizing memory access patterns and specifying data
    // mappings has no effect" on CG).
    // ------------------------------------------------------------------
    fn cg(
        &self,
        q: SharedArray,
        r: SharedArray,
        reuse: u32,
        n: u16,
        c: &mut Cursor,
    ) -> Option<Step> {
        let p = &self.p;
        let node = NodeId::new(n);
        match c.phase {
            Phase::Start => c.enter(Phase::Compute, 0..self.matrix_rows(n)),
            Phase::Compute if c.in_loop() => {
                return Some(c.pair(Step::private_miss(p.reuse), Step::think(p.think_ns / 4)));
            }
            // Gather: read the *entire* shared vector. Each node starts at
            // its own partition and wraps, as the row structure of a real
            // sparse matrix staggers accesses — otherwise every node would
            // hammer block 0's home at the same instant.
            Phase::Compute => {
                let start = q.owned_range(node).start;
                c.enter(Phase::Gather, start..start + p.blocks);
            }
            Phase::Gather if c.in_loop() => {
                let b = match c.i {
                    i if i < p.blocks => i,
                    i => i - p.blocks,
                };
                return Some(match c.tick(2) {
                    0 => Step::load_reuse(q.addr(b), reuse),
                    _ => Step::think(p.think_ns * reuse as u64 / 8),
                });
            }
            // Scatter the owned slice of the result.
            Phase::Gather => c.enter(Phase::Scatter, q.owned_range(node)),
            Phase::Scatter if c.in_loop() => {
                c.i += 1;
                return Some(Step::store_reuse(r.addr(c.i - 1), reuse));
            }
            // p/q swap: the result becomes next iteration's vector — the
            // owners' stores invalidate every cached copy machine-wide.
            Phase::Scatter => {
                c.enter(Phase::Swap, q.owned_range(node));
                return Some(Step::Barrier);
            }
            Phase::Swap if c.in_loop() => {
                c.i += 1;
                return Some(Step::store_reuse(q.addr(c.i - 1), 2));
            }
            Phase::Swap => {
                c.next_round();
                return Some(Step::Barrier);
            }
            _ => unreachable!("CG has no {:?} phase", c.phase),
        }
        None
    }

    /// Node `n`'s share of CG's sparse matrix, in blocks. The matrix
    /// streams through private memory: much larger than the vector and
    /// split evenly across nodes — except that row lengths vary, and the
    /// imbalance a node sees grows as its row count shrinks (~sqrt(n)).
    /// This is what drives CG's sync-time fraction from ~7% at 16 nodes
    /// to ~25% at 128 in Table 4.
    fn matrix_rows(&self, n: u16) -> u32 {
        let p = &self.p;
        let matrix_base = (p.matrix_factor * p.blocks / self.nodes as u32).max(1);
        let spread = 0.5 * (self.nodes as f64 / 128.0).sqrt();
        let h = {
            let mut x = n as u64 + 0x9E37;
            x = (x ^ (x >> 13)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            (x >> 40) as f64 / (1u64 << 24) as f64
        };
        ((matrix_base as f64) * (1.0 + spread * h)).round() as u32
    }

    // ------------------------------------------------------------------
    // FT: private butterflies + all-to-all transpose through shared tiles.
    // ------------------------------------------------------------------
    fn ft(&self, tiles: SharedArray, dsm2: bool, n: u16, c: &mut Cursor) -> Option<Step> {
        let p = &self.p;
        let node = NodeId::new(n);
        // Transpose read: node n reads a 1/n stripe of every other node's
        // tiles. The naive variant's loop order re-reads each remote tile
        // several times with poor blocking (more stripes, less reuse per
        // visit); dsm(2)'s loop translation fixes that.
        let (stripe_scale, read_reuse) = match dsm2 {
            false => (4u32, (p.reuse / 8).max(1)),
            true => (1u32, p.reuse / 2),
        };
        match c.phase {
            // Local FFT passes; dsm(2) moves more of the line-FFT work
            // into private memory.
            Phase::Start => {
                let private_fraction = if dsm2 { 2 } else { 1 };
                let own = tiles.owned_range(node).len() as u32;
                c.enter(Phase::Compute, 0..own * private_fraction);
            }
            Phase::Compute if c.in_loop() => {
                return Some(c.pair(Step::private_miss(p.reuse), Step::think(p.think_ns)));
            }
            // Publish owned tiles: written by their owner, read
            // all-to-all. When mapped, the write side is local; the read
            // side is remote (1/n local).
            Phase::Compute => c.enter(Phase::Publish, tiles.owned_range(node)),
            Phase::Publish if c.in_loop() => {
                c.i += 1;
                return Some(Step::store_reuse(tiles.addr(c.i - 1), p.reuse / 2));
            }
            Phase::Publish => {
                let per_node = ((p.blocks / self.nodes as u32).max(1) * stripe_scale).min(p.blocks);
                c.enter(Phase::Transpose, 0..per_node);
                return Some(Step::Barrier);
            }
            Phase::Transpose if c.in_loop() => {
                let k = c.i as u64;
                return Some(match c.tick(2) {
                    0 => {
                        // Deterministic spread over the whole tile array.
                        let b = (k * 2654435761 + n as u64 * 97) % p.blocks as u64;
                        Step::load_reuse(tiles.addr(b as u32), read_reuse)
                    }
                    _ => Step::think(p.think_ns / 2 / stripe_scale as u64),
                });
            }
            Phase::Transpose => {
                c.next_round();
                return Some(Step::Barrier);
            }
            _ => unreachable!("FT has no {:?} phase", c.phase),
        }
        None
    }
}

/// Picks the `i`-th block `node` owns in `array`, clamped to the end of
/// its range. A node that owns no block gets the block its range would
/// start at — the next owner's first — or, past the array's end, the
/// array's last block.
fn pick_in(array: &SharedArray, node: NodeId, i: u32) -> u32 {
    let range = array.owned_range(node);
    if range.is_empty() {
        range.start.min(array.blocks() - 1)
    } else {
        (range.start + i).min(range.end - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cenju4_sim::{Driver, SystemConfig};

    fn cfg(n: u16) -> SystemConfig {
        SystemConfig::builder(n).build().unwrap()
    }

    /// Every case of the on-demand program, step by step, per node and
    /// to the end, against the materialising reference builder — over
    /// node counts that are not powers of two too (uneven `owned_range`
    /// partitions, clamped `pick_in` planes, wrapping dsm(1) sweeps) and
    /// machines with more nodes than some arrays have blocks.
    fn matches_reference(app: AppKind) {
        for nodes in [2u16, 3, 4, 16, 100, 128] {
            let cfg = cfg(nodes);
            for scale in [0.02, 0.1, 0.25, 1.0] {
                for v in [Variant::Seq, Variant::Mpi, Variant::Dsm1, Variant::Dsm2] {
                    for mapping in [true, false] {
                        let case = format!("{app} {v} mapping={mapping} n={nodes} scale={scale}");
                        let queues = reference::queues(app, v, mapping, &cfg, scale);
                        let mut prog = KernelProgram::build(app, v, mapping, &cfg, scale);
                        let mut total_instructions = 0;
                        for (n, queue) in queues.iter().enumerate() {
                            let node = NodeId::new(n as u16);
                            let instructions: u64 = queue
                                .iter()
                                .map(|s| match s {
                                    Step::Access { reuse, .. } => 8 * (*reuse).max(1) as u64,
                                    Step::Think(d) => d.as_ns() * 2 / 5,
                                    Step::Barrier => 200,
                                })
                                .sum();
                            total_instructions += instructions;
                            assert_eq!(prog.node_steps(node), queue.len(), "{case} node {n}");
                            assert_eq!(prog.node_instructions(node), instructions, "{case}");
                            for (k, want) in queue.iter().enumerate() {
                                let got = prog.next_step(node);
                                assert_eq!(got, Some(*want), "{case} node {n} step {k}");
                            }
                            assert_eq!(prog.next_step(node), None, "{case} node {n} ends");
                            assert_eq!(prog.next_step(node), None, "{case} node {n} stays done");
                        }
                        let total: usize = queues.iter().map(|q| q.len()).sum();
                        assert_eq!(prog.total_steps(), total, "{case}");
                        assert_eq!(prog.total_instructions(), total_instructions, "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn bt_matches_reference() {
        matches_reference(AppKind::Bt);
    }

    #[test]
    fn cg_matches_reference() {
        matches_reference(AppKind::Cg);
    }

    #[test]
    fn ft_matches_reference() {
        matches_reference(AppKind::Ft);
    }

    #[test]
    fn sp_matches_reference() {
        matches_reference(AppKind::Sp);
    }

    #[test]
    fn lengths_do_not_shrink_as_a_run_consumes_the_program() {
        let cfg = cfg(4);
        let mut prog = KernelProgram::build(AppKind::Cg, Variant::Dsm2, true, &cfg, 0.1);
        let before: Vec<usize> = prog.nodes().map(|n| prog.node_steps(n)).collect();
        let (total, instructions) = (prog.total_steps(), prog.total_instructions());
        Driver::new(&cfg, |n| prog.next_step(n)).run();
        assert_eq!(prog.next_step(NodeId::new(0)), None, "the run drained it");
        let after: Vec<usize> = prog.nodes().map(|n| prog.node_steps(n)).collect();
        assert_eq!(after, before);
        assert_eq!(prog.total_steps(), total);
        assert_eq!(prog.total_instructions(), instructions);
    }

    #[test]
    fn blockless_nodes_push_inside_the_array() {
        // 100 nodes over BT's 41 blocks: the last nodes own none, and
        // their boundary planes must still be blocks of the machine.
        for app in [AppKind::Bt, AppKind::Sp] {
            for mapping in [true, false] {
                let report =
                    crate::runner::run_workload(app, Variant::Dsm2, mapping, 100, 0.02).unwrap();
                assert!(report.total_time().as_ns() > 0, "{app} mapping={mapping}");
            }
        }
    }

    #[test]
    fn all_variants_build_nonempty() {
        for app in AppKind::ALL {
            for v in [Variant::Seq, Variant::Mpi, Variant::Dsm1, Variant::Dsm2] {
                let prog = KernelProgram::build(app, v, true, &cfg(4), 0.1);
                assert!(prog.total_steps() > 0, "{app} {v}");
            }
        }
    }

    #[test]
    fn seq_runs_only_on_node_zero() {
        let prog = KernelProgram::build(AppKind::Bt, Variant::Seq, true, &cfg(4), 0.1);
        assert!(prog.node_steps(NodeId::new(0)) > 0);
        for n in 1..4u16 {
            assert_eq!(prog.node_steps(NodeId::new(n)), 0);
        }
    }

    #[test]
    fn dsm_variants_balance_work() {
        for app in AppKind::ALL {
            let prog = KernelProgram::build(app, Variant::Dsm2, true, &cfg(4), 0.2);
            let counts: Vec<usize> = (0..4).map(|n| prog.node_steps(NodeId::new(n))).collect();
            let max = *counts.iter().max().unwrap();
            let min = *counts.iter().min().unwrap();
            assert!(
                max - min <= max / 2 + 8,
                "{app}: unbalanced steps {counts:?}"
            );
        }
    }

    #[test]
    fn dsm1_moves_blocks_between_sweeps() {
        // The strided sweep must assign at least some blocks to a node
        // other than the contiguous owner.
        let p = AppParams::for_app(AppKind::Bt, 0.1);
        let cfg = cfg(4);
        let b = reference::Builder::new(&cfg);
        let moved = (0..p.blocks)
            .filter(|&blk| b.sweep_owner(&p, 0, blk) != b.sweep_owner(&p, 2, blk))
            .count();
        assert!(moved as u32 > p.blocks / 2, "only {moved} blocks migrate");
    }

    #[test]
    fn mpi_variant_has_no_shared_accesses() {
        let mut prog = KernelProgram::build(AppKind::Ft, Variant::Mpi, true, &cfg(4), 0.1);
        for n in 0..4 {
            while let Some(s) = prog.next_step(NodeId::new(n)) {
                if let Step::Access { target, .. } = s {
                    assert!(
                        !matches!(target, cenju4_sim::Target::Shared(_)),
                        "mpi must not touch DSM"
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod instruction_tests {
    use super::*;
    use cenju4_sim::SystemConfig;

    #[test]
    fn per_node_instructions_scale_down_with_nodes() {
        // Table 4: "the numbers of total executed instructions ...
        // decrease with an increase in the number of nodes" (per node).
        let c16 = SystemConfig::builder(16).build().unwrap();
        let c64 = SystemConfig::builder(64).build().unwrap();
        let p16 = KernelProgram::build(AppKind::Bt, Variant::Dsm2, true, &c16, 0.5);
        let p64 = KernelProgram::build(AppKind::Bt, Variant::Dsm2, true, &c64, 0.5);
        let n16 = p16.node_instructions(NodeId::new(0));
        let n64 = p64.node_instructions(NodeId::new(0));
        assert!(
            n64 * 3 < n16,
            "per-node work must shrink ~4x: {n16} -> {n64}"
        );
        // Total work is roughly node-count independent (same problem).
        let t16 = p16.total_instructions() as f64;
        let t64 = p64.total_instructions() as f64;
        assert!(
            (t64 / t16 - 1.0).abs() < 0.35,
            "total work drifted: {t16} vs {t64}"
        );
    }

    #[test]
    fn seq_and_parallel_totals_are_comparable() {
        let c = SystemConfig::builder(8).build().unwrap();
        let seq = KernelProgram::build(AppKind::Sp, Variant::Seq, true, &c, 0.25);
        let par = KernelProgram::build(AppKind::Sp, Variant::Dsm2, true, &c, 0.25);
        let ratio = par.total_instructions() as f64 / seq.total_instructions() as f64;
        assert!(
            (0.6..=1.8).contains(&ratio),
            "parallel/seq instruction ratio {ratio:.2} out of range"
        );
    }
}
