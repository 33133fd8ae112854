//! The three workloads: their inputs, set-up, requests and correctness
//! gates. Each drives the program only through its public functions.

use std::sync::Arc;
use std::time::Instant;

use memsci_core::dispatch::{choose_target, Target};
use memsci_core::service::{solve_concurrent, EngineSpec, OperatorCache, SharedOperator};
use memsci_core::{
    AcceleratorConfig, AcceleratorPlatform, ExactAcceleratorPlatform, ExactOperator, ExactOptions,
};
use memsci_gpu::GpuPlatform;
use memsci_solvers::block_cg::block_cg;
use memsci_solvers::platform::{true_relative_residual, CsrPlatform, Platform};
use memsci_solvers::{bicgstab::bicgstab, cg::cg, SolveOptions, SolveReport};
use memsci_sparse::blocking::{BlockedMatrix, BlockingConfig};
use memsci_sparse::suite::by_name;
use memsci_sparse::Csr;
use memsci_xbar::{CellSpec, FaultModel};

use crate::gen::{self, Digest, Rng};
use crate::trace::{self, Traced};

/// Which workload a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Converged noise-free bit-exact solves.
    ExactSolve,
    /// Analog-path Monte-Carlo trials.
    AnalogMc,
    /// `solve_concurrent` calls through one operator cache.
    ServiceMix,
}

impl Kind {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::ExactSolve, Kind::AnalogMc, Kind::ServiceMix];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ExactSolve => "exact_solve",
            Kind::AnalogMc => "analog_mc",
            Kind::ServiceMix => "service_mix",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Requests per cycle. A run ends only at a cycle boundary, so
    /// every run covers whole cycles of the request mix.
    pub fn cycle(self) -> usize {
        match self {
            Kind::ExactSolve => EXACT_CYCLE.len(),
            Kind::AnalogMc => ANALOG_POINTS.len(),
            Kind::ServiceMix => SERVICE_MATRICES.iter().map(|(_, calls)| calls).sum(),
        }
    }

    /// Requests every run serves, whatever its length. The simulated
    /// statistics cover exactly these, so they depend on the seed alone
    /// and never on how fast the host got through the run.
    pub fn fixed_requests(self) -> usize {
        self.cycle()
            * match self {
                Kind::ExactSolve => 3,
                Kind::AnalogMc => 4,
                Kind::ServiceMix => 5,
            }
    }

    /// The percentile `solve_s_tail` reports, fixed per workload so runs
    /// stay comparable; each run holds at least ten samples beyond it.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Kind::ExactSolve => 0.8,
            Kind::AnalogMc => 0.75,
            Kind::ServiceMix => 0.99,
        }
    }

    fn salt(self) -> u64 {
        match self {
            Kind::ExactSolve => 0x6578_6163,
            Kind::AnalogMc => 0x616e_616c,
            Kind::ServiceMix => 0x7365_7276,
        }
    }
}

/// Workload size: the benchmark's own, or a reduced one for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A small size with the same structure, for the benchmark's tests.
    Reduced,
}

/// One request, as generated from the seed (inputs only).
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// A solve (k = 1) or a `block_cg` batch on one exact operator.
    Exact {
        /// Index into the exact matrix list.
        matrix: usize,
        /// Right-hand sides (more than one: a batched request).
        rhs: Vec<Vec<f64>>,
    },
    /// One Monte-Carlo trial: program with the trial seed, then CG.
    Analog {
        /// Index into [`ANALOG_POINTS`].
        point: usize,
        /// Programming and read-noise seed of the trial.
        trial_seed: u64,
        /// The trial's source vector.
        rhs: Vec<f64>,
    },
    /// One `solve_concurrent` call.
    Service {
        /// Index into the service matrix list.
        matrix: usize,
        /// Its k right-hand sides.
        rhs: Vec<Vec<f64>>,
    },
}

/// One solved right-hand side.
#[derive(Debug, Clone)]
pub struct Solve {
    /// Solver iterations.
    pub iterations: usize,
    /// The solver's converged verdict.
    pub converged: bool,
    /// Simulated seconds charged to this right-hand side.
    pub model_s: f64,
    /// Simulated joules charged to this right-hand side.
    pub model_j: f64,
    /// True relative residual recomputed on [`CsrPlatform`] (set by the
    /// gate).
    pub csr_residual: f64,
    /// The solution.
    pub x: Vec<f64>,
}

impl Solve {
    fn from_report(r: &SolveReport, x: Vec<f64>) -> Solve {
        Solve {
            iterations: r.iterations,
            converged: r.converged,
            model_s: r.time_seconds,
            model_j: r.energy_joules,
            csr_residual: f64::NAN,
            x,
        }
    }
}

/// What one request produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Solves, one per right-hand side.
    pub solves: Vec<Solve>,
    /// Simulated SpMVs the request issued.
    pub sim_spmvs: u64,
    /// The call ran on the GPU model (service dispatch).
    pub gpu: bool,
}

impl Outcome {
    /// Bitwise digest of every output: solutions, iteration counts,
    /// verdicts and simulated cost.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for s in &self.solves {
            d.word(s.iterations as u64);
            d.word(u64::from(s.converged));
            d.word(s.model_s.to_bits());
            d.word(s.model_j.to_bits());
            d.floats(&s.x);
        }
        d.word(u64::from(self.gpu));
        d.0
    }
}

/// Host-time probes a traced `service_mix` run takes after each call,
/// outside the timed request: the public steps `solve_concurrent` runs
/// inside, which the benchmark cannot span from outside.
#[derive(Debug, Clone, Default)]
pub struct Probes {
    /// Seconds of one `BlockedMatrix::block` of the called matrix.
    pub block_s: Vec<f64>,
    /// Seconds of one `get_or_program` hit on the called operator.
    pub lookup_hit_s: Vec<f64>,
    /// Seconds of one `open_session` on the called operator.
    pub session_open_s: Vec<f64>,
}

/// The solver tolerance of the exact and service workloads.
pub const TOL: f64 = 1e-8;
/// The Monte-Carlo campaigns' tolerance.
pub const MC_TOL: f64 = 1e-6;
/// Iteration cap of the Monte-Carlo trials (the campaigns' cap).
pub const MC_MAX_ITERS: usize = 150;
/// Right-hand sides per batched exact request and per service call.
pub const K: usize = 4;
/// Host worker threads the program may use. One client on one worker
/// thread: on a shared two-core host a second worker made host times
/// several times noisier (it waits on whichever core is contended)
/// for a ~10 % gain.
pub const THREADS: usize = 1;

const EXACT_ROWS: usize = 768;
const REDUCED_ROWS: usize = 192;

/// Exact matrices: (suite name, solved with CG).
const EXACT_MATRICES: [(&str, bool); 3] = [
    ("Pres_Poisson", true),
    ("venkat25", false),
    ("ship_001", true),
];
/// One exact cycle: (matrix, right-hand sides). One entry is the
/// batched share: four right-hand sides through one `block_cg`. Six of
/// the ten right-hand sides are Pres_Poisson's and four the slower
/// venkat25/ship_001 solves, so the median falls inside the first group
/// and the tail inside the second, never on the edge between them.
const EXACT_CYCLE: [(usize, usize); 7] = [(0, 1), (1, 1), (2, 1), (0, K), (1, 1), (2, 1), (0, 1)];

/// A Monte-Carlo point: label, cell, RTN probability, retry budget,
/// write age.
pub struct AnalogPoint {
    /// Stable label.
    pub label: &'static str,
    cell: fn() -> CellSpec,
    rtn: f64,
    retry_limit: u32,
    write_age: u64,
}

/// One Figure 12 point (dynamic range), two Figure 13 points (1- and
/// 2-bit cells under programming error), one RTN point, and one
/// stuck-at plus retention point with the retry lane armed. Every trial
/// converges in well under the cap at these settings.
pub const ANALOG_POINTS: [AnalogPoint; 5] = [
    AnalogPoint {
        label: "fig12 B=1 D=0.75K E=0.5%",
        cell: || {
            CellSpec::default()
                .with_dynamic_range(750.0)
                .with_programming_sigma(0.005)
        },
        rtn: 0.0,
        retry_limit: 0,
        write_age: 0,
    },
    AnalogPoint {
        label: "fig13 B=1 E=1%",
        cell: || CellSpec::default().with_programming_sigma(0.01),
        rtn: 0.0,
        retry_limit: 0,
        write_age: 0,
    },
    AnalogPoint {
        label: "fig13 B=2 E=1%",
        cell: || {
            CellSpec::default()
                .with_bits_per_cell(2)
                .with_programming_sigma(0.01)
        },
        rtn: 0.0,
        retry_limit: 0,
        write_age: 0,
    },
    AnalogPoint {
        label: "rtn p=5e-6",
        cell: CellSpec::default,
        rtn: 5e-6,
        retry_limit: 0,
        write_age: 0,
    },
    AnalogPoint {
        label: "faults stuck=2e-3 age=1000 retry=2",
        cell: || {
            CellSpec::default().with_fault(
                FaultModel::none()
                    .with_stuck_rates(1e-3, 1e-3)
                    .with_drift_coefficient(0.004),
            )
        },
        rtn: 0.0,
        retry_limit: 2,
        write_age: 1000,
    },
];

/// Service working set: (suite name, calls per cycle). Six 768-row
/// SPD replicas under a skewed popularity; every cycle holds exactly
/// these calls in a seeded order, so the mix is the same on every seed
/// while the cache sees a different sequence. `thermomech_TC` barely
/// blocks, so dispatch routes it to the GPU model and it never enters
/// the cache.
const SERVICE_MATRICES: [(&str, usize); 6] = [
    ("Pres_Poisson", 17),
    ("crystm03", 11),
    ("thermomech_TC", 5),
    ("qa8fm", 7),
    ("nasasrb", 5),
    ("ship_001", 5),
];
/// Resident operators: below the five accelerator-routed operators of
/// the working set, so a steady share of calls miss.
const SERVICE_CAPACITY: usize = 3;

fn replica(name: &str, size: Size) -> Csr {
    let entry = by_name(name).expect("suite matrix");
    let rows = match size {
        Size::Full => EXACT_ROWS,
        Size::Reduced => REDUCED_ROWS,
    };
    entry.generate_scaled((rows as f64 / entry.rows as f64).min(1.0))
}

fn config(banks: usize) -> AcceleratorConfig {
    let mut c = AcceleratorConfig::with_banks(banks);
    c.threads = Some(THREADS);
    c.overlap = Some(false);
    c
}

fn block(a: &Csr) -> BlockedMatrix {
    let _g = trace::span("sparse.block");
    BlockedMatrix::block(a, &BlockingConfig::default())
}

fn program_exact(
    blocked: &BlockedMatrix,
    cfg: AcceleratorConfig,
    opts: ExactOptions,
) -> Result<Arc<ExactOperator>, String> {
    let _g = trace::span("core.program");
    ExactOperator::program(blocked, cfg, opts)
        .map(Arc::new)
        .map_err(|e| format!("programming failed: {e:?}"))
}

fn open_exact(op: &Arc<ExactOperator>) -> ExactAcceleratorPlatform {
    let _g = trace::span("core.session_open");
    ExactAcceleratorPlatform::from_operator(Arc::clone(op))
}

/// Relative residual `‖b − A·x‖ / ‖b‖` on the reference platform.
fn csr_residual(reference: &mut CsrPlatform, b: &[f64], x: &[f64]) -> f64 {
    let mut r = vec![0.0; b.len()];
    let b_norm = reference.norm(b);
    true_relative_residual(reference, b, x, b_norm, &mut r)
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(u, v)| u.to_bits() == v.to_bits())
}

/// Gate shared by every workload: a converged solve's solution must
/// meet `tol` on the reference platform too, and with
/// `require_convergence` every solve must converge.
fn gate_residuals(
    reference: &mut CsrPlatform,
    rhs: &[&[f64]],
    out: &mut Outcome,
    tol: f64,
    require_convergence: bool,
) -> Vec<String> {
    let mut failures = Vec::new();
    for (j, (b, s)) in rhs.iter().zip(out.solves.iter_mut()).enumerate() {
        s.csr_residual = csr_residual(reference, b, &s.x);
        if !s.converged && require_convergence {
            failures.push(format!(
                "rhs {j} did not converge in {} iterations",
                s.iterations
            ));
        } else if s.converged && (s.csr_residual.is_nan() || s.csr_residual > tol) {
            failures.push(format!(
                "rhs {j} converged but its CsrPlatform residual is {:e} > {tol:e}",
                s.csr_residual
            ));
        }
    }
    failures
}

/// The inputs a workload needs before set-up (generated, not timed).
pub struct Inputs {
    kind: Kind,
    seed: u64,
    matrices: Vec<Csr>,
}

impl Inputs {
    /// Generates the workload's matrices.
    pub fn new(kind: Kind, size: Size, seed: u64) -> Inputs {
        let matrices = match kind {
            Kind::ExactSolve => EXACT_MATRICES
                .iter()
                .map(|(n, _)| replica(n, size))
                .collect(),
            Kind::AnalogMc => vec![memsci_bench::montecarlo::test_matrix(match size {
                Size::Full => 64,
                Size::Reduced => 32,
            })],
            Kind::ServiceMix => SERVICE_MATRICES
                .iter()
                .map(|(n, _)| replica(n, size))
                .collect(),
        };
        Inputs {
            kind,
            seed,
            matrices,
        }
    }

    /// Request `index` of the seeded request stream.
    pub fn request(&self, index: u64) -> Request {
        let mut rng = Rng::stream(self.seed, self.kind.salt(), index);
        let cycle_pos = index as usize % self.kind.cycle();
        match self.kind {
            Kind::ExactSolve => {
                let (matrix, k) = EXACT_CYCLE[cycle_pos];
                let n = self.matrices[matrix].rows();
                Request::Exact {
                    matrix,
                    rhs: (0..k)
                        .map(|_| gen::wide_rhs(&mut rng, n, gen::WIDE_SPREAD))
                        .collect(),
                }
            }
            Kind::AnalogMc => Request::Analog {
                point: cycle_pos,
                trial_seed: rng.next_u64(),
                rhs: gen::unit_rhs(&mut rng, self.matrices[0].rows()),
            },
            Kind::ServiceMix => {
                let mut order: Vec<usize> = SERVICE_MATRICES
                    .iter()
                    .enumerate()
                    .flat_map(|(i, (_, calls))| std::iter::repeat_n(i, *calls))
                    .collect();
                let cycle = index / self.kind.cycle() as u64;
                gen::shuffle(
                    &mut Rng::stream(self.seed, !self.kind.salt(), cycle),
                    &mut order,
                );
                let matrix = order[cycle_pos];
                let n = self.matrices[matrix].rows();
                Request::Service {
                    matrix,
                    rhs: (0..K)
                        .map(|_| gen::wide_rhs(&mut rng, n, gen::WIDE_SPREAD))
                        .collect(),
                }
            }
        }
    }

    /// Runs the workload's set-up: everything a user pays once before
    /// the first request (blocking, dispatch, programming, sessions,
    /// cache warm-up). Spanned under `setup` while tracing.
    pub fn setup(&self) -> Result<Box<dyn Workload>, String> {
        let _g = trace::span("setup");
        Ok(match self.kind {
            Kind::ExactSolve => Box::new(ExactSolve::setup(self)?),
            Kind::AnalogMc => Box::new(AnalogMc::setup(self)?),
            Kind::ServiceMix => Box::new(ServiceMix::setup(self)?),
        })
    }

    /// Share of non-zeros the blocking preprocessor captured over the
    /// workload's matrices.
    pub fn blocked_nnz_ratio(&self) -> f64 {
        let (mut blocked, mut total) = (0usize, 0usize);
        for a in &self.matrices {
            let b = BlockedMatrix::block(a, &BlockingConfig::default());
            blocked += b.stats.nnz_blocked;
            total += b.stats.nnz_total;
        }
        blocked as f64 / total as f64
    }
}

/// A set-up workload that serves requests.
pub trait Workload {
    /// Serves one request: the timed part.
    fn run(&mut self, req: &Request) -> Result<Outcome, String>;
    /// The correctness gate of one served request (not timed). Returns
    /// the reasons the request failed, if any.
    fn check(&mut self, index: u64, req: &Request, out: &mut Outcome) -> Vec<String>;
    /// Probes taken after a traced request (none by default).
    fn probe(&mut self, _req: &Request, _probes: &mut Probes) {}
}

struct ExactMat {
    spd: bool,
    reference: CsrPlatform,
    op: Arc<ExactOperator>,
    session: ExactAcceleratorPlatform,
}

/// `exact_solve`: three programmed noise-free exact operators, each with
/// one long-lived session, solved to [`TOL`].
struct ExactSolve {
    mats: Vec<ExactMat>,
    opts: SolveOptions,
}

impl ExactSolve {
    fn setup(inputs: &Inputs) -> Result<ExactSolve, String> {
        let mut mats = Vec::new();
        for (a, (name, spd)) in inputs.matrices.iter().zip(EXACT_MATRICES) {
            let blocked = block(a);
            let cfg = config(4);
            let target = {
                let _g = trace::span("dispatch.choose_target");
                choose_target(&blocked, &cfg)
            };
            if target != Target::Accelerator {
                return Err(format!("{name} does not dispatch to the accelerator"));
            }
            let op = program_exact(
                &blocked,
                cfg,
                ExactOptions {
                    seed: inputs.seed,
                    ..Default::default()
                },
            )?;
            let session = open_exact(&op);
            mats.push(ExactMat {
                spd,
                reference: CsrPlatform::new(a.clone()),
                op,
                session,
            });
        }
        Ok(ExactSolve {
            mats,
            opts: SolveOptions::with_tol(TOL).max_iters(2000),
        })
    }
}

fn solo(spd: bool, p: &mut impl Platform, b: &[f64], opts: &SolveOptions) -> Solve {
    let mut x = vec![0.0; b.len()];
    let report = if spd {
        let _g = trace::span("solvers.cg");
        cg(p, b, &mut x, opts)
    } else {
        let _g = trace::span("solvers.bicgstab");
        bicgstab(p, b, &mut x, opts)
    };
    Solve::from_report(&report, x)
}

impl Workload for ExactSolve {
    fn run(&mut self, req: &Request) -> Result<Outcome, String> {
        let Request::Exact { matrix, rhs } = req else {
            return Err("not an exact request".into());
        };
        let m = &mut self.mats[*matrix];
        let mut p = Traced::new(&mut m.session);
        let solves = if rhs.len() == 1 {
            vec![solo(m.spd, &mut p, &rhs[0], &self.opts)]
        } else {
            let bs: Vec<&[f64]> = rhs.iter().map(Vec::as_slice).collect();
            let mut xs = vec![vec![0.0; p.n()]; rhs.len()];
            let reports = {
                let _g = trace::span_rhs("solvers.block_cg", rhs.len() as u32);
                block_cg(&mut p, &bs, &mut xs, &self.opts)
            };
            reports
                .iter()
                .zip(xs)
                .map(|(r, x)| Solve::from_report(r, x))
                .collect()
        };
        Ok(Outcome {
            solves,
            sim_spmvs: p.spmvs,
            gpu: false,
        })
    }

    fn check(&mut self, index: u64, req: &Request, out: &mut Outcome) -> Vec<String> {
        let Request::Exact { matrix, rhs } = req else {
            return vec!["not an exact request".into()];
        };
        let m = &mut self.mats[*matrix];
        let bs: Vec<&[f64]> = rhs.iter().map(Vec::as_slice).collect();
        let mut failures = gate_residuals(&mut m.reference, &bs, out, TOL, true);
        if rhs.len() > 1 {
            // One column per batch, rotating: its solo CG twin on a
            // fresh session must match bit for bit.
            let j = (index as usize / EXACT_CYCLE.len()) % rhs.len();
            let mut fresh = ExactAcceleratorPlatform::from_operator(Arc::clone(&m.op));
            let twin = solo(true, &mut fresh, &rhs[j], &self.opts);
            let got = &out.solves[j];
            if twin.iterations != got.iterations || !bits_equal(&twin.x, &got.x) {
                failures.push(format!("block_cg column {j} differs from its solo CG twin"));
            }
        }
        failures
    }
}

/// `analog_mc`: per-trial programming of the banded Monte-Carlo system
/// and CG on the analog read path.
struct AnalogMc {
    blocked: BlockedMatrix,
    reference: CsrPlatform,
    opts: SolveOptions,
}

fn analog_config(point: &AnalogPoint) -> AcceleratorConfig {
    let mut cfg = config(2);
    cfg.cell = (point.cell)();
    cfg
}

impl AnalogMc {
    fn setup(inputs: &Inputs) -> Result<AnalogMc, String> {
        let a = &inputs.matrices[0];
        let blocked = block(a);
        let opts = SolveOptions::with_tol(MC_TOL).max_iters(MC_MAX_ITERS);
        // The campaigns' normalisation point: ideal 1-bit cells, solved
        // once per campaign before any trial.
        let mut baseline_cfg = config(2);
        baseline_cfg.cell = CellSpec::default();
        let op = program_exact(
            &blocked,
            baseline_cfg,
            ExactOptions {
                seed: inputs.seed,
                ..Default::default()
            },
        )?;
        let mut session = open_exact(&op);
        let baseline = solo(true, &mut session, &vec![1.0; a.rows()], &opts);
        if !baseline.converged {
            return Err("the ideal baseline point did not converge".into());
        }
        Ok(AnalogMc {
            blocked,
            reference: CsrPlatform::new(a.clone()),
            opts,
        })
    }
}

impl Workload for AnalogMc {
    fn run(&mut self, req: &Request) -> Result<Outcome, String> {
        let Request::Analog {
            point,
            trial_seed,
            rhs,
        } = req
        else {
            return Err("not an analog request".into());
        };
        let pt = &ANALOG_POINTS[*point];
        let op = program_exact(
            &self.blocked,
            analog_config(pt),
            ExactOptions {
                seed: *trial_seed,
                rtn_probability: pt.rtn,
                retry_limit: pt.retry_limit,
                write_age: pt.write_age,
                ..Default::default()
            },
        )
        .map_err(|e| format!("{}: {e}", pt.label))?;
        let mut session = open_exact(&op);
        let mut p = Traced::new(&mut session);
        let s = solo(true, &mut p, rhs, &self.opts);
        Ok(Outcome {
            solves: vec![s],
            sim_spmvs: p.spmvs,
            gpu: false,
        })
    }

    fn check(&mut self, _index: u64, req: &Request, out: &mut Outcome) -> Vec<String> {
        let Request::Analog { rhs, .. } = req else {
            return vec!["not an analog request".into()];
        };
        // An unconverged trial is a campaign outcome the solver reports
        // (the figures count them), not a failed request.
        gate_residuals(&mut self.reference, &[rhs], out, MC_TOL, false)
    }
}

/// `service_mix`: `solve_concurrent` calls (fast engine, [`K`]
/// right-hand sides, [`THREADS`] threads) through one LRU cache.
struct ServiceMix {
    matrices: Vec<Csr>,
    references: Vec<CsrPlatform>,
    cache: OperatorCache,
    cfg: AcceleratorConfig,
    opts: SolveOptions,
}

/// Simulated SpMVs of one converged, restart-free CG solve: the initial
/// residual, one per iteration, one true-residual refresh every 50
/// iterations and the final true residual (`memsci_solvers::cg`).
fn cg_spmvs(iterations: usize) -> u64 {
    (iterations + 2 + iterations / 50) as u64
}

impl ServiceMix {
    fn setup(inputs: &Inputs) -> Result<ServiceMix, String> {
        let cfg = config(4);
        let cache = OperatorCache::with_capacity(SERVICE_CAPACITY);
        let mut targets = Vec::new();
        for a in &inputs.matrices {
            let blocked = block(a);
            let _g = trace::span("dispatch.choose_target");
            targets.push(choose_target(&blocked, &cfg));
        }
        // Warm the cache with the most popular accelerator operators,
        // the state a long-running service sits in.
        let mut by_weight: Vec<usize> = (0..SERVICE_MATRICES.len())
            .filter(|&i| targets[i] == Target::Accelerator)
            .collect();
        by_weight.sort_by_key(|&i| std::cmp::Reverse(SERVICE_MATRICES[i].1));
        for &i in by_weight.iter().take(SERVICE_CAPACITY) {
            let _g = trace::span("service.get_or_program");
            cache
                .get_or_program(&inputs.matrices[i], &cfg, &EngineSpec::Fast)
                .map_err(|e| format!("programming failed: {e:?}"))?;
        }
        Ok(ServiceMix {
            references: inputs
                .matrices
                .iter()
                .cloned()
                .map(CsrPlatform::new)
                .collect(),
            matrices: inputs.matrices.clone(),
            cache,
            cfg,
            opts: SolveOptions::with_tol(TOL).max_iters(2000),
        })
    }
}

impl Workload for ServiceMix {
    fn run(&mut self, req: &Request) -> Result<Outcome, String> {
        let Request::Service { matrix, rhs } = req else {
            return Err("not a service request".into());
        };
        let out = {
            let _g = trace::span_rhs("service.call", rhs.len() as u32);
            solve_concurrent(
                &self.cache,
                &self.matrices[*matrix],
                &self.cfg,
                &EngineSpec::Fast,
                rhs,
                &self.opts,
            )
            .map_err(|e| format!("solve_concurrent failed: {e:?}"))?
        };
        Ok(Outcome {
            sim_spmvs: out
                .solves
                .iter()
                .map(|s| cg_spmvs(s.report.iterations))
                .sum(),
            solves: out
                .solves
                .into_iter()
                .map(|s| Solve::from_report(&s.report, s.x))
                .collect(),
            gpu: out.target == Target::Gpu,
        })
    }

    fn check(&mut self, index: u64, req: &Request, out: &mut Outcome) -> Vec<String> {
        let Request::Service { matrix, rhs } = req else {
            return vec!["not a service request".into()];
        };
        let bs: Vec<&[f64]> = rhs.iter().map(Vec::as_slice).collect();
        let mut failures = gate_residuals(&mut self.references[*matrix], &bs, out, TOL, true);
        // Every eighth call, one solution against a freshly programmed
        // sequential platform.
        if index.is_multiple_of(8) {
            let j = (index as usize / 8) % rhs.len();
            let a = &self.matrices[*matrix];
            // Wrapped, so traced runs book the modelled SpMV share of the
            // service path, whose own sessions the benchmark cannot wrap.
            let want = if out.gpu {
                let mut fresh = GpuPlatform::new(a.clone());
                solo(true, &mut Traced::new(&mut fresh), &rhs[j], &self.opts)
            } else {
                let blocked = BlockedMatrix::block(a, &BlockingConfig::default());
                let mut fresh = AcceleratorPlatform::new(&blocked, self.cfg.clone());
                solo(true, &mut Traced::new(&mut fresh), &rhs[j], &self.opts)
            };
            if !bits_equal(&want.x, &out.solves[j].x) {
                failures.push(format!(
                    "solution {j} differs from a fresh sequential platform's"
                ));
            }
        }
        failures
    }

    fn probe(&mut self, req: &Request, probes: &mut Probes) {
        let Request::Service { matrix, .. } = req else {
            return;
        };
        let a = &self.matrices[*matrix];
        let t = Instant::now();
        let blocked = BlockedMatrix::block(a, &BlockingConfig::default());
        probes.block_s.push(t.elapsed().as_secs_f64());
        if choose_target(&blocked, &self.cfg) == Target::Gpu {
            return;
        }
        // The call just looked this operator up, so it is resident and
        // most recently used: the probe hit leaves the LRU order as is.
        let t = Instant::now();
        let op: Result<SharedOperator, _> =
            self.cache.get_or_program(a, &self.cfg, &EngineSpec::Fast);
        probes.lookup_hit_s.push(t.elapsed().as_secs_f64());
        if let Ok(op) = op {
            let t = Instant::now();
            let session = op.open_session();
            probes.session_open_s.push(t.elapsed().as_secs_f64());
            drop(session);
        }
    }
}
