//! The traced run's span recorder and the delegating [`Traced`]
//! platform wrapper.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions, kept in memory, and attributed at the end:
//! a layer's self time is its spans' durations minus the part covered
//! by their child spans. Recording is per thread and only the calling
//! thread of a request records; while tracing is off every span is a
//! single flag check.

use std::cell::RefCell;
use std::time::Instant;

use memsci_solvers::platform::Platform;

/// One closed span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Layer-qualified name, e.g. `core.spmv` or `solvers.cg`.
    pub name: &'static str,
    /// Request the span belongs to (`None` for set-up and probes).
    pub request: Option<u32>,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Right-hand sides the call carried (k of a batched kernel, else 1).
    pub rhs: u32,
    /// Start, nanoseconds since tracing started.
    pub start_ns: u64,
    /// End, nanoseconds since tracing started.
    pub end_ns: u64,
}

impl SpanRec {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Modelled (simulated) seconds and joules, split into sparse kernels
/// and everything else the solvers charge.
#[derive(Debug, Clone, Copy, Default)]
pub struct ModelLedger {
    /// Simulated seconds inside SpMV-family kernels.
    pub spmv_s: f64,
    /// Simulated seconds inside dense kernels.
    pub dense_s: f64,
    /// Simulated joules inside SpMV-family kernels.
    pub spmv_j: f64,
    /// Simulated joules inside dense kernels.
    pub dense_j: f64,
}

struct Recorder {
    on: bool,
    t0: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<u32>,
    request: Option<u32>,
    model: ModelLedger,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        t0: Instant::now(),
        spans: Vec::new(),
        stack: Vec::new(),
        request: None,
        model: ModelLedger::default(),
    });
}

/// Starts recording on this thread, discarding anything recorded before.
pub fn start() {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.on = true;
        r.t0 = Instant::now();
        r.spans.clear();
        r.stack.clear();
        r.request = None;
        r.model = ModelLedger::default();
    });
}

/// Stops recording and hands back the spans and the modelled ledger.
pub fn stop() -> (Vec<SpanRec>, ModelLedger) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.on = false;
        (std::mem::take(&mut r.spans), r.model)
    })
}

/// True while this thread records.
pub fn on() -> bool {
    REC.with(|r| r.borrow().on)
}

/// Tags the spans opened from now on with a request index.
pub fn set_request(request: Option<u32>) {
    REC.with(|r| r.borrow_mut().request = request);
}

/// An open span; closes on drop.
#[derive(Debug)]
#[must_use = "a span closes when dropped"]
pub struct Guard(Option<u32>);

/// Opens a span carrying one right-hand side.
pub fn span(name: &'static str) -> Guard {
    span_rhs(name, 1)
}

/// Opens a span carrying `rhs` right-hand sides.
pub fn span_rhs(name: &'static str, rhs: u32) -> Guard {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return Guard(None);
        }
        let idx = r.spans.len() as u32;
        let rec = SpanRec {
            name,
            request: r.request,
            parent: r.stack.last().copied(),
            rhs,
            start_ns: r.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
        };
        r.spans.push(rec);
        r.stack.push(idx);
        Guard(Some(idx))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(idx) = self.0 {
            REC.with(|r| {
                let mut r = r.borrow_mut();
                let now = r.t0.elapsed().as_nanos() as u64;
                if let Some(s) = r.spans.get_mut(idx as usize) {
                    s.end_ns = now;
                }
                if r.stack.last() == Some(&idx) {
                    r.stack.pop();
                }
            });
        }
    }
}

fn charge(spmv: bool, seconds: f64, joules: f64) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if spmv {
            r.model.spmv_s += seconds;
            r.model.spmv_j += joules;
        } else {
            r.model.dense_s += seconds;
            r.model.dense_j += joules;
        }
    });
}

/// A delegating [`Platform`] that counts simulated SpMVs and, while
/// tracing, spans every sparse kernel and books each call's modelled
/// seconds. It forwards every trait method, so the wrapped platform's
/// own overrides (batched kernels, norms) run unchanged.
pub struct Traced<'a, P: Platform + ?Sized> {
    inner: &'a mut P,
    /// Simulated SpMVs issued through the wrapper (batched kernels
    /// count one per right-hand side).
    pub spmvs: u64,
    on: bool,
}

impl<'a, P: Platform + ?Sized> Traced<'a, P> {
    /// Wraps a platform.
    pub fn new(inner: &'a mut P) -> Self {
        Traced {
            inner,
            spmvs: 0,
            on: on(),
        }
    }

    fn call<R>(&mut self, name: Option<&'static str>, rhs: u32, f: impl FnOnce(&mut P) -> R) -> R {
        if !self.on {
            return f(self.inner);
        }
        let (t, e) = (self.inner.elapsed_seconds(), self.inner.energy_joules());
        let out = {
            let _g = name.map(|n| span_rhs(n, rhs));
            f(self.inner)
        };
        charge(
            name.is_some(),
            self.inner.elapsed_seconds() - t,
            self.inner.energy_joules() - e,
        );
        out
    }
}

impl<P: Platform + ?Sized> Platform for Traced<'_, P> {
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn spmv(&mut self, x: &[f64], y: &mut [f64]) {
        self.spmvs += 1;
        self.call(Some("core.spmv"), 1, |p| p.spmv(x, y))
    }
    fn spmv_transpose(&mut self, x: &[f64], y: &mut [f64]) {
        self.spmvs += 1;
        self.call(Some("core.spmv_transpose"), 1, |p| p.spmv_transpose(x, y))
    }
    fn spmv_batch(&mut self, xs: &[&[f64]], ys: &mut [Vec<f64>]) {
        self.spmvs += xs.len() as u64;
        self.call(Some("core.spmv_batch"), xs.len() as u32, |p| {
            p.spmv_batch(xs, ys)
        })
    }
    fn dot(&mut self, x: &[f64], y: &[f64]) -> f64 {
        self.call(None, 1, |p| p.dot(x, y))
    }
    fn axpby(&mut self, alpha: f64, x: &[f64], beta: f64, y: &mut [f64]) {
        self.call(None, 1, |p| p.axpby(alpha, x, beta, y))
    }
    fn axpy(&mut self, alpha: f64, x: &[f64], y: &mut [f64]) {
        self.call(None, 1, |p| p.axpy(alpha, x, y))
    }
    fn assign(&mut self, src: &[f64], dst: &mut [f64]) {
        self.call(None, 1, |p| p.assign(src, dst))
    }
    fn norm(&mut self, x: &[f64]) -> f64 {
        self.call(None, 1, |p| p.norm(x))
    }
    fn diagonal(&self) -> std::sync::Arc<[f64]> {
        self.inner.diagonal()
    }
    fn elapsed_seconds(&self) -> f64 {
        self.inner.elapsed_seconds()
    }
    fn energy_joules(&self) -> f64 {
        self.inner.energy_joules()
    }
}

/// The layer a span name belongs to (the part before the first dot;
/// dispatch decisions belong to the service layer).
pub fn layer_of(name: &str) -> &str {
    let head = name.split('.').next().unwrap_or(name);
    match head {
        "dispatch" => "service",
        other => other,
    }
}
