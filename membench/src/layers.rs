//! Per-layer attribution of a traced phase: the benchmark's spans
//! (self time per layer), the program's counter deltas (work counts)
//! and, for `service_mix`, the program's own span statistics and the
//! service probes.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use memsci_telemetry::{Counter, HwCounters};

use crate::run::{Metric, Phase};
use crate::trace::{layer_of, ModelLedger, SpanRec};
use crate::workloads::{Kind, K, THREADS};

/// The layers of the self-time table, in order.
pub const LAYERS: [&str; 5] = ["sparse", "core", "solvers", "service", "unattributed"];

/// The layer every workload is expected to spend most of its request
/// time in (the rationale recorded in `BENCHMARK.json`): the exact
/// cluster kernel, the analog read path and the fast engine's kernel
/// are all `core` SpMVs.
pub const DOMINANT_LAYER: &str = "core";

fn sum_counters<'a>(cs: impl Iterator<Item = &'a HwCounters>) -> BTreeMap<&'static str, u64> {
    let mut out: BTreeMap<&'static str, u64> = Counter::ALL.iter().map(|c| (c.name(), 0)).collect();
    for c in cs {
        for (name, v) in c.iter() {
            *out.get_mut(name).expect("catalog name") += v;
        }
    }
    out
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn mean(xs: &[f64]) -> f64 {
    ratio(xs.iter().sum(), xs.len() as f64)
}

/// Self time per layer over the requests, plus the request wall time.
#[derive(Debug, Clone, Default)]
pub struct LayerTable {
    /// Layer → self seconds inside requests.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Total request wall seconds.
    pub request_s: f64,
}

impl LayerTable {
    /// A layer's share of request wall time.
    pub fn share(&self, layer: &str) -> f64 {
        ratio(
            self.self_s.get(layer).copied().unwrap_or(0.0),
            self.request_s,
        )
    }

    /// The layer with the largest share.
    pub fn dominant(&self) -> &'static str {
        LAYERS
            .into_iter()
            .max_by(|a, b| self.share(a).total_cmp(&self.share(b)))
            .expect("layers")
    }
}

/// Everything the per-layer metrics derive from.
pub struct Traced<'a> {
    /// Workload.
    pub kind: Kind,
    /// The traced phase.
    pub phase: &'a Phase,
    /// The benchmark's spans.
    pub spans: &'a [SpanRec],
    /// Modelled seconds and joules split by the platform wrapper.
    pub model: ModelLedger,
    /// Blocked over total non-zeros of the workload's matrices.
    pub blocked_nnz_ratio: f64,
    /// Untraced over traced right-hand sides per host second.
    pub trace_overhead: f64,
}

impl Traced<'_> {
    fn span_self(&self) -> Vec<f64> {
        let mut child = vec![0.0; self.spans.len()];
        for s in self.spans {
            if let Some(p) = s.parent {
                child[p as usize] += s.seconds();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.seconds() - c).max(0.0))
            .collect()
    }

    fn request_spans<'s>(&'s self, name: &'s str) -> impl Iterator<Item = &'s SpanRec> + 's {
        self.spans
            .iter()
            .filter(move |s| s.name == name && s.request.is_some())
    }

    fn span_mean(&self, name: &str, in_requests: bool) -> f64 {
        let d: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name && (!in_requests || s.request.is_some()))
            .map(SpanRec::seconds)
            .collect();
        mean(&d)
    }

    /// Program spans inside requests whose path ends with `suffix`:
    /// (calls, seconds).
    fn internal(&self, suffix: &str) -> (u64, f64) {
        self.phase
            .internal_spans
            .iter()
            .filter(|(path, _)| *path == suffix || path.ends_with(&format!("/{suffix}")))
            .fold((0, 0.0), |(c, s), (_, (c2, s2))| (c + c2, s + s2))
    }

    fn request_counters(&self) -> BTreeMap<&'static str, u64> {
        sum_counters(
            self.phase
                .records
                .iter()
                .filter_map(|r| r.counters.as_ref()),
        )
    }

    fn all_counters(&self) -> BTreeMap<&'static str, u64> {
        sum_counters(
            self.phase
                .records
                .iter()
                .filter_map(|r| r.counters.as_ref())
                .chain(self.phase.setup_counters.as_ref()),
        )
    }

    fn calls(&self) -> usize {
        self.phase.records.len()
    }

    /// Block calls inside requests. `solve_concurrent` blocks once per
    /// call and once more per cache miss it programs; the program has
    /// no blocking counter, so this count follows from that contract
    /// and the `cache_misses` counter.
    fn block_calls_in_requests(&self) -> u64 {
        match self.kind {
            Kind::ServiceMix => self.calls() as u64 + self.request_counters()["cache_misses"],
            _ => self.request_spans("sparse.block").count() as u64,
        }
    }

    /// The self-time table over the requests.
    pub fn table(&self) -> LayerTable {
        let mut t = LayerTable {
            request_s: self.phase.records.iter().map(|r| r.seconds).sum(),
            ..Default::default()
        };
        for l in LAYERS {
            t.self_s.insert(l, 0.0);
        }
        let own = self.span_self();
        for (s, own) in self.spans.iter().zip(own) {
            if s.request.is_none() {
                continue;
            }
            let layer = match layer_of(s.name) {
                "request" => "unattributed",
                l => LAYERS
                    .into_iter()
                    .find(|x| *x == l)
                    .unwrap_or("unattributed"),
            };
            *t.self_s.get_mut(layer).expect("layer") += own;
        }
        if self.kind == Kind::ServiceMix {
            // The benchmark sees `solve_concurrent` only from outside;
            // split the call's self time with the program's own spans.
            // Solves run on worker threads, so their thread-seconds are
            // scaled by the worker count to the wall time they cover.
            let call_self = t.self_s["service"];
            let (_, program) = self.internal("service/solve_concurrent/engine/build");
            let (_, solve) = self.internal("solve/cg");
            let (_, spmv) = self.internal("engine/spmv");
            let workers = THREADS.min(K) as f64;
            let solve_wall = solve / workers;
            let sparse = self.block_calls_in_requests() as f64 * mean(&self.phase.probes.block_s);
            let kernel = solve_wall * ratio(spmv, solve);
            t.self_s.insert("core", program + kernel);
            t.self_s.insert("solvers", solve_wall - kernel);
            t.self_s.insert("sparse", sparse);
            t.self_s.insert(
                "service",
                (call_self - program - solve_wall - sparse).max(0.0),
            );
        }
        t
    }

    /// Every per-layer metric, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        let table = self.table();
        let all = self.all_counters();
        let req = self.request_counters();
        let c = |name: &str| all[name] as f64;
        let service = self.kind == Kind::ServiceMix;
        let probes = &self.phase.probes;
        let solves: usize = self.phase.records.iter().map(|r| r.rhs).sum();

        let block_spans = self
            .spans
            .iter()
            .filter(|s| s.name == "sparse.block")
            .count() as u64;
        let block_calls = match self.kind {
            Kind::ServiceMix => block_spans + self.block_calls_in_requests(),
            _ => block_spans,
        };
        let block_s = if service {
            mean(&probes.block_s)
        } else {
            self.span_mean("sparse.block", false)
        };
        let program_s = if service {
            let (calls, secs) = self.internal("service/solve_concurrent/engine/build");
            ratio(secs, calls as f64)
        } else {
            self.span_mean("core.program", false)
        };
        let session_open_s = if service {
            mean(&probes.session_open_s)
        } else {
            self.span_mean("core.session_open", false)
        };
        let (kernel_s, spmv_s) = if service {
            let (calls, secs) = self.internal("engine/spmv");
            (secs, ratio(secs, calls as f64))
        } else {
            let kernel: f64 = self
                .spans
                .iter()
                .filter(|s| s.request.is_some() && s.name.starts_with("core.spmv"))
                .map(SpanRec::seconds)
                .sum();
            (kernel, self.span_mean("core.spmv", true))
        };
        let (batch_s, batch_rhs) = self
            .request_spans("core.spmv_batch")
            .fold((0.0, 0u32), |(s, k), r| (s + r.seconds(), k + r.rhs));
        let solver_self = if service {
            let (_, solve) = self.internal("solve/cg");
            let (_, spmv) = self.internal("engine/spmv");
            solve - spmv
        } else {
            let own = self.span_self();
            self.spans
                .iter()
                .zip(own)
                .filter(|(s, _)| s.request.is_some() && s.name.starts_with("solvers."))
                .map(|(_, o)| o)
                .sum()
        };
        let activations: f64 = [
            "xbar_activations_512",
            "xbar_activations_256",
            "xbar_activations_128",
            "xbar_activations_64",
            "xbar_activations_other",
        ]
        .iter()
        .map(|n| c(n))
        .sum();
        let model_total = self.model.spmv_s + self.model.dense_s;

        let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
        vec![
            m("sparse.block_s", block_s, "s/call"),
            m("sparse.block_calls", block_calls as f64, "count"),
            m(
                "sparse.block_calls_per_request",
                ratio(self.block_calls_in_requests() as f64, self.calls() as f64),
                "count",
            ),
            m("sparse.blocked_nnz_ratio", self.blocked_nnz_ratio, "ratio"),
            m("core.program_s", program_s, "s/call"),
            m("core.session_open_s", session_open_s, "s/call"),
            m("core.operator_programs", c("operator_programs"), "count"),
            m(
                "xbar.cic_inverted_columns",
                c("cic_inverted_columns"),
                "count",
            ),
            m("core.spmv_s", spmv_s, "s/call"),
            m(
                "core.spmv_batch_s_per_rhs",
                ratio(batch_s, f64::from(batch_rhs)),
                "s/rhs",
            ),
            m("core.spmv_calls", c("spmv_ops"), "count"),
            m("core.residual_flops", c("residual_flops"), "count"),
            m("core.bank_shard_tasks", c("bank_shard_tasks"), "count"),
            m(
                "core.model_spmv_share",
                ratio(self.model.spmv_s, model_total),
                "ratio",
            ),
            m(
                "core.model_spmv_energy_share",
                ratio(self.model.spmv_j, self.model.spmv_j + self.model.dense_j),
                "ratio",
            ),
            m("xbar.adc_conversions", c("adc_conversions"), "count"),
            m(
                "xbar.adc_skip_ratio",
                ratio(
                    c("adc_conversions_skipped"),
                    c("adc_conversions") + c("adc_conversions_skipped"),
                ),
                "ratio",
            ),
            m("xbar.headstart_hits", c("adc_headstart_hits"), "count"),
            m("xbar.slices_applied", c("slices_applied"), "count"),
            m(
                "xbar.slice_skip_ratio",
                ratio(
                    c("slices_skipped"),
                    c("slices_applied") + c("slices_skipped"),
                ),
                "ratio",
            ),
            m("xbar.activations", activations, "count"),
            m(
                "xbar.host_ns_per_conversion",
                ratio(kernel_s * 1e9, req["adc_conversions"] as f64),
                "ns/conv",
            ),
            m("numeric.an_corrections", c("an_corrections"), "count"),
            m("numeric.an_detections", c("an_detections"), "count"),
            m("numeric.debiases", c("bias_debiases"), "count"),
            m("xbar.faults_injected", c("faults_injected"), "count"),
            m("core.cluster_reprograms", c("cluster_reprograms"), "count"),
            m("core.retries_exhausted", c("retries_exhausted"), "count"),
            m(
                "solvers.self_s",
                ratio(solver_self, solves as f64),
                "s/solve",
            ),
            m("solvers.iterations", c("solve_iterations"), "count"),
            m("solvers.dot_calls", c("dot_ops"), "count"),
            m("solvers.axpby_calls", c("axpby_ops"), "count"),
            m(
                "service.call_s",
                mean(
                    &self
                        .request_spans("service.call")
                        .map(SpanRec::seconds)
                        .collect::<Vec<_>>(),
                ),
                "s/call",
            ),
            m(
                "service.lookup_hit_s",
                mean(&probes.lookup_hit_s),
                "s/lookup",
            ),
            m(
                "service.hit_ratio",
                ratio(req["cache_hits"] as f64, req["cache_lookups"] as f64),
                "ratio",
            ),
            m("service.evictions", req["cache_evictions"] as f64, "count"),
            m(
                "service.gpu_routed",
                self.phase.records.iter().filter(|r| r.gpu).count() as f64,
                "count",
            ),
            m("telemetry.trace_overhead", self.trace_overhead, "ratio"),
            m("layer.sparse_share", table.share("sparse"), "ratio"),
            m("layer.core_share", table.share("core"), "ratio"),
            m("layer.solvers_share", table.share("solvers"), "ratio"),
            m("layer.service_share", table.share("service"), "ratio"),
            m(
                "layer.unattributed_share",
                table.share("unattributed"),
                "ratio",
            ),
        ]
    }

    /// The human-readable self-time table.
    pub fn render(&self) -> String {
        let t = self.table();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "per-layer self time over {} requests ({:.3} s of request wall time):",
            self.phase.records.len(),
            t.request_s
        );
        for l in LAYERS {
            let _ = writeln!(
                out,
                "  {l:<13} {:>10.4} s  {:>6.1} %",
                t.self_s[l],
                100.0 * t.share(l)
            );
        }
        let _ = writeln!(
            out,
            "  dominant layer: {} (stated: {DOMINANT_LAYER})",
            t.dominant()
        );
        out
    }
}

/// The spans as Chrome trace-event JSON (loadable in Perfetto).
pub fn chrome_trace(spans: &[SpanRec]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"request\":{},\"rhs\":{}}}}}",
            if i == 0 { "" } else { ",\n" },
            s.name,
            layer_of(s.name),
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.request.map_or(-1, i64::from),
            s.rhs
        );
    }
    out.push_str("\n]}\n");
    out
}
