//! The session benchmark harness behind `BENCH_session.json`.
//!
//! Measures the tentpole claim of the session API: publishing views
//! **incrementally** through one [`qvsec::AuditSession`] serves every step
//! after the first from the engine's compiled artifacts (crit-set memo,
//! candidate spaces, class verdicts, witness-mask compilations, the shared
//! Monte-Carlo pool), where a stateless deployment re-audits the whole
//! published prefix on a **fresh engine** per request — recompiling
//! everything, redrawing the pool.
//!
//! Per step `k` the harness records:
//!
//! * `warm_nanos` — best-of-N latency of `audit_candidate` at the session's
//!   current prefix (identical work to the `publish` that follows, engine
//!   caches warm from steps `< k`);
//! * `cold_nanos` — best-of-N latency of a fresh engine auditing the same
//!   cumulative request from scratch;
//! * the committing publish's cache-delta counters, and whether its report
//!   is **byte-identical** to the fresh engine's (it must be — the session
//!   is an optimization layer, not a different semantics).
//!
//! A second section, `views_growth`, records the probabilistic kernel's
//! cost curve in the number of audited views: one secret against growing
//! prefixes of a fixed view list (k = 1..8), straight on the kernel with
//! its whole-audit memo off, on the Monte-Carlo path (the `perfbench`
//! `deep_sessions` spec and view shape) and on the exact `1/2` path. Per `k`
//! it records the view combos (`∏` answers over the views, the size of the
//! Section 6.1 pair grid per secret answer) and the best-of kernel latency.
//!
//! The binary `bench_session` runs this harness and writes
//! `BENCH_session.json`, mirroring `BENCH_crit.json` / `BENCH_prob.json`.

use qvsec::engine::{AuditDepth, AuditEngine, AuditOptions, AuditRequest, CacheStatsSnapshot};
use qvsec_cq::{parse_query, ConjunctiveQuery, ViewSet};
use qvsec_data::{Dictionary, Domain, Ratio, Schema, TupleSpace};
use qvsec_prob::kernel::{KernelConfig, ProbKernel};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// One measured publication step.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionStepReport {
    /// 1-based step number.
    pub step: usize,
    /// The published view's label.
    pub view: String,
    /// Best-of-N wall clock of a fresh engine auditing the cumulative
    /// prefix, nanoseconds.
    pub cold_nanos: u64,
    /// Best-of-N wall clock of the warm session answering the same
    /// question, nanoseconds.
    pub warm_nanos: u64,
    /// `cold_nanos / warm_nanos`.
    pub speedup: f64,
    /// Whether the session's cumulative report is byte-identical to the
    /// fresh engine's.
    pub verdicts_match: bool,
    /// The engine's cache counters moved by the committing publish (the
    /// harness is serial, so the delta is the step's own).
    pub cache: CacheStatsSnapshot,
}

/// One workload: a secret published against a fixed view sequence.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionWorkloadReport {
    /// Workload label, e.g. `collusion-prob/domain3`.
    pub name: String,
    /// Audit depth the session runs at.
    pub depth: String,
    /// Per-step measurements, in publication order.
    pub steps: Vec<SessionStepReport>,
    /// Geometric mean of the warm-step speedups (steps ≥ 2 — step 1 has
    /// nothing to reuse beyond within-audit sharing).
    pub warm_geomean_speedup: f64,
}

/// The full harness report serialized into `BENCH_session.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionBenchReport {
    /// Worker threads available to the engine's parallel stages.
    pub threads: usize,
    /// Iterations per measurement (best-of).
    pub iterations: usize,
    /// Per-workload measurements.
    pub workloads: Vec<SessionWorkloadReport>,
    /// Geometric mean of all warm-step (≥ 2) speedups across workloads.
    pub geomean_warm_speedup: f64,
    /// Whether every step of every workload matched the stateless baseline.
    pub all_verdicts_match: bool,
    /// Whether every step from 2 onward served something from cache
    /// (crit/space memo, class verdicts, compile cache or pooled samples).
    pub warm_steps_all_hit_cache: bool,
    /// Kernel latency against the number of audited views.
    pub views_growth: Vec<ViewsGrowthCurve>,
}

/// One point of a views-growth curve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ViewsGrowthPoint {
    /// Views audited.
    pub views: usize,
    /// View combos: `∏` answers over the audited views.
    pub combos: u64,
    /// Best-of wall clock of one kernel audit, nanoseconds (compilations,
    /// pool and pool columns warm; the audit itself recomputed).
    pub kernel_nanos: u64,
}

/// One secret audited on the kernel against growing prefixes of a fixed
/// view list.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ViewsGrowthCurve {
    /// Curve label.
    pub name: String,
    /// Estimator of every point (`"Exact"` or `"MonteCarlo"`).
    pub mode: String,
    /// The secret.
    pub secret: String,
    /// The view list; point `k` audits its first `k` views.
    pub views: Vec<String>,
    /// One point per prefix length, 1 to `views.len()`.
    pub points: Vec<ViewsGrowthPoint>,
}

fn best_of<F: FnMut()>(iterations: usize, mut f: F) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..iterations.max(1) {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_nanos() as u64);
    }
    best
}

/// A workload definition: how to build the engine, and what to publish.
/// Shared with the serving harness (`crate::serve`), so `BENCH_session.json`
/// and `BENCH_serve.json` measure exactly the same workloads.
pub(crate) struct Workload {
    pub(crate) name: String,
    pub(crate) depth: AuditDepth,
    pub(crate) schema: Schema,
    pub(crate) domain: Domain,
    pub(crate) dictionary: Option<Dictionary>,
    pub(crate) mc_samples: usize,
    /// Serving knob: cap on the reported leak-entry list (the
    /// probabilistic workloads set it, mirroring a server's configuration;
    /// verdict fields are unaffected and warm and cold engines share it).
    pub(crate) report_cap: Option<usize>,
    pub(crate) secret: ConjunctiveQuery,
    pub(crate) steps: Vec<(String, ConjunctiveQuery)>,
}

impl Workload {
    fn engine(&self) -> AuditEngine {
        self.engine_with_budget(None)
    }

    /// An engine for this workload, optionally bounded by a total cache
    /// byte budget (the serve harness's eviction-pressure sweep).
    pub(crate) fn engine_with_budget(&self, budget: Option<usize>) -> AuditEngine {
        self.builder_with_budget(budget).build()
    }

    fn builder_with_budget(&self, budget: Option<usize>) -> qvsec::engine::AuditEngineBuilder {
        let mut builder = AuditEngine::builder(self.schema.clone(), self.domain.clone())
            .default_depth(self.depth)
            .mc_samples(self.mc_samples);
        if let Some(dict) = &self.dictionary {
            builder = builder.dictionary(dict.clone());
        }
        if let Some(cap) = self.report_cap {
            builder = builder.report_cap(cap);
        }
        if let Some(total) = budget {
            builder = builder.cache_budget_bytes(total);
        }
        builder
    }
}

/// Default shared-pool size for the Monte-Carlo workload.
pub const DEFAULT_MC_SAMPLES: usize = 8192;

/// Report cap the probabilistic workloads serve under (the serving-layer
/// configuration: verdicts, max leak and witnesses are exact, the reported
/// entry lists are bounded and materialized lazily).
pub const DEFAULT_REPORT_CAP: usize = 16;

pub(crate) fn depth_name(depth: AuditDepth) -> &'static str {
    match depth {
        AuditDepth::Fast => "fast",
        AuditDepth::Exact => "exact",
        AuditDepth::Probabilistic => "probabilistic",
    }
}

fn run_workload(workload: &Workload, iterations: usize) -> SessionWorkloadReport {
    let engine = Arc::new(workload.engine());
    let mut session = engine
        .open_session(workload.secret.clone())
        .named(workload.name.clone());
    let mut steps = Vec::with_capacity(workload.steps.len());
    let mut published: Vec<ConjunctiveQuery> = Vec::new();
    for (k, (view_name, view)) in workload.steps.iter().enumerate() {
        // Warm latency: the candidate audit runs exactly the work `publish`
        // will, over caches warmed by the previous steps (the first
        // candidate call itself warms this step's new artifacts; best-of
        // keeps the steady-state figure).
        let warm_nanos = best_of(iterations, || {
            session.audit_candidate(view).unwrap();
        });
        let before = engine.cache_stats();
        let report = session
            .publish_named(view_name.clone(), view.clone())
            .unwrap();
        let cache = engine.cache_stats().delta_since(&before);
        published.push(view.clone());

        // Cold baseline: a fresh engine per request — the stateless serving
        // shape — audits the same cumulative prefix.
        let request = AuditRequest {
            name: report.report.name.clone(),
            secret: workload.secret.clone(),
            views: ViewSet::from_views(published.clone()),
            options: AuditOptions::default(),
        };
        let fresh_report = workload.engine().audit(&request).unwrap();
        let cold_nanos = best_of(iterations, || {
            workload.engine().audit(&request).unwrap();
        });
        let verdicts_match = serde_json::to_string(&report.report).unwrap()
            == serde_json::to_string(&fresh_report).unwrap();
        steps.push(SessionStepReport {
            step: k + 1,
            view: view_name.clone(),
            cold_nanos,
            warm_nanos,
            speedup: cold_nanos as f64 / warm_nanos.max(1) as f64,
            verdicts_match,
            cache,
        });
    }
    let warm: Vec<f64> = steps.iter().skip(1).map(|s| s.speedup).collect();
    let warm_geomean_speedup = if warm.is_empty() {
        1.0
    } else {
        (warm.iter().map(|s| s.ln()).sum::<f64>() / warm.len() as f64).exp()
    };
    SessionWorkloadReport {
        name: workload.name.clone(),
        depth: depth_name(workload.depth).to_string(),
        steps,
        warm_geomean_speedup,
    }
}

pub(crate) fn employee_collusion_workload(mc_samples: usize) -> Workload {
    let schema = qvsec_workload::schemas::employee_schema();
    let mut domain = Domain::new();
    let secret = parse_query("S(n, p) :- Employee(n, d, p)", &schema, &mut domain).unwrap();
    let steps = vec![
        (
            "bob".to_string(),
            parse_query("VBob(n, d) :- Employee(n, d, p)", &schema, &mut domain).unwrap(),
        ),
        (
            "carol".to_string(),
            parse_query("VCarol(d, p) :- Employee(n, d, p)", &schema, &mut domain).unwrap(),
        ),
        (
            "dana".to_string(),
            parse_query("VDana(n) :- Employee(n, 'Mgmt', p)", &schema, &mut domain).unwrap(),
        ),
    ];
    Workload {
        name: "collusion-exact/employee".to_string(),
        depth: AuditDepth::Exact,
        schema,
        domain,
        dictionary: None,
        mc_samples,
        report_cap: None,
        secret,
        steps,
    }
}

fn binary_schema() -> Schema {
    let mut schema = Schema::new();
    schema.add_relation("R", &["x", "y"]);
    schema
}

/// The §6 collusion pair over a binary relation at an exactly-enumerable
/// domain size, plus an α-renamed republication of the first view (served
/// 100% from the compile and crit memos).
pub(crate) fn prob_collusion_workload(size: usize, mc_samples: usize) -> Workload {
    let schema = binary_schema();
    let mut domain = Domain::with_size(size);
    let secret = parse_query("S(x, y) :- R(x, y)", &schema, &mut domain).unwrap();
    let v1 = parse_query("V1(x) :- R(x, y)", &schema, &mut domain).unwrap();
    let v2 = parse_query("V2(y) :- R(x, y)", &schema, &mut domain).unwrap();
    let republished = parse_query("W(u) :- R(u, w)", &schema, &mut domain).unwrap();
    let space = TupleSpace::full(&schema, &domain).unwrap();
    let dictionary = Some(Dictionary::half(space));
    Workload {
        name: format!("collusion-prob/domain{size}"),
        depth: AuditDepth::Probabilistic,
        schema,
        domain,
        dictionary,
        mc_samples,
        report_cap: Some(DEFAULT_REPORT_CAP),
        secret,
        steps: vec![
            ("v1".to_string(), v1),
            ("v2".to_string(), v2),
            ("v1-republished".to_string(), republished),
        ],
    }
}

/// The same pair over a space too large to enumerate: every fresh engine
/// redraws the full Monte-Carlo pool, the session draws it once.
pub(crate) fn mc_collusion_workload(size: usize, mc_samples: usize) -> Workload {
    let schema = binary_schema();
    let mut domain = Domain::with_size(size);
    let secret = parse_query("S(y) :- R(x, y)", &schema, &mut domain).unwrap();
    let v1 = parse_query("V1(x) :- R(x, y)", &schema, &mut domain).unwrap();
    let v2 = parse_query("V2(x) :- R(x, 'c0')", &schema, &mut domain).unwrap();
    let space = TupleSpace::full_with_cap(&schema, &domain, 4096).unwrap();
    let dictionary =
        Some(Dictionary::uniform(space, Ratio::new(1, size as i128)).expect("valid probability"));
    Workload {
        name: format!("collusion-mc/domain{size}"),
        depth: AuditDepth::Probabilistic,
        schema,
        domain,
        dictionary,
        mc_samples,
        report_cap: Some(DEFAULT_REPORT_CAP),
        secret,
        steps: vec![("v1".to_string(), v1), ("v2".to_string(), v2)],
    }
}

/// The `perfbench` `deep_sessions` view shape (wide, narrow × 3, wide,
/// narrow) over Employee × {ann, bea, Mgmt}, continued with two narrow
/// views: 9, 3, 3, 3, 9, 3, 3, 3 answers.
const GROWTH_MC_VIEWS: [&str; 8] = [
    "VA(n, d) :- Employee(n, d, p)",
    "VC(n) :- Employee(n, 'Mgmt', p)",
    "VD(p) :- Employee(n, d, p)",
    "VE(n) :- Employee(n, d, p)",
    "VB(d, p) :- Employee(n, d, p)",
    "VF(d) :- Employee(n, d, p)",
    "VJ(n) :- Employee(n, d, d)",
    "VK(p) :- Employee('ann', d, p)",
];

/// The same shape over Employee × {ann, bea} (no view names a constant
/// outside the domain): 4, 2, 2, 2, 4, 2, 2, 2 answers.
const GROWTH_EXACT_VIEWS: [&str; 8] = [
    "VA(n, d) :- Employee(n, d, p)",
    "VE(n) :- Employee(n, d, p)",
    "VD(p) :- Employee(n, d, p)",
    "VF(d) :- Employee(n, d, p)",
    "VB(d, p) :- Employee(n, d, p)",
    "VJ(n) :- Employee(n, d, d)",
    "VK(p) :- Employee('ann', d, p)",
    "VO(d) :- Employee('bea', d, p)",
];

const GROWTH_SECRET: &str = "S(n, p) :- Employee(n, d, p)";

/// Audits [`GROWTH_SECRET`] against every prefix of `views` on one kernel
/// over the uniform-`1/2` dictionary on Employee × `constants`.
fn views_growth_curve(
    name: &str,
    constants: &[&str],
    views: &[&str],
    config: KernelConfig,
    iterations: usize,
) -> ViewsGrowthCurve {
    let schema = qvsec_workload::schemas::employee_schema();
    let mut domain = Domain::with_constants(constants.iter().copied());
    let secret = parse_query(GROWTH_SECRET, &schema, &mut domain).unwrap();
    let parsed: Vec<ConjunctiveQuery> = views
        .iter()
        .map(|v| parse_query(v, &schema, &mut domain).unwrap())
        .collect();
    let space = TupleSpace::full_with_cap(&schema, &domain, 4096).unwrap();
    let kernel = ProbKernel::new(Arc::new(Dictionary::half(space)), config);
    let mut mode = String::new();
    let points = (1..=parsed.len())
        .map(|k| {
            let prefix = ViewSet::from_views(parsed[..k].to_vec());
            // The first audit compiles the new view and builds its pool
            // column; the timed ones recompute only the analysis.
            let audit = kernel.evaluate(&secret, &prefix).unwrap();
            mode = format!("{:?}", audit.estimator.mode);
            ViewsGrowthPoint {
                views: k,
                combos: parsed[..k]
                    .iter()
                    .map(|v| kernel.compile_cached(v).num_answers() as u64)
                    .product(),
                kernel_nanos: best_of(iterations, || {
                    kernel.evaluate(&secret, &prefix).unwrap();
                }),
            }
        })
        .collect();
    ViewsGrowthCurve {
        name: name.to_string(),
        mode,
        secret: GROWTH_SECRET.to_string(),
        views: views.iter().map(|v| v.to_string()).collect(),
        points,
    }
}

/// The views-growth sweep: the Monte-Carlo curve at `deep_sessions`' spec
/// (½, 512 samples, seed 7, report cap 16) and the exact ½ curve.
pub fn run_views_growth(iterations: usize) -> Vec<ViewsGrowthCurve> {
    let capped = KernelConfig {
        report_cap: Some(DEFAULT_REPORT_CAP),
        ..KernelConfig::default()
    };
    vec![
        views_growth_curve(
            "mc/deep_sessions",
            &["ann", "bea", "Mgmt"],
            &GROWTH_MC_VIEWS,
            KernelConfig {
                samples: 512,
                seed: 7,
                ..capped
            },
            iterations,
        ),
        views_growth_curve(
            "exact-half/employee2",
            &["ann", "bea"],
            &GROWTH_EXACT_VIEWS,
            capped,
            iterations,
        ),
    ]
}

/// Runs the harness over the three collusion workloads.
pub fn run_session_bench(iterations: usize) -> SessionBenchReport {
    run_session_bench_with(iterations, DEFAULT_MC_SAMPLES)
}

/// [`run_session_bench`] with an explicit Monte-Carlo pool size (the smoke
/// tests shrink it so the dev-profile run stays fast).
pub fn run_session_bench_with(iterations: usize, mc_samples: usize) -> SessionBenchReport {
    let workloads = [
        employee_collusion_workload(mc_samples),
        prob_collusion_workload(3, mc_samples),
        mc_collusion_workload(6, mc_samples),
    ];
    let reports: Vec<SessionWorkloadReport> = workloads
        .iter()
        .map(|w| run_workload(w, iterations))
        .collect();
    let warm: Vec<f64> = reports
        .iter()
        .flat_map(|w| w.steps.iter().skip(1).map(|s| s.speedup))
        .collect();
    let geomean_warm_speedup = if warm.is_empty() {
        1.0
    } else {
        (warm.iter().map(|s| s.ln()).sum::<f64>() / warm.len() as f64).exp()
    };
    SessionBenchReport {
        threads: rayon::current_num_threads(),
        iterations: iterations.max(1),
        geomean_warm_speedup,
        all_verdicts_match: reports
            .iter()
            .all(|w| w.steps.iter().all(|s| s.verdicts_match)),
        warm_steps_all_hit_cache: reports
            .iter()
            .all(|w| w.steps.iter().skip(1).all(|s| s.cache.any_reuse())),
        workloads: reports,
        views_growth: run_views_growth(iterations),
    }
}

/// Renders a compact human-readable table of the report.
pub fn render_report(report: &SessionBenchReport) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "warm session steps vs fresh-engine audits ({} threads, best of {}):",
        report.threads, report.iterations
    );
    let _ = writeln!(
        out,
        "{:<26} {:>4} {:<16} {:>12} {:>12} {:>8} {:>6} {:>6} {:>6}",
        "workload", "step", "view", "cold µs", "warm µs", "speedup", "crit", "cmpl", "match"
    );
    for w in &report.workloads {
        for s in &w.steps {
            let _ = writeln!(
                out,
                "{:<26} {:>4} {:<16} {:>12.1} {:>12.1} {:>7.1}x {:>6} {:>6} {:>6}",
                w.name,
                s.step,
                s.view,
                s.cold_nanos as f64 / 1000.0,
                s.warm_nanos as f64 / 1000.0,
                s.speedup,
                s.cache.crit_cache_hits,
                s.cache.compile_cache_hits,
                s.verdicts_match,
            );
        }
    }
    let _ = writeln!(
        out,
        "geomean warm-step (>=2) speedup {:.2}x, verdicts match: {}, warm cache hits: {}",
        report.geomean_warm_speedup, report.all_verdicts_match, report.warm_steps_all_hit_cache
    );
    let _ = writeln!(
        out,
        "kernel audit latency against audited views (memo off):"
    );
    let _ = writeln!(
        out,
        "{:<22} {:<10} {:>5} {:>9} {:>12}",
        "curve", "mode", "views", "combos", "kernel µs"
    );
    for curve in &report.views_growth {
        for p in &curve.points {
            let _ = writeln!(
                out,
                "{:<22} {:<10} {:>5} {:>9} {:>12.1}",
                curve.name,
                curve.mode,
                p.views,
                p.combos,
                p.kernel_nanos as f64 / 1000.0,
            );
        }
    }
    out
}
