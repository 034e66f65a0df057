//! The probabilistic-kernel benchmark harness behind `BENCH_prob.json`.
//!
//! Measures the shared-sample kernel ([`qvsec_prob::ProbKernel`]) against
//! the preserved enumeration baseline — the exact code the engine's
//! `Probabilistic` stage ran before the kernel existed:
//! [`qvsec_prob::check_independence`] + [`qvsec::leakage_exact`] +
//! [`qvsec::report::is_totally_disclosed`], each of which re-enumerates the
//! `2^n` instances of the tuple space (the leakage pass once per
//! `(answer, view-answer)` pair). The kernel decides independence from
//! critical tuples (Theorems 4.5 and 4.8) and serves leakage and total
//! disclosure from **one** streamed pass over `u64` world masks — none at
//! all for an independent pair — which is where the speedup comes from.
//!
//! Workloads are the four Table 1 rows over their support dictionaries plus
//! projection/collusion pairs over a binary relation at growing domain
//! sizes. Every workload asserts `verdicts_match`: the independence
//! verdict, the leakage report and the total-disclosure flag equal the
//! baseline's.
//!
//! The binary `bench_prob` runs this harness and writes `BENCH_prob.json`,
//! mirroring `BENCH_crit.json`.

use qvsec::leakage::{leakage_exact, LeakageReport};
use qvsec::report::is_totally_disclosed;
use qvsec_cq::{parse_query, ConjunctiveQuery, ViewSet};
use qvsec_data::{Dictionary, Domain, Schema, TupleSpace};
use qvsec_prob::independence::check_independence;
use qvsec_prob::kernel::{KernelConfig, ProbKernel};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// Default domain sizes for the binary-relation workloads (`|D|²` tuples,
/// so `2^9` and `2^16` worlds).
pub const DEFAULT_DOMAIN_SIZES: &[usize] = &[3, 4];

/// Default shared-pool size for the Monte-Carlo section.
pub const DEFAULT_MC_SAMPLES: usize = 8192;

/// One Probabilistic-stage measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProbWorkloadReport {
    /// Workload label, e.g. `proj-pair/domain4`.
    pub name: String,
    /// Tuples in the dictionary's space.
    pub space_size: usize,
    /// Worlds enumerated (`2^space_size`).
    pub worlds: u64,
    /// Number of views.
    pub views: usize,
    /// Best-of-N wall clock of the enumeration baseline, nanoseconds.
    pub seq_nanos: u64,
    /// Best-of-N wall clock of the streaming kernel, nanoseconds.
    pub kernel_nanos: u64,
    /// `seq_nanos / kernel_nanos`.
    pub speedup: f64,
    /// Whether kernel and baseline produced identical verdicts
    /// (independence, leakage report, total disclosure).
    pub verdicts_match: bool,
    /// The (shared) independence verdict.
    pub independent: bool,
    /// The (shared) `leak(S, V̄)` as an `f64`.
    pub max_leak: f64,
    /// The (shared) total-disclosure verdict.
    pub totally_disclosed: bool,
}

/// The Monte-Carlo section: demonstrates the shared pool on a space too
/// large to enumerate (no exact baseline exists there — the pre-kernel
/// engine refused such audits).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct McPoolReport {
    /// Tuples in the oversized space.
    pub space_size: usize,
    /// Pool size.
    pub samples: usize,
    /// Pool seed.
    pub seed: u64,
    /// Audits served from the one pool.
    pub audits: usize,
    /// Worlds drawn (once).
    pub samples_drawn: u64,
    /// Worlds served from the pool instead of redrawn.
    pub samples_reused: u64,
    /// Exact→Monte-Carlo cutovers observed.
    pub cutovers: u64,
    /// Estimated independence verdict of the audited pair.
    pub independent: bool,
    /// Estimated `leak(S, V̄)`.
    pub max_leak_estimate: f64,
    /// Whether two kernels with the same seed produced identical reports.
    pub determinism_ok: bool,
}

/// The full harness report serialized into `BENCH_prob.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProbBenchReport {
    /// Worker threads available to the parallel streaming/sampling.
    pub threads: usize,
    /// Iterations per measurement (best-of).
    pub iterations: usize,
    /// Domain sizes of the binary-relation workloads.
    pub domain_sizes: Vec<usize>,
    /// Per-workload measurements.
    pub workloads: Vec<ProbWorkloadReport>,
    /// Smallest per-workload speedup.
    pub min_speedup: f64,
    /// Geometric mean of per-workload speedups.
    pub geomean_speedup: f64,
    /// The shared-pool Monte-Carlo section.
    pub mc: McPoolReport,
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

/// The enumeration baseline: exactly the three passes the pre-kernel
/// engine ran at `AuditDepth::Probabilistic`.
fn baseline(
    secret: &ConjunctiveQuery,
    views: &ViewSet,
    dict: &Dictionary,
) -> (qvsec_prob::IndependenceReport, LeakageReport, bool) {
    let ind = check_independence(secret, views, dict).unwrap();
    let leak = leakage_exact(secret, views, dict).unwrap();
    let total = is_totally_disclosed(secret, views, dict).unwrap();
    (ind, leak, total)
}

fn run_workload(
    name: String,
    secret: &ConjunctiveQuery,
    views: &ViewSet,
    dict: &Dictionary,
    iterations: usize,
) -> ProbWorkloadReport {
    // Correctness first, outside the timed region.
    let arc_dict = Arc::new(dict.clone());
    let kernel = ProbKernel::new(Arc::clone(&arc_dict), KernelConfig::default());
    let audit = kernel.evaluate(secret, views).unwrap();
    let (base_ind, base_leak, base_total) = baseline(secret, views, dict);
    let kernel_leak = LeakageReport::from(audit.leakage.clone());
    let verdicts_match = audit.independence.independent == base_ind.independent
        && kernel_leak.max_leak == base_leak.max_leak
        && kernel_leak.witness == base_leak.witness
        && kernel_leak.positive_entries == base_leak.positive_entries
        && kernel_leak.pairs_checked == base_leak.pairs_checked
        && audit.totally_disclosed == Some(base_total);

    let seq_nanos = best_of(iterations, || {
        baseline(secret, views, dict);
    });
    let kernel_nanos = best_of(iterations, || {
        let k = ProbKernel::new(Arc::clone(&arc_dict), KernelConfig::default());
        k.evaluate(secret, views).unwrap();
    });
    ProbWorkloadReport {
        name,
        space_size: dict.len(),
        worlds: 1u64 << dict.len(),
        views: views.len(),
        seq_nanos,
        kernel_nanos,
        speedup: seq_nanos as f64 / kernel_nanos.max(1) as f64,
        verdicts_match,
        independent: base_ind.independent,
        max_leak: base_leak.max_leak_f64(),
        totally_disclosed: base_total,
    }
}

fn binary_schema() -> Schema {
    let mut schema = Schema::new();
    schema.add_relation("R", &["x", "y"]);
    schema
}

/// The shared-pool Monte-Carlo section over a space no exact procedure can
/// enumerate (`|D|² > MAX_ENUMERABLE` tuples).
fn run_mc_section(samples: usize) -> McPoolReport {
    let schema = binary_schema();
    let mut domain = Domain::with_size(6); // 36 tuples
    let s = parse_query("S(y) :- R(x, y)", &schema, &mut domain).unwrap();
    let v = parse_query("V(x) :- R(x, y)", &schema, &mut domain).unwrap();
    let views = ViewSet::single(v);
    let space = TupleSpace::full_with_cap(&schema, &domain, 4096).unwrap();
    let dict = Arc::new(Dictionary::uniform(space, qvsec_data::Ratio::new(1, 6)).unwrap());
    let config = KernelConfig {
        exact_cutover: qvsec_data::bitset::MAX_ENUMERABLE,
        samples,
        seed: 42,
        ..KernelConfig::default()
    };
    let kernel = ProbKernel::new(Arc::clone(&dict), config);
    assert!(!kernel.is_exact());
    let first = kernel.evaluate(&s, &views).unwrap();
    let second = kernel.evaluate(&s, &views).unwrap();
    let stats = kernel.stats();
    // A fresh kernel with the same seed must reproduce the report exactly.
    let other = ProbKernel::new(Arc::clone(&dict), config);
    let replay = other.evaluate(&s, &views).unwrap();
    let bytes = |audit: &qvsec_prob::KernelAudit| serde_json::to_string(audit).unwrap();
    let determinism_ok = bytes(&first) == bytes(&second) && bytes(&first) == bytes(&replay);
    McPoolReport {
        space_size: dict.len(),
        samples,
        seed: 42,
        audits: 2,
        samples_drawn: stats.samples_drawn,
        samples_reused: stats.samples_reused,
        cutovers: stats.cutovers,
        independent: first.independence.independent,
        max_leak_estimate: first.leakage.max_leak.to_f64(),
        determinism_ok,
    }
}

/// Runs the harness: Table 1 rows over support dictionaries, then
/// projection and collusion workloads over the binary relation at each
/// domain size (collusion only at the smallest size — its baseline cost is
/// quadratic in the answer count), then the Monte-Carlo pool section.
pub fn run_prob_bench(
    domain_sizes: &[usize],
    iterations: usize,
    mc_samples: usize,
) -> ProbBenchReport {
    let mut workloads = Vec::new();

    for row in qvsec_workload::paper::table1() {
        let mut queries: Vec<&ConjunctiveQuery> = vec![&row.secret];
        queries.extend(row.views.iter());
        let dict = crate::support_dictionary(&queries, &row.domain);
        workloads.push(run_workload(
            format!("table1-row{}/support{}", row.id, dict.len()),
            &row.secret,
            &row.views,
            &dict,
            iterations,
        ));
    }

    let schema = binary_schema();
    for (k, &size) in domain_sizes.iter().enumerate() {
        let mut domain = Domain::with_size(size);
        let s = parse_query("S(y) :- R(x, y)", &schema, &mut domain).unwrap();
        let v = parse_query("V(x) :- R(x, y)", &schema, &mut domain).unwrap();
        let space = TupleSpace::full(&schema, &domain).unwrap();
        assert!(
            space.len() <= qvsec_data::bitset::MAX_ENUMERABLE,
            "domain size {size} exceeds the enumerable baseline"
        );
        let dict = Dictionary::half(space);
        workloads.push(run_workload(
            format!("proj-pair/domain{size}"),
            &s,
            &ViewSet::single(v),
            &dict,
            iterations,
        ));
        if k == 0 {
            let s2 = parse_query("S2(x, y) :- R(x, y)", &schema, &mut domain).unwrap();
            let v1 = parse_query("V1(x) :- R(x, y)", &schema, &mut domain).unwrap();
            let v2 = parse_query("V2(y) :- R(x, y)", &schema, &mut domain).unwrap();
            let space = TupleSpace::full(&schema, &domain).unwrap();
            let dict = Dictionary::half(space);
            workloads.push(run_workload(
                format!("collusion/domain{size}"),
                &s2,
                &ViewSet::from_views(vec![v1, v2]),
                &dict,
                iterations,
            ));
        }
    }

    let speedups: Vec<f64> = workloads.iter().map(|w| w.speedup).collect();
    let min_speedup = speedups.iter().cloned().fold(f64::INFINITY, f64::min);
    let geomean_speedup =
        (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len().max(1) as f64).exp();
    ProbBenchReport {
        threads: rayon::current_num_threads(),
        iterations: iterations.max(1),
        domain_sizes: domain_sizes.to_vec(),
        workloads,
        min_speedup,
        geomean_speedup,
        mc: run_mc_section(mc_samples),
    }
}

/// Renders a compact human-readable table of the report.
pub fn render_report(report: &ProbBenchReport) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "probabilistic kernel vs enumeration baseline ({} threads, best of {}):",
        report.threads, report.iterations
    );
    let _ = writeln!(
        out,
        "{:<26} {:>6} {:>8} {:>12} {:>12} {:>8}  {:>6}",
        "workload", "tuples", "worlds", "seq µs", "kernel µs", "speedup", "match"
    );
    for w in &report.workloads {
        let _ = writeln!(
            out,
            "{:<26} {:>6} {:>8} {:>12.1} {:>12.1} {:>7.1}x  {:>6}",
            w.name,
            w.space_size,
            w.worlds,
            w.seq_nanos as f64 / 1000.0,
            w.kernel_nanos as f64 / 1000.0,
            w.speedup,
            w.verdicts_match,
        );
    }
    let _ = writeln!(
        out,
        "min speedup {:.2}x, geometric mean {:.2}x",
        report.min_speedup, report.geomean_speedup
    );
    let _ = writeln!(
        out,
        "mc pool: {} tuples, {} samples (seed {}), drawn {} / reused {} over {} audits, deterministic: {}",
        report.mc.space_size,
        report.mc.samples,
        report.mc.seed,
        report.mc.samples_drawn,
        report.mc.samples_reused,
        report.mc.audits,
        report.mc.determinism_ok,
    );
    out
}
