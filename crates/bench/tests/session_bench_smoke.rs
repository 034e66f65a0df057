//! Smoke tests for the session bench harness and the committed
//! `BENCH_session.json` artifact.

use qvsec_bench::session::{
    render_report, run_session_bench_with, SessionBenchReport, ViewsGrowthCurve,
};

/// The views-growth section's shape: a Monte-Carlo and an exact curve, one
/// point per prefix of eight views, with the combos the view shapes fix.
fn assert_views_growth_shape(curves: &[ViewsGrowthCurve]) {
    let modes: Vec<&str> = curves.iter().map(|c| c.mode.as_str()).collect();
    assert_eq!(modes, ["MonteCarlo", "Exact"]);
    let answers: [[u64; 8]; 2] = [[9, 3, 3, 3, 9, 3, 3, 3], [4, 2, 2, 2, 4, 2, 2, 2]];
    for (curve, answers) in curves.iter().zip(answers) {
        assert_eq!(curve.views.len(), 8, "{}", curve.name);
        let ks: Vec<usize> = curve.points.iter().map(|p| p.views).collect();
        assert_eq!(ks, (1..=8).collect::<Vec<_>>(), "{}", curve.name);
        let mut combos = 1;
        for (p, n) in curve.points.iter().zip(answers) {
            combos *= n;
            assert_eq!(p.combos, combos, "{} at {} views", curve.name, p.views);
            assert!(p.kernel_nanos > 0);
        }
    }
}

#[test]
fn harness_runs_warm_steps_hit_cache_and_match_the_stateless_baseline() {
    // Single iteration, tiny Monte-Carlo pool: a correctness smoke test,
    // not a measurement.
    let report = run_session_bench_with(1, 512);
    assert_eq!(report.workloads.len(), 3);
    assert!(report.all_verdicts_match, "a session step diverged");
    assert!(
        report.warm_steps_all_hit_cache,
        "a warm step served nothing from cache"
    );
    for w in &report.workloads {
        assert!(w.steps.len() >= 2, "{}: needs warm steps", w.name);
        for s in &w.steps {
            assert!(s.verdicts_match, "{} step {}: divergence", w.name, s.step);
            assert!(s.cold_nanos > 0 && s.warm_nanos > 0);
            if s.step >= 2 {
                assert!(
                    s.cache.crit_cache_hits > 0,
                    "{} step {}: no crit-cache hits: {:?}",
                    w.name,
                    s.step,
                    s.cache
                );
            }
        }
    }
    // Warm probabilistic steps are served from the kernel's whole-audit
    // memo: no compilation, no pooled column, no marginal walk — the
    // verdict comes straight back.
    let prob = &report.workloads[1];
    assert!(
        prob.steps[1].cache.kernel_audit_hits > 0,
        "warm probabilistic step must hit the audit memo: {:?}",
        prob.steps[1].cache
    );
    let mc = &report.workloads[2];
    assert!(
        mc.steps[1].cache.kernel_audit_hits > 0,
        "warm MC step must hit the audit memo: {:?}",
        mc.steps[1].cache
    );
    // The α-renamed republication is served entirely from the memo.
    let republished = prob.steps.last().unwrap();
    assert_eq!(republished.cache.crit_cache_misses, 0);
    assert_eq!(republished.cache.queries_compiled, 0);

    assert_views_growth_shape(&report.views_growth);

    let rendered = render_report(&report);
    assert!(rendered.contains("geomean"));
    assert!(rendered.contains("mc/deep_sessions"));
    let json = serde_json::to_string(&report).unwrap();
    let back: SessionBenchReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back.workloads.len(), report.workloads.len());
}

#[test]
fn committed_bench_session_json_parses_and_holds_the_acceptance_criteria() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_session.json");
    let text = std::fs::read_to_string(path)
        .expect("BENCH_session.json is committed at the repository root");
    let report: SessionBenchReport =
        serde_json::from_str(&text).expect("BENCH_session.json parses");
    assert!(!report.workloads.is_empty());
    assert!(report.threads >= 1);
    assert_views_growth_shape(&report.views_growth);
    assert!(
        report.all_verdicts_match,
        "committed run had a session/stateless divergence"
    );
    assert!(
        report.warm_steps_all_hit_cache,
        "committed run shows a warm step without cache reuse"
    );
    assert!(
        report.geomean_warm_speedup >= 1.5,
        "committed warm steps must beat fresh-engine audits, got {:.2}x",
        report.geomean_warm_speedup
    );
    // Per-workload floors after the packed-signature marginal work: the
    // exact workload's warm steps are served almost entirely from memo
    // (>= 4x), and the probabilistic workloads — whose warm ratio sat at
    // ~1x when every warm step re-ran the decoding analysis — now hold
    // >= 2x comfortably (recorded: ~28x at domain3, ~235x on the
    // Monte-Carlo workload) because the shared signature tail runs over
    // packed accumulators and repeat audits hit the whole-audit memo.
    for w in &report.workloads {
        let floor = if w.depth == "exact" { 4.0 } else { 2.0 };
        assert!(
            w.warm_geomean_speedup >= floor,
            "{}: committed warm geomean {:.2}x below the {:.1}x floor",
            w.name,
            w.warm_geomean_speedup,
            floor
        );
    }
    for w in &report.workloads {
        for s in w.steps.iter().filter(|s| s.step >= 2) {
            assert!(
                s.cache.crit_cache_hits > 0 || s.cache.compile_cache_hits > 0,
                "{} step {}: committed warm step shows no compile/crit hits",
                w.name,
                s.step
            );
        }
    }
}
