//! Smoke tests for the probabilistic-kernel bench harness and the committed
//! `BENCH_prob.json` artifact.

use qvsec_bench::prob::{run_prob_bench, ProbBenchReport};

#[test]
fn harness_runs_matches_the_baseline_and_reports_pool_reuse() {
    // Tiny size, single iteration, small pool: a correctness smoke test,
    // not a measurement.
    let report = run_prob_bench(&[2], 1, 500);
    assert_eq!(report.domain_sizes, vec![2]);
    // 4 Table 1 rows + proj-pair + collusion at the single size.
    assert_eq!(report.workloads.len(), 6);
    for w in &report.workloads {
        assert!(w.verdicts_match, "{}: kernel and baseline disagree", w.name);
        assert_eq!(w.worlds, 1u64 << w.space_size);
        assert!(w.seq_nanos > 0 && w.kernel_nanos > 0);
    }
    // The Table 1 verdict pattern survives the kernel: row 1 totally
    // disclosed, rows 1-3 dependent, row 4 independent with zero leakage.
    let by_name = |n: &str| {
        report
            .workloads
            .iter()
            .find(|w| w.name.starts_with(n))
            .unwrap()
    };
    assert!(by_name("table1-row1").totally_disclosed);
    assert!(!by_name("table1-row1").independent);
    assert!(by_name("table1-row4").independent);
    assert_eq!(by_name("table1-row4").max_leak, 0.0);
    assert!(by_name("collusion").max_leak > 0.0);
    // The Monte-Carlo pool was drawn once and reused across passes/audits:
    // each audit's determinacy pass after its leakage walk, and the second
    // audit's pool fetch.
    assert_eq!(report.mc.samples_drawn, 500);
    assert!(report.mc.samples_reused >= 3 * 500);
    assert_eq!(report.mc.cutovers, 2);
    assert!(report.mc.determinism_ok);
    // Round-trips through JSON with the estimator fields intact.
    let json = serde_json::to_string(&report).unwrap();
    for key in [
        "verdicts_match",
        "seq_nanos",
        "kernel_nanos",
        "speedup",
        "samples_drawn",
        "samples_reused",
        "determinism_ok",
        "geomean_speedup",
    ] {
        assert!(json.contains(key), "missing `{key}` in harness JSON");
    }
    let back: ProbBenchReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back.workloads.len(), report.workloads.len());
}

#[test]
fn committed_bench_prob_json_parses_and_meets_the_speedup_floor() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_prob.json");
    let text =
        std::fs::read_to_string(path).expect("BENCH_prob.json is committed at the repository root");
    let report: ProbBenchReport = serde_json::from_str(&text).expect("BENCH_prob.json parses");
    assert!(!report.workloads.is_empty());
    assert!(report.threads >= 1);
    for w in &report.workloads {
        assert!(
            w.verdicts_match,
            "{}: committed run had a verdict mismatch",
            w.name
        );
    }
    assert!(
        report.geomean_speedup >= 5.0,
        "committed kernel run must hold the 5x geomean floor, got {}",
        report.geomean_speedup
    );
    assert!(
        report.min_speedup >= 1.0,
        "committed kernel run must not be slower than the baseline anywhere"
    );
    assert!(report.mc.determinism_ok);
    assert!(
        report.mc.samples_reused >= 2 * report.mc.samples_drawn,
        "the committed trajectory must show the shared pool at work"
    );
    // The quadratic leakage aggregation capped this workload at ~5.3x;
    // indexing signatures by secret-answer bit (plus the clone-free
    // independence pair walk) lifted it — the committed artifact must hold
    // the improvement.
    let collusion = report
        .workloads
        .iter()
        .find(|w| w.name.starts_with("collusion"))
        .expect("the collusion workload is recorded");
    assert!(
        collusion.speedup >= 5.5,
        "committed collusion speedup regressed to {:.2}x (quadratic-era level was ~5.3x)",
        collusion.speedup
    );
}
