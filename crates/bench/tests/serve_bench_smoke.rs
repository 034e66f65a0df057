//! Smoke tests for the serving-layer bench harness and the committed
//! `BENCH_serve.json` artifact.

use qvsec_bench::serve::{
    render_report, run_concurrent_bench, run_instrumentation_bench, run_saturation_bench,
    run_serve_bench, ServeBenchReport,
};

#[test]
fn harness_matches_the_stateless_baseline_and_survives_eviction_pressure() {
    // Tiny run: 3 tenants, one iteration, small Monte-Carlo pool — a
    // correctness smoke test, not a measurement.
    let report = run_serve_bench(1, 3, 256);
    assert_eq!(report.tenants, 3);
    assert_eq!(report.workloads.len(), 2);
    assert!(report.all_verdicts_match, "a registry verdict diverged");
    for w in &report.workloads {
        assert_eq!(w.requests, 3 * 3, "3 tenants x 3 collusion steps");
        assert!(w.cold_nanos > 0 && w.warm_nanos > 0);
        assert!(w.verdicts_match, "{}: divergence", w.name);
    }
    // The sweep: unbounded never evicts, the 4 KiB point must; every
    // point's verdicts track the unbounded drive.
    assert_eq!(report.eviction_sweep.len(), 3);
    assert!(report.eviction_verdicts_match);
    let unbounded = &report.eviction_sweep[0];
    assert_eq!(unbounded.budget_bytes, None);
    assert_eq!(unbounded.evictions, 0);
    assert!(unbounded.resident_bytes > 0);
    let tightest = report.eviction_sweep.last().unwrap();
    assert_eq!(tightest.budget_bytes, Some(4096));
    assert!(
        tightest.evictions > 0,
        "a 4 KiB budget must evict under the multi-tenant drive"
    );
    assert!(
        tightest.resident_bytes < unbounded.resident_bytes,
        "the budget must actually bound residency"
    );
    // One budget over one LRU: a budget that holds the unbounded working
    // set evicts nothing.
    for p in &report.eviction_sweep {
        if p.budget_bytes
            .is_some_and(|b| b as u64 >= unbounded.resident_bytes)
        {
            assert_eq!(p.evictions, 0, "{p:?} holds the working set yet evicted");
        }
    }

    // The concurrent sweep rode along: every client count answered the
    // tenants byte-identically to the single-client drive.
    let concurrent = &report.concurrent;
    assert_eq!(concurrent.tenants, 3);
    assert_eq!(
        concurrent
            .points
            .iter()
            .map(|p| p.client_threads)
            .collect::<Vec<_>>(),
        vec![1, 2, 4]
    );
    for p in &concurrent.points {
        assert!(p.nanos > 0 && p.throughput_rps > 0.0);
        assert!(
            p.responses_match,
            "{} clients diverged from the single-client drive",
            p.client_threads
        );
    }

    // The saturation sweep rode along: keep-alive pipelined connections
    // never drop a response and never rewrite one.
    let saturation = &report.saturation;
    assert_eq!(
        saturation
            .points
            .iter()
            .map(|p| p.connections)
            .collect::<Vec<_>>(),
        vec![1, 32, 64, 128]
    );
    for p in &saturation.points {
        assert_eq!(
            p.dropped_responses, 0,
            "{} keep-alive connections shed responses",
            p.connections
        );
        assert!(
            p.responses_match,
            "{} concurrent connections diverged from the sequential drive",
            p.connections
        );
        assert_eq!(
            p.requests,
            p.connections * saturation.requests_per_connection
        );
        assert!(p.nanos > 0 && p.throughput_rps > 0.0);
        assert_eq!(p.server.accepted, p.connections as u64);
        assert_eq!(p.server.responses_written as usize, p.requests);
    }

    // The instrumentation sweep rode along: fully-enabled telemetry must
    // not change a response byte.
    let instrumentation = &report.instrumentation;
    assert!(
        instrumentation.responses_match,
        "enabling tracing changed a response byte"
    );
    // open + 3 collusion publishes + 1 chain view per tenant.
    assert_eq!(instrumentation.requests, 3 * 5);
    assert!(instrumentation.off_nanos > 0 && instrumentation.on_nanos > 0);

    let rendered = render_report(&report);
    assert!(rendered.contains("eviction-pressure sweep"));
    assert!(rendered.contains("concurrent clients"));
    assert!(rendered.contains("saturation"));
    assert!(rendered.contains("instrumentation overhead"));
    let json = serde_json::to_string(&report).unwrap();
    let back: ServeBenchReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back.workloads.len(), report.workloads.len());
}

#[test]
fn saturation_drive_is_lossless_and_order_preserving() {
    // Standalone sweep at a smoke-test scale: the front end must deliver
    // every response, in order, and drain every connection.
    let report = run_saturation_bench(1, &[1, 8]);
    assert_eq!(report.points.len(), 2);
    for p in &report.points {
        assert_eq!(p.dropped_responses, 0);
        assert!(p.responses_match, "{} connections diverged", p.connections);
        assert!(p.p99_micros >= p.p50_micros);
        assert_eq!(p.server.active_connections, 0, "a connection never drained");
        assert_eq!(p.server.responses_written as usize, p.requests);
    }
}

#[test]
fn concurrent_clients_are_thread_invariant() {
    // The regression the shared memo must never introduce: request
    // interleavings at 1, 2 and 4 real client threads must produce
    // byte-identical per-tenant response streams (cache counters aside).
    let report = run_concurrent_bench(1, 4, 128);
    assert_eq!(report.tenants, 4);
    // open + 3 collusion publishes + 1 tenant-distinct chain per tenant.
    assert_eq!(report.requests, 4 * 5);
    assert!(report.cores >= 1);
    assert_eq!(report.points.len(), 3);
    for p in &report.points {
        assert!(
            p.responses_match,
            "{} client threads changed a tenant's responses",
            p.client_threads
        );
    }
}

#[test]
fn telemetry_plane_is_byte_transparent_under_the_bench_drive() {
    // Standalone overhead measurement at smoke scale: whatever the clock
    // says, the responses must be byte-identical with tracing on.
    let report = run_instrumentation_bench(1, 3);
    assert!(report.responses_match, "tracing changed a response byte");
    assert_eq!(report.requests, 3 * 5);
    assert!(report.off_rps > 0.0 && report.on_rps > 0.0);
    assert!(report.retained_throughput > 0.0);
}

#[test]
fn committed_bench_serve_json_holds_the_acceptance_criteria() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    let text = std::fs::read_to_string(path)
        .expect("BENCH_serve.json is committed at the repository root");
    let report: ServeBenchReport = serde_json::from_str(&text).expect("BENCH_serve.json parses");
    assert!(report.threads >= 1);
    assert!(report.tenants >= 4);
    assert!(
        report.all_verdicts_match,
        "committed run had a registry/stateless divergence"
    );
    assert!(
        report.eviction_verdicts_match,
        "committed run had a budgeted/unbounded divergence"
    );
    // The acceptance floor: warm multi-tenant serving at least 3x over a
    // fresh engine per request on the collusion workload.
    let collusion = report
        .workloads
        .iter()
        .find(|w| w.name == "collusion-exact/employee")
        .expect("the collusion workload is recorded");
    assert!(
        collusion.speedup >= 3.0,
        "committed multi-tenant speedup below the 3x floor: {:.2}x",
        collusion.speedup
    );
    // Eviction pressure was demonstrated, transparently.
    assert!(report
        .eviction_sweep
        .iter()
        .any(|p| p.budget_bytes.is_some() && p.evictions > 0));
    assert!(report.eviction_sweep.iter().all(|p| p.verdicts_match));
    // The concurrent-serving floor: byte-identity is unconditional; the
    // 2x-at-4-clients throughput floor only binds when the recording
    // machine actually had 4 cores to serve with.
    let concurrent = &report.concurrent;
    assert!(
        concurrent.points.iter().all(|p| p.responses_match),
        "committed concurrent run diverged from the single-client drive"
    );
    if concurrent.cores >= 4 {
        let four = concurrent
            .points
            .iter()
            .find(|p| p.client_threads == 4)
            .expect("the 4-client point is recorded");
        assert!(
            four.speedup_vs_1 >= 2.0,
            "committed 4-client serving speedup below the 2x floor: {:.2}x",
            four.speedup_vs_1
        );
    }
    // The saturation floor: losslessness and byte-identity are
    // unconditional at every recorded connection count; the 2x-at-32-
    // connections throughput floor only binds on a machine with at least
    // 4 cores to absorb the concurrency.
    let saturation = &report.saturation;
    assert!(
        saturation
            .points
            .iter()
            .map(|p| p.connections)
            .any(|c| c >= 32),
        "the saturation sweep must reach at least 32 connections"
    );
    for p in &saturation.points {
        assert_eq!(
            p.dropped_responses, 0,
            "committed saturation run shed responses at {} connections",
            p.connections
        );
        assert!(
            p.responses_match,
            "committed saturation run diverged from the sequential drive at {} connections",
            p.connections
        );
    }
    // The instrumentation gate: byte-identity is unconditional, and the
    // committed recording must show the telemetry plane costing at most
    // 5% of req/s on the cheap workload (its relative worst case).
    assert!(
        report.instrumentation.responses_match,
        "committed run had a traced/untraced response divergence"
    );
    assert!(
        report.instrumentation.retained_throughput >= 0.95,
        "committed telemetry overhead exceeds the 5% gate: {:.1}% retained",
        report.instrumentation.retained_throughput * 100.0
    );
    if saturation.cores >= 4 {
        let thirty_two = saturation
            .points
            .iter()
            .find(|p| p.connections == 32)
            .expect("the 32-connection point is recorded");
        assert!(
            thirty_two.speedup_vs_1 >= 2.0,
            "committed 32-connection saturation throughput below the 2x floor: {:.2}x",
            thirty_two.speedup_vs_1
        );
    }
}
