//! Registry concurrency stress: N worker threads drive M tenants with
//! interleaved publish/candidate requests through one shared
//! [`SessionRegistry`], and every tenant's report stream must be
//! **byte-identical** (audit verdicts, estimator metadata, marginal
//! disclosure) to a single-threaded replay of the same per-tenant script.
//!
//! What makes this non-trivial: all tenants share one engine — one artifact
//! store, one compile cache, one Monte-Carlo pool — so the test pins down
//! that cross-tenant cache traffic never leaks into a report: whole
//! serialized [`SessionReport`](qvsec::session::SessionReport)s are
//! compared.

use qvsec::engine::{AuditDepth, AuditEngine};
use qvsec_cq::ConjunctiveQuery;
use qvsec_data::{Dictionary, Domain, Schema, TupleSpace};
use qvsec_serve::SessionRegistry;
use std::sync::Arc;

/// The per-tenant script: interleaved candidate and publish steps over the
/// §6 collusion views, varied per tenant so different tenants exercise
/// different (but overlapping) artifact sets.
fn tenant_script(views: &[ConjunctiveQuery], tenant: usize) -> Vec<(bool, ConjunctiveQuery)> {
    let mut steps = Vec::new();
    for k in 0..views.len() {
        let view = views[(tenant + k) % views.len()].clone();
        steps.push((false, view.clone())); // what-if first
        steps.push((true, view)); // then commit
    }
    steps
}

fn run_script(
    registry: &SessionRegistry,
    tenant: &str,
    secret: &ConjunctiveQuery,
    script: &[(bool, ConjunctiveQuery)],
) -> Vec<String> {
    registry.open(tenant, secret).unwrap();
    script
        .iter()
        .map(|(commit, view)| {
            let report = if *commit {
                registry.publish(tenant, None, None, view.clone()).unwrap()
            } else {
                registry.audit_candidate(tenant, None, view).unwrap()
            };
            serde_json::to_string(&report).unwrap()
        })
        .collect()
}

fn probabilistic_engine() -> (Arc<AuditEngine>, ConjunctiveQuery, Vec<ConjunctiveQuery>) {
    let mut schema = Schema::new();
    schema.add_relation("R", &["x", "y"]);
    let mut domain = Domain::with_constants(["a", "b"]);
    let secret = qvsec_cq::parse_query("S(x, y) :- R(x, y)", &schema, &mut domain).unwrap();
    let views = vec![
        qvsec_cq::parse_query("V1(x) :- R(x, y)", &schema, &mut domain).unwrap(),
        qvsec_cq::parse_query("V2(y) :- R(x, y)", &schema, &mut domain).unwrap(),
        qvsec_cq::parse_query("V3(x) :- R(x, 'a')", &schema, &mut domain).unwrap(),
    ];
    let space = TupleSpace::full(&schema, &domain).unwrap();
    let engine = Arc::new(
        AuditEngine::builder(schema, domain)
            .dictionary(Dictionary::half(space))
            .default_depth(AuditDepth::Probabilistic)
            .mc_seed(11)
            .build(),
    );
    (engine, secret, views)
}

#[test]
fn concurrent_tenants_match_single_threaded_replays() {
    const THREADS: usize = 4;
    const TENANTS_PER_THREAD: usize = 3;

    let (engine, secret, views) = probabilistic_engine();
    let registry = Arc::new(SessionRegistry::new(Arc::clone(&engine)));

    // Concurrent run: THREADS workers, each driving its own tenants, all
    // interleaving on the shared engine.
    let concurrent: Vec<(String, Vec<String>)> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for worker in 0..THREADS {
            let registry = Arc::clone(&registry);
            let secret = secret.clone();
            let views = views.clone();
            handles.push(scope.spawn(move || {
                let mut out = Vec::new();
                for slot in 0..TENANTS_PER_THREAD {
                    let tenant_no = worker * TENANTS_PER_THREAD + slot;
                    let tenant = format!("tenant-{tenant_no}");
                    let script = tenant_script(&views, tenant_no);
                    let stream = run_script(&registry, &tenant, &secret, &script);
                    out.push((tenant, stream));
                }
                out
            }));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    assert_eq!(registry.tenant_count(), THREADS * TENANTS_PER_THREAD);

    // Single-threaded replay: a fresh engine and registry, same scripts,
    // tenants served one after another.
    let (replay_engine, _, _) = probabilistic_engine();
    let replay_registry = SessionRegistry::new(replay_engine);
    for (tenant, concurrent_stream) in &concurrent {
        let tenant_no: usize = tenant.trim_start_matches("tenant-").parse().unwrap();
        let script = tenant_script(&views, tenant_no);
        let replayed = run_script(&replay_registry, tenant, &secret, &script);
        assert_eq!(
            &replayed, concurrent_stream,
            "{tenant}: concurrent report stream diverged from the serial replay"
        );
    }

    // The shared engine really was shared: later tenants reused artifacts.
    let cache = engine.cache_stats();
    assert!(cache.any_reuse(), "no tenant saw cache reuse: {cache:?}");
    let stats = registry.stats();
    assert_eq!(stats.requests_served as usize, {
        // open + 2 steps per view, per tenant
        THREADS * TENANTS_PER_THREAD * (1 + 2 * views.len())
    });
}

#[test]
fn concurrent_and_serial_registries_agree_under_a_tiny_cache_budget() {
    // The same property with eviction pressure: a 4 KiB engine budget keeps
    // caches churning while 4 threads interleave; verdicts must not move.
    const THREADS: usize = 4;
    let mut schema = Schema::new();
    schema.add_relation("Employee", &["name", "department", "phone"]);
    let budgeted = |budget: Option<usize>| {
        let mut builder = AuditEngine::builder(schema.clone(), Domain::new());
        if let Some(total) = budget {
            builder = builder.cache_budget_bytes(total);
        }
        Arc::new(builder.build())
    };
    let registry = Arc::new(SessionRegistry::new(budgeted(Some(4096))));
    let secret_text = "S(n, p) :- Employee(n, d, p)";
    let view_texts = [
        "VBob(n, d) :- Employee(n, d, p)",
        "VCarol(d, p) :- Employee(n, d, p)",
    ];
    let drive = |registry: &SessionRegistry, tenant: &str| -> Vec<String> {
        let secret = registry.parse(secret_text).unwrap();
        registry.open(tenant, &secret).unwrap();
        view_texts
            .iter()
            .map(|text| {
                let view = registry.parse(text).unwrap();
                serde_json::to_string(&registry.publish(tenant, None, None, view).unwrap()).unwrap()
            })
            .collect()
    };
    let concurrent: Vec<(String, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|w| {
                let registry = Arc::clone(&registry);
                scope.spawn(move || {
                    let tenant = format!("t{w}");
                    let stream = drive(&registry, &tenant);
                    (tenant, stream)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // Serial replay on an UNBOUNDED engine: eviction must be invisible.
    let serial_registry = SessionRegistry::new(budgeted(None));
    for (tenant, stream) in &concurrent {
        assert_eq!(
            &drive(&serial_registry, tenant),
            stream,
            "{tenant}: budgeted concurrent verdicts diverged from unbounded serial ones"
        );
    }
}
