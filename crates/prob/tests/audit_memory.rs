//! What probabilistic audits hold in memory, measured by a counting global
//! allocator. Every allocation also counts against a live-bytes ceiling;
//! one past it fails, which aborts this binary, so an audit whose working
//! set outgrows the ceiling fails fast instead of exhausting the machine.

use qvsec_cq::{canonical_form, parse_query, ConjunctiveQuery, ViewSet};
use qvsec_data::{Dictionary, Domain, MemoCache, MemoKind, Schema, TupleSpace};
use qvsec_prob::kernel::{EstimatorMode, KernelConfig, ProbKernel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Live heap bytes above which an allocation fails.
const CEILING: usize = 256 << 20;

static LIVE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Bytes requested by the current thread's allocations so far.
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded to the system allocator unchanged; the
// bookkeeping only refuses allocations (returning null) past the ceiling.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let size = layout.size();
        if LIVE.fetch_add(size, Ordering::Relaxed) + size > CEILING {
            LIVE.fetch_sub(size, Ordering::Relaxed);
            return std::ptr::null_mut();
        }
        let _ = ALLOCATED.try_with(|a| a.set(a.get() + size));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `R(x, y)` over four constants at tuple probability ½ (16 tuples), the
/// secret `S(x, y) :- R(x, y)` and three one-column views.
fn probe() -> (Arc<Dictionary>, ConjunctiveQuery, Vec<ConjunctiveQuery>) {
    let mut schema = Schema::new();
    schema.add_relation("R", &["x", "y"]);
    let mut domain = Domain::with_constants(["a", "b", "c", "d"]);
    let mut parse = |text: &str| parse_query(text, &schema, &mut domain).unwrap();
    let secret = parse("S(x, y) :- R(x, y)");
    let views = [
        "V1(x) :- R(x, 'b')",
        "V2(y) :- R('b', y)",
        "V3(x) :- R(x, 'c')",
    ]
    .map(parse);
    let dict = Dictionary::half(TupleSpace::full(&schema, &domain).unwrap());
    (Arc::new(dict), secret, views.to_vec())
}

#[test]
fn memoized_audits_are_charged_what_their_entries_hold() {
    // The memo holds a clone of the audit behind an `Arc`, keyed by the
    // `\u{1}`-joined canonical forms of the secret and the views. Its
    // charge must cover those bytes and overstate them by at most half.
    let (dict, secret, views) = probe();
    let mc = KernelConfig {
        exact_cutover: 0,
        samples: 512,
        seed: 7,
        ..KernelConfig::default()
    };
    let cases = [
        (EstimatorMode::Exact, 1, KernelConfig::default()),
        (EstimatorMode::MonteCarlo, 3, mc),
    ];
    for (mode, k, config) in cases {
        for report_cap in [Some(16), None] {
            let cache = Arc::new(MemoCache::default());
            let config = KernelConfig {
                report_cap,
                audit_memo: true,
                ..config
            };
            let kernel = ProbKernel::with_cache(Arc::clone(&dict), config, Arc::clone(&cache));
            let views = ViewSet::from_views(views[..k].to_vec());
            let audit = kernel.evaluate(&secret, &views).unwrap();
            assert_eq!(audit.estimator.mode, mode);
            let listed = audit.leakage.positive_entries.len();
            assert!(listed > 1, "{mode:?}: nothing listed");
            let charge = cache.stats().of(MemoKind::Audit).resident_bytes as usize;
            let before = ALLOCATED.with(Cell::get);
            let entry = Arc::new(audit.clone());
            let held = ALLOCATED.with(Cell::get) - before;
            drop(entry);
            let forms: Vec<String> = std::iter::once(&secret)
                .chain(views.iter())
                .map(canonical_form)
                .collect();
            let bytes = held + forms.join("\u{1}").len();
            assert!(
                charge >= bytes && 2 * charge <= 3 * bytes,
                "{mode:?}, cap {report_cap:?}, {listed} entries: charged {charge} B for {bytes} B"
            );
        }
    }
}

#[test]
fn uncapped_exact_audits_of_a_sixteen_answer_secret_stay_under_the_ceiling() {
    // Definition 4.1 enumerated over answer *sets* walks 2^23 pairs here at
    // two views and 2^26 at three, and its uncapped violation list outgrows
    // the ceiling; the §6.1 walk checks 256 and 1,024 pairs.
    let (dict, secret, views) = probe();
    let kernel = ProbKernel::new(dict, KernelConfig::default());
    for k in [2, 3] {
        let views = ViewSet::from_views(views[..k].to_vec());
        let audit = kernel.evaluate(&secret, &views).unwrap();
        assert_eq!(audit.estimator.mode, EstimatorMode::Exact);
        assert!(!audit.independence.independent);
        assert_eq!(audit.totally_disclosed, Some(false));
        assert_eq!(audit.leakage.pairs_checked, 16 * 4usize.pow(k as u32));
        assert!(!audit.leakage.max_leak.is_zero());
    }
}
