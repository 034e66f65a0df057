//! Seeded request lists for the three workloads.
//!
//! A [`Plan`] is a pure function of `(workload, seed, seconds, size)`: the
//! program under test only ever sees the generated lines. Work is fixed, not
//! timed — `seconds` only scales how many cycles the lists hold, through the
//! per-workload rates below, so a run always replays its list to the end.

use std::collections::HashSet;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A warm front end: every request crosses decode, parse, registry,
    /// memo lookups and witness rendering; no kernel, no store.
    WireMix,
    /// Kernel-bound view growth: Monte-Carlo audits at 4 to 6 views.
    DeepSessions,
    /// The journal and restart: a log store seeded by the server itself.
    DurableRestart,
}

impl Workload {
    /// Every workload the benchmark runs by name; `BENCHMARK.json` gates
    /// the last two.
    pub const ALL: [Workload; 3] = [
        Workload::WireMix,
        Workload::DeepSessions,
        Workload::DurableRestart,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WireMix => "wire_mix",
            Workload::DeepSessions => "deep_sessions",
            Workload::DurableRestart => "durable_restart",
        }
    }

    /// The serve spec (`specs/<name>.json`) the workload's servers run:
    /// `durable_restart` is `wire_mix`'s spec over a log store.
    pub fn spec(self) -> &'static str {
        match self {
            Workload::DeepSessions => "deep_sessions",
            Workload::WireMix | Workload::DurableRestart => "wire_mix",
        }
    }

    /// Parses a command-line workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Which latency class a request's round trip is reported under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// `candidate`: the what-if read.
    Candidate,
    /// `publish`: the committing write.
    Publish,
    /// Bookkeeping (`open`, `snapshot`, `restore`, `sql`, `explain`,
    /// `show_columns`): counted toward throughput only.
    Other,
}

/// What an audit is memoized under: the secret plus the view set, as
/// indices into the workload's pools (views sorted, so the key is a set).
pub type AuditKey = (usize, Vec<usize>);

/// One request line of a timed list.
#[derive(Debug, Clone)]
pub struct Req {
    /// The NDJSON request line.
    pub line: String,
    /// The latency class it is reported under.
    pub class: Class,
    /// The audit key of a `deep_sessions` audit (checked by the tests).
    #[cfg_attr(not(test), allow(dead_code))]
    pub key: Option<AuditKey>,
}

/// List sizes: `Full` scales with the run's seconds, `Tiny` is the smoke size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Size {
    /// Sized to take about this many seconds on a 2-core x86-64 box.
    Full(u64),
    /// A few cycles per workload, for smoke runs.
    Tiny,
}

/// Everything one run sends, all of it on one connection.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Sent before the timed phase: the warm-up (`wire_mix`,
    /// `deep_sessions`) or the store-seeding script (`durable_restart`).
    pub setup: Vec<String>,
    /// The timed list, replayed to its end.
    pub timed: Vec<Req>,
}

/// SplitMix64: small, seedable and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one `stream` of `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Renders a flat JSON object of string members.
fn request(fields: &[(&str, &str)]) -> String {
    let members: Vec<String> = fields
        .iter()
        .map(|(k, v)| {
            format!(
                "\"{k}\": \"{}\"",
                v.replace('\\', "\\\\").replace('"', "\\\"")
            )
        })
        .collect();
    format!("{{{}}}", members.join(", "))
}

fn req(line: String, class: Class) -> Req {
    Req {
        line,
        class,
        key: None,
    }
}

/// `wire_mix` and `durable_restart` schema: Employee/Dept/Assign over eight
/// constants (see `specs/wire_mix.json`).
const FRONT_SECRETS: [&str; 2] = [
    "S(n, p) :- Employee(n, d, p)",
    "S(n, d) :- Employee(n, d, p)",
];

/// Front-end view pool: `(name, datalog body, equivalent safe-SQL)`. Every
/// view joins through `Employee`, so each audit against either secret
/// renders the same 512 common critical tuples and costs about the same —
/// the candidate and publish latency classes have no step in them.
const FRONT_VIEWS: [(&str, &str, &str); 6] = [
    (
        "VEmp",
        "(n, d) :- Employee(n, d, p)",
        "SELECT name, department FROM Employee",
    ),
    (
        "VMgr",
        "(n, m) :- Employee(n, d, p), Dept(d, m)",
        "SELECT e.name, d.manager FROM Employee e JOIN Dept d ON e.department = d.department",
    ),
    (
        "VProj",
        "(n, j) :- Employee(n, d, p), Assign(n, j)",
        "SELECT e.name, a.project FROM Employee e JOIN Assign a ON e.name = a.name",
    ),
    (
        "VPhoneMgr",
        "(p, m) :- Employee(n, d, p), Dept(d, m)",
        "SELECT e.phone, d.manager FROM Employee e JOIN Dept d ON e.department = d.department",
    ),
    (
        "VDeptPhone",
        "(d, p) :- Employee(n, d, p)",
        "SELECT department, phone FROM Employee",
    ),
    (
        "VMgrProj",
        "(m, j) :- Dept(d, m), Employee(n, d, p), Assign(n, j)",
        "SELECT d.manager, a.project FROM Dept d JOIN Employee e ON d.department = e.department JOIN Assign a ON e.name = a.name",
    ),
];

const TABLES: [&str; 3] = ["Employee", "Dept", "Assign"];

fn front_datalog(view: usize) -> String {
    let (name, body, _) = FRONT_VIEWS[view];
    format!("{name}{body}")
}

/// A `publish`/`candidate` of front-end view `view`, in datalog or SQL.
fn front_audit(op: &str, tenant: &str, view: usize, sql: bool) -> String {
    let (name, _, select) = FRONT_VIEWS[view];
    if sql {
        request(&[
            ("op", op),
            ("tenant", tenant),
            ("sql", select),
            ("name", name),
        ])
    } else {
        request(&[
            ("op", op),
            ("tenant", tenant),
            ("view", &front_datalog(view)),
        ])
    }
}

/// `deep_sessions` view pools over the shipped Employee schema (constants
/// `ann`, `bea`, `Mgmt`). Monte-Carlo cost grows with the product of the
/// views' answer counts, so a tenant's views are drawn by shape: two-column
/// views (9 answers each) and one-column views (3 answers each).
const DEEP_WIDE: [&str; 5] = [
    "VA(n, d) :- Employee(n, d, p)",
    "VB(d, p) :- Employee(n, d, p)",
    "VG(n, p) :- Employee(n, 'bea', p)",
    "VH(d, p) :- Employee('ann', d, p)",
    "VI(n, d) :- Employee(n, d, 'Mgmt')",
];
const DEEP_NARROW: [&str; 10] = [
    "VC(n) :- Employee(n, 'Mgmt', p)",
    "VD(p) :- Employee(n, d, p)",
    "VE(n) :- Employee(n, d, p)",
    "VF(d) :- Employee(n, d, p)",
    "VJ(n) :- Employee(n, d, d)",
    "VK(p) :- Employee('ann', d, p)",
    "VL(d) :- Employee(n, d, 'Mgmt')",
    "VM(n) :- Employee(n, 'bea', p)",
    "VN(p) :- Employee(n, 'ann', p)",
    "VO(d) :- Employee('bea', d, p)",
];

/// The shape of every tenant's publication order: `true` = wide. Fixing
/// the shape fixes each depth's answer-count product (9·3·3, then ·3, ·9,
/// ·3), so the 4-, 5- and 6-view candidates form three tight cost bands of
/// equal size: p50 lies inside the 5-view band and p90 inside the 6-view
/// band, never on a step between bands. Which views fill the shape, and in
/// what order, is seeded.
const DEEP_SHAPE: [bool; 6] = [true, false, false, false, true, false];

/// The `deep_sessions` secrets.
const DEEP_SECRETS: [&str; 2] = [
    "S(n, p) :- Employee(n, d, p)",
    "S(n, d) :- Employee(n, d, p)",
];

/// Views each `deep_sessions` tenant publishes during set-up; the timed
/// phase audits views 4, 5 and 6.
const DEEP_PUBLISHED: usize = 3;

/// The fixed seed of the `deep_sessions` publication orders.
const DEEP_POOL_SEED: u64 = 0;

/// A deep view by pool index: wide views first, then narrow ones.
fn deep_view(index: usize) -> &'static str {
    DEEP_WIDE
        .get(index)
        .copied()
        .unwrap_or_else(|| DEEP_NARROW[index - DEEP_WIDE.len()])
}

/// Cycles (or tenants) per second of run, per workload, tuned so a
/// `Full(s)` list takes about `s` seconds on the reference box.
const WIRE_CYCLES_PER_SEC: u64 = 350;
const DEEP_TENANTS_PER_SEC: u64 = 8;
const DURABLE_CYCLES_PER_SEC: u64 = 7;

impl Plan {
    /// Draws the lists for one run.
    pub fn build(workload: Workload, seed: u64, size: Size) -> Plan {
        match workload {
            Workload::WireMix => wire_mix(seed, size),
            Workload::DeepSessions => deep_sessions(seed, size),
            Workload::DurableRestart => durable_restart(seed, size),
        }
    }

    /// Timed requests of one class.
    pub fn samples(&self, class: Class) -> usize {
        self.timed.iter().filter(|r| r.class == class).count()
    }
}

fn wire_mix(seed: u64, size: Size) -> Plan {
    let (tenants, cycles) = match size {
        Size::Full(seconds) => (16, (WIRE_CYCLES_PER_SEC * seconds.max(1)) as usize),
        Size::Tiny => (4, 12),
    };
    let mut rng = Rng::new(seed, 1);
    let mut setup = Vec::new();
    let mut bases = Vec::new();
    for t in 0..tenants {
        let tenant = format!("wm-{t}");
        let base = rng.below(FRONT_VIEWS.len());
        setup.push(request(&[
            ("op", "open"),
            ("tenant", &tenant),
            ("secret", FRONT_SECRETS[t % FRONT_SECRETS.len()]),
        ]));
        setup.push(front_audit("publish", &tenant, base, false));
        setup.push(request(&[
            ("op", "snapshot"),
            ("tenant", &tenant),
            ("label", "base"),
        ]));
        bases.push((tenant, base));
    }
    // Warm-up: every (tenant, view) pair the timed phase can draw, so the
    // timed phase only ever hits memoized artifacts.
    for (tenant, base) in &bases {
        for view in (0..FRONT_VIEWS.len()).filter(|v| v != base) {
            setup.push(front_audit("candidate", tenant, view, false));
            setup.push(front_audit("publish", tenant, view, false));
            setup.push(request(&[
                ("op", "restore"),
                ("tenant", tenant),
                ("label", "base"),
            ]));
        }
    }
    let mut rng = Rng::new(seed, 100);
    let mut timed = Vec::new();
    for _ in 0..cycles {
        let (tenant, base) = &bases[rng.below(bases.len())];
        let view = (base + 1 + rng.below(FRONT_VIEWS.len() - 1)) % FRONT_VIEWS.len();
        let sql = rng.below(2) == 1;
        timed.push(req(
            front_audit("candidate", tenant, view, sql),
            Class::Candidate,
        ));
        let sql = rng.below(2) == 1;
        timed.push(req(
            front_audit("publish", tenant, view, sql),
            Class::Publish,
        ));
        timed.push(req(
            request(&[("op", "restore"), ("tenant", tenant), ("label", "base")]),
            Class::Other,
        ));
        let (name, _, select) = FRONT_VIEWS[rng.below(FRONT_VIEWS.len())];
        let extra = match rng.below(4) {
            0 => request(&[("op", "sql"), ("sql", select), ("name", name)]),
            1 => request(&[
                ("op", "explain"),
                ("view", &front_datalog(rng.below(FRONT_VIEWS.len()))),
            ]),
            2 => request(&[
                ("op", "show_columns"),
                ("table", TABLES[rng.below(TABLES.len())]),
            ]),
            _ => continue,
        };
        timed.push(req(extra, Class::Other));
    }
    Plan {
        workload: Workload::WireMix,
        setup,
        timed,
    }
}

/// A seeded publication order in [`DEEP_SHAPE`] whose 4-, 5- and 6-view
/// prefixes are sets absent from `used` (the sets earlier tenants of the
/// same secret audit), which it then joins.
fn deep_order(rng: &mut Rng, used: &mut HashSet<Vec<usize>>) -> Vec<usize> {
    loop {
        let mut wide: Vec<usize> = (0..DEEP_WIDE.len()).collect();
        let mut narrow: Vec<usize> =
            (DEEP_WIDE.len()..DEEP_WIDE.len() + DEEP_NARROW.len()).collect();
        rng.shuffle(&mut wide);
        rng.shuffle(&mut narrow);
        let order: Vec<usize> = DEEP_SHAPE
            .iter()
            .map(|&is_wide| {
                (if is_wide { wide.pop() } else { narrow.pop() }).expect("pools cover the shape")
            })
            .collect();
        let prefixes: Vec<Vec<usize>> = (DEEP_PUBLISHED + 1..=DEEP_SHAPE.len())
            .map(|k| {
                let mut set = order[..k].to_vec();
                set.sort_unstable();
                set
            })
            .collect();
        if prefixes.iter().all(|p| !used.contains(p)) {
            used.extend(prefixes);
            return order;
        }
    }
}

fn deep_sessions(seed: u64, size: Size) -> Plan {
    let tenants = match size {
        Size::Full(seconds) => (DEEP_TENANTS_PER_SEC * seconds.max(1)) as usize,
        Size::Tiny => 2,
    };
    let mut setup = Vec::new();
    // Compile every view form once per secret and draw the shared sample
    // pool: a one-view candidate per view, on tenants the timed phase never
    // touches (one-view audit keys never recur there).
    for (s, secret) in DEEP_SECRETS.iter().enumerate() {
        let warm = format!("dw{s}");
        setup.push(request(&[
            ("op", "open"),
            ("tenant", &warm),
            ("secret", secret),
        ]));
        for view in (0..DEEP_WIDE.len() + DEEP_NARROW.len()).map(deep_view) {
            setup.push(request(&[
                ("op", "candidate"),
                ("tenant", &warm),
                ("view", view),
            ]));
        }
    }
    // The publication orders are one fixed draw, without reuse of a view
    // set per secret, so every timed candidate is a fresh audit key. The
    // seed deals them out to tenants and orders the tenants; it never
    // changes which sets a run audits, and so never its cost mix (drawing
    // the sets per seed moved candidate p50 by ~12% between two seeds).
    let mut pool = Rng::new(DEEP_POOL_SEED, 200);
    let mut used: Vec<HashSet<Vec<usize>>> = vec![HashSet::new(); DEEP_SECRETS.len()];
    let mut orders: Vec<(usize, Vec<usize>)> = (0..tenants)
        .map(|t| {
            let s = t % DEEP_SECRETS.len();
            (s, deep_order(&mut pool, &mut used[s]))
        })
        .collect();
    Rng::new(seed, 200).shuffle(&mut orders);
    let mut timed = Vec::new();
    for (t, (s, order)) in orders.into_iter().enumerate() {
        let tenant = format!("ds-{t}");
        setup.push(request(&[
            ("op", "open"),
            ("tenant", &tenant),
            ("secret", DEEP_SECRETS[s]),
        ]));
        for &view in &order[..DEEP_PUBLISHED] {
            setup.push(request(&[
                ("op", "publish"),
                ("tenant", &tenant),
                ("view", deep_view(view)),
            ]));
        }
        for k in DEEP_PUBLISHED..DEEP_SHAPE.len() {
            let view = deep_view(order[k]);
            let mut set = order[..=k].to_vec();
            set.sort_unstable();
            for (op, class) in [("candidate", Class::Candidate), ("publish", Class::Publish)] {
                timed.push(Req {
                    line: request(&[("op", op), ("tenant", &tenant), ("view", view)]),
                    class,
                    key: Some((s, set.clone())),
                });
            }
        }
    }
    Plan {
        workload: Workload::DeepSessions,
        setup,
        timed,
    }
}

/// `durable_restart` tenants, and the seed's cycles after their histories.
/// The seeded journal (~2.2 KB an event) ends just past `LogStore`'s default
/// 8 MiB compaction threshold, so every timed append compacts: the live
/// journal is never smaller than the threshold, because nothing in it is
/// ever deleted, and each compaction rewrites and fsyncs all of it.
const DURABLE_TENANTS: usize = 40;
const DURABLE_SEED_CYCLES: usize = 905;

fn durable_restart(seed: u64, size: Size) -> Plan {
    let (tenants, seed_cycles, cycles) = match size {
        Size::Full(seconds) => (
            DURABLE_TENANTS,
            DURABLE_SEED_CYCLES,
            (DURABLE_CYCLES_PER_SEC * seconds.max(1)) as usize,
        ),
        Size::Tiny => (2, 4, 4),
    };
    let mut rng = Rng::new(seed, 300);
    let mut setup = Vec::new();
    let mut tenant_ids = Vec::new();
    for t in 0..tenants {
        let tenant = format!("dr-{t}");
        setup.push(request(&[
            ("op", "open"),
            ("tenant", &tenant),
            ("secret", FRONT_SECRETS[t % FRONT_SECRETS.len()]),
        ]));
        let mut order: Vec<usize> = (0..FRONT_VIEWS.len()).collect();
        rng.shuffle(&mut order);
        for &view in &order[..5] {
            setup.push(front_audit("publish", &tenant, view, false));
        }
        tenant_ids.push(tenant);
    }
    // One cycle: a what-if read, a labelled snapshot, the committing write,
    // and the rewind — four journaled events, history length unchanged.
    // Audits come in datalog or SQL spelling by coin flip, as on `wire_mix`.
    let cycle = |rng: &mut Rng| {
        let tenant = &tenant_ids[rng.below(tenant_ids.len())];
        let view = rng.below(FRONT_VIEWS.len());
        let (read_sql, write_sql) = (rng.below(2) == 1, rng.below(2) == 1);
        [
            (
                front_audit("candidate", tenant, view, read_sql),
                Class::Candidate,
            ),
            (
                request(&[("op", "snapshot"), ("tenant", tenant), ("label", "s")]),
                Class::Other,
            ),
            (
                front_audit("publish", tenant, view, write_sql),
                Class::Publish,
            ),
            (
                request(&[("op", "restore"), ("tenant", tenant), ("label", "s")]),
                Class::Other,
            ),
        ]
    };
    for _ in 0..seed_cycles {
        setup.extend(cycle(&mut rng).into_iter().map(|(line, _)| line));
    }
    let timed = (0..cycles)
        .flat_map(|_| cycle(&mut rng))
        .map(|(line, class)| req(line, class))
        .collect();
    Plan {
        workload: Workload::DurableRestart,
        setup,
        timed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `run_seconds` in `BENCHMARK.json`.
    const RUN_SECONDS: u64 = 15;

    fn lines(plan: &Plan) -> Vec<String> {
        let mut out = plan.setup.clone();
        out.extend(plan.timed.iter().map(|r| r.line.clone()));
        out
    }

    #[test]
    fn the_same_seed_gives_byte_identical_lists() {
        for workload in Workload::ALL {
            for size in [Size::Tiny, Size::Full(RUN_SECONDS)] {
                let a = Plan::build(workload, 7, size);
                let b = Plan::build(workload, 7, size);
                assert_eq!(lines(&a), lines(&b), "{}", workload.name());
                if size != Size::Tiny {
                    let c = Plan::build(workload, 8, size);
                    assert_ne!(lines(&a), lines(&c), "{} ignores its seed", workload.name());
                }
            }
        }
    }

    #[test]
    fn every_deep_sessions_timed_candidate_has_a_distinct_audit_key() {
        for seed in 0..5 {
            let plan = Plan::build(Workload::DeepSessions, seed, Size::Full(RUN_SECONDS));
            let keys: Vec<&AuditKey> = plan
                .timed
                .iter()
                .filter(|r| r.class == Class::Candidate)
                .map(|r| r.key.as_ref().expect("audits carry keys"))
                .collect();
            let distinct: HashSet<&AuditKey> = keys.iter().copied().collect();
            assert_eq!(distinct.len(), keys.len());
            assert!(keys.iter().all(|(_, views)| views.len() > DEEP_PUBLISHED));
        }
    }

    #[test]
    fn each_class_has_at_least_a_hundred_samples() {
        for workload in Workload::ALL {
            for seed in 0..3 {
                let plan = Plan::build(workload, seed, Size::Full(RUN_SECONDS));
                for class in [Class::Candidate, Class::Publish] {
                    let n = plan.samples(class);
                    assert!(n >= 100, "{} {class:?}: {n} samples", workload.name());
                }
            }
        }
    }

    #[test]
    fn lines_are_valid_requests() {
        for workload in Workload::ALL {
            for line in lines(&Plan::build(workload, 3, Size::Tiny)) {
                let v = serde_json::parse(&line).expect("valid JSON");
                assert!(v.field("op").as_str().is_some(), "{line}");
            }
        }
    }
}
