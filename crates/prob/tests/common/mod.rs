//! Generators shared by the kernel's integration proptests: random
//! conjunctive queries over one binary relation on a two-constant domain.

use proptest::prelude::*;
use qvsec_cq::{parse_query, ConjunctiveQuery};
use qvsec_data::{Domain, Schema};

pub fn schema() -> Schema {
    let mut s = Schema::new();
    s.add_relation("R", &["x", "y"]);
    s
}

pub fn domain() -> Domain {
    Domain::with_constants(["a", "b"])
}

/// Random conjunctive query text over R/2 (same shape as the core crate's
/// theorem proptests).
pub fn query_text() -> impl Strategy<Value = String> {
    let term = prop_oneof![
        3 => Just("x0".to_string()),
        3 => Just("x1".to_string()),
        2 => Just("x2".to_string()),
        2 => Just("'a'".to_string()),
        2 => Just("'b'".to_string()),
    ];
    let atom = (term.clone(), term).prop_map(|(a, b)| format!("R({a}, {b})"));
    (proptest::collection::vec(atom, 1..3), proptest::bool::ANY).prop_map(|(atoms, boolean)| {
        let body = atoms.join(", ");
        if boolean {
            return format!("Q() :- {body}");
        }
        let head_var = atoms[0]
            .trim_start_matches("R(")
            .trim_end_matches(')')
            .split(',')
            .map(|s| s.trim().to_string())
            .find(|t| t.starts_with('x'));
        match head_var {
            Some(v) => format!("Q({v}) :- {body}"),
            None => format!("Q() :- {body}"),
        }
    })
}

pub fn parse(text: &str, schema: &Schema, domain: &mut Domain) -> ConjunctiveQuery {
    parse_query(text, schema, domain).expect("generated query parses")
}
