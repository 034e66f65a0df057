//! # qvsec-data — relational and probabilistic substrate
//!
//! This crate implements the data model of Miklau & Suciu, *A Formal Analysis
//! of Information Disclosure in Data Exchange* (SIGMOD 2004 / JCSS 2007),
//! Section 3:
//!
//! * a finite **domain** `D` of constants ([`Domain`], [`Value`]),
//! * a relational **schema** with named relations and optional key
//!   constraints ([`Schema`], [`RelationSchema`], [`KeyConstraint`]),
//! * ground **tuples** over the schema ([`Tuple`]) and the set `tup(D)` of all
//!   tuples that can be formed from `D` ([`TupleSpace`]),
//! * database **instances** `I ⊆ tup(D)` ([`Instance`]) together with bitset
//!   encodings used by the exhaustive decision procedures ([`BitSet`]),
//! * **dictionaries** `(D, P)` assigning an occurrence probability to every
//!   tuple ([`Dictionary`]), inducing the tuple-independent distribution over
//!   instances of the paper's Eq. (1), and
//! * exact rational arithmetic ([`Ratio`]) and Monte-Carlo instance sampling
//!   ([`sampler`]).
//!
//! Everything downstream (the conjunctive-query engine, the probability
//! engine and the security decision procedures) is built on these types.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bitset;
pub mod candidates;
pub mod dictionary;
pub mod error;
pub mod instance;
pub mod lru;
pub mod ratio;
pub mod sampler;
pub mod schema;
pub mod tuple;
pub mod tuple_space;
pub mod value;

pub use bitset::BitSet;
pub use candidates::CandidateSet;
pub use dictionary::Dictionary;
pub use error::DataError;
pub use instance::Instance;
pub use lru::{LruCache, MemoCache, MemoKey, MemoKind, MemoSnapshot, MemoStats};
pub use ratio::Ratio;
pub use sampler::InstanceSampler;
pub use schema::{KeyConstraint, RelationId, RelationSchema, Schema};
pub use tuple::Tuple;
pub use tuple_space::TupleSpace;
pub use value::{Domain, Value};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, DataError>;
