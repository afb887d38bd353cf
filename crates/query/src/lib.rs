//! AlayaDB's query processing engine.
//!
//! Sparse attention is query processing (§6): selecting the critical tokens
//! for one attention head is a vector query against that head's key matrix.
//! This crate implements:
//!
//! * the query types of the optimizer's query-type module — traditional
//!   top-k, the paper's novel **Dynamic Inner-Product Range query**
//!   ([`types::QueryType::Dipr`], Definition 3) and attribute-filtered
//!   variants for partial context reuse,
//! * **DIPRS** ([`diprs::diprs`], Algorithm 1) — the first approximate DIPR
//!   processing algorithm, a graph search with a growing unordered candidate
//!   list, exploration below the capacity threshold `l0` and β-band pruning
//!   above it — plus the window-cache seeding of §7.1,
//! * **filtered DIPRS** ([`diprs::diprs_filtered`]) — the ACORN-style 2-hop
//!   expansion that searches only a reused prefix of a stored context
//!   without disconnecting the graph,
//! * the **rule-based query optimizer** ([`optimizer`], Figure 8) that maps
//!   each attention call to `(query type, index type, filter)`.
//!
//! **Result contract.** A DIPR answer is a set: DIPRS returns its β-band in
//! discovery order and the flat scan in ascending id order — never sorted
//! by score — with every id at most once. Each [`alaya_vector::topk::ScoredIdx`]
//! carries the retrieval's own `q · key`, bitwise equal to re-scoring the id,
//! so attention pushes these scores straight into its partial softmax
//! (score once, sort never). Top-k answers stay ranked, best first.

pub mod diprs;
pub mod optimizer;
pub mod types;

pub use diprs::{diprs, diprs_filtered, diprs_filtered_naive, graph_topk_filtered, DiprsParams};
pub use optimizer::{Optimizer, OptimizerConfig, Plan, QuerySpec};
pub use types::{beta_from_alpha, IndexChoice, PrefixFilter, QueryType};
