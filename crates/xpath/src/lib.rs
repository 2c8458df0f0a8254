//! # xia-xpath
//!
//! The query-language frontend of the XML Index Advisor reproduction.
//!
//! * [`LinearPath`] — linear XPath path expressions (child/descendant axes,
//!   name tests, wildcards, **no predicates**). These are the paper's *index
//!   patterns* (Section III).
//! * [`contain`] — sound and complete containment (`covers`) between linear
//!   paths via NFA language inclusion, plus matching against concrete rooted
//!   label paths. The optimizer's *index matching* step is built on this.
//! * [`PathExpr`] — XPath path expressions *with* predicates at arbitrary
//!   steps, as allowed in workload queries.
//! * [`xquery`] — an XQuery-lite FLWOR parser sufficient for the paper's
//!   running example (Q1/Q2) and TPoX-style queries.
//! * [`Statement`] / [`normalize`] — workload statements
//!   (query/insert/delete/update) and their normalization into *access
//!   patterns*: the rewritten, indexable linear patterns the optimizer
//!   matches indexes against (this performs the query rewrites that expose
//!   candidates C1/C2 in the paper's Table I).
//! * [`template`] — the cost identity of a statement: one walker over the
//!   AST that writes the canonical template key to a `String`, an FNV-1a
//!   fingerprint, or a caller's reused buffer (workload compression, fault
//!   salts, drift histograms).

pub mod ast;
pub mod contain;
pub mod intern;
pub mod lexer;
pub mod linear;
pub mod normalize;
pub mod parser;
pub mod sqlxml;
pub mod statement;
pub mod template;
pub mod xquery;

pub use ast::{CmpOp, Literal, PathExpr, Predicate, Step};
pub use contain::{
    covers, CoverCache, CoverCacheStats, PathMatcher, PatternId, RelevanceMatrix,
    StatementSignature,
};
pub use intern::{intern, Sym};
pub use linear::{Axis, LinearPath, LinearStep, NameTest};
pub use normalize::{
    normalize as normalize_statement, AccessPattern, NormalizedQuery, PatternPred,
};
pub use parser::{parse_linear_path, parse_path_expr, ParseError, MAX_PATH_STEPS};
pub use sqlxml::parse_sqlxml;
pub use statement::{Statement, ValueKind};
pub use template::{fnv1a, template_fingerprint, template_key, write_template_key};
pub use xquery::{parse_statement, FlworQuery, ReturnExpr};
