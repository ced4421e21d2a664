//! `aida-index`: index substrates for the `Context` abstraction.
//!
//! The paper's `Context` class lets programmers attach key-based point
//! lookups and vector search to their datasets. This crate supplies the
//! implementations the runtime (and user programs) attach:
//!
//! * [`FlatIndex`] — exact brute-force cosine search.
//! * [`IvfIndex`] — inverted-file approximate search with a k-means coarse
//!   quantizer (for larger lakes).
//! * [`KeywordIndex`] — an immutable inverted keyword index with BM25
//!   ranking (the "secondary index over a data lake" tool from the paper),
//!   built in one pass into a sorted term arena with CSR postings. The
//!   runtime builds one per `Context`, on its first agentic op.
//! * [`KeyIndex`] — exact key → document point lookups.
//! * [`topk::TopK`] — the bounded-heap top-k collector shared by all of the
//!   above.

pub mod flat;
pub mod ivf;
pub mod keyindex;
pub mod keyword;
pub mod topk;

pub use flat::FlatIndex;
pub use ivf::IvfIndex;
pub use keyindex::KeyIndex;
pub use keyword::KeywordIndex;
pub use topk::TopK;

/// A scored search hit.
#[derive(Debug, Clone, PartialEq)]
pub struct Hit {
    /// Identifier of the matching item (usually a document name).
    pub id: String,
    /// Similarity/relevance score; higher is better.
    pub score: f32,
}

/// Common interface over vector indexes so `Context` can hold either.
pub trait VectorIndex: Send + Sync {
    /// Adds a vector under an id (replacing an existing id).
    fn add(&mut self, id: &str, vector: Vec<f32>);
    /// Returns the `k` nearest ids by cosine similarity, best first.
    fn search(&self, query: &[f32], k: usize) -> Vec<Hit>;
    /// Number of indexed vectors.
    fn len(&self) -> usize;
    /// True when the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
