//! Inverted keyword index with BM25 ranking.
//!
//! Used as the "secondary index over a data lake" tool the paper mentions:
//! agents search it instead of grepping every file. Documents are
//! tokenized into lowercase alphanumeric terms; scoring is classic
//! Okapi BM25 (k1 = 1.2, b = 0.75).
//!
//! The index is built once, in one pass, straight into a compact
//! read-only layout: every distinct term lives once in a sorted arena
//! (looked up by binary search), and postings sit in one CSR array, doc
//! ordered within each term. The runtime builds one per `Context` on
//! first use and keeps it for the Context's lifetime, so the layout is
//! sized to be kept rather than rebuilt per operator.

use crate::topk::TopK;
use crate::Hit;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::Range;

const K1: f32 = 1.2;
const B: f32 = 0.75;

/// An immutable inverted keyword index.
#[derive(Debug, Clone, Default)]
pub struct KeywordIndex {
    /// Every distinct term, concatenated in sorted order.
    arena: String,
    /// `term_ends[t]` is where term `t` ends in `arena`; it starts where
    /// term `t - 1` ends.
    term_ends: Vec<u32>,
    /// `post_ends[t]` is where term `t`'s postings end in `postings`.
    post_ends: Vec<u32>,
    /// (doc index, term frequency), doc ordered within each term.
    postings: Vec<(u32, u32)>,
    ids: Vec<String>,
    doc_lens: Vec<u32>,
    total_len: u64,
}

/// Splits already-lowercased text into terms: alphanumeric runs longer
/// than one byte.
fn terms(lowered: &str) -> impl Iterator<Item = &str> {
    lowered
        .split(|c: char| !c.is_alphanumeric())
        .filter(|t| t.len() > 1)
}

/// A count or offset as stored in the index.
fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("keyword index exceeds u32 offsets")
}

/// Slot `i` of an array described by its running `ends`.
fn slot(ends: &[u32], i: usize) -> Range<usize> {
    let start = if i == 0 { 0 } else { ends[i - 1] as usize };
    start..ends[i] as usize
}

impl KeywordIndex {
    /// Indexes `(id, text)` documents in order; a document's position is
    /// its rank among equal-scored hits.
    pub fn build<I, S, T>(docs: I) -> Self
    where
        I: IntoIterator<Item = (S, T)>,
        S: Into<String>,
        T: Into<String>,
    {
        let mut ids = Vec::new();
        let mut doc_lens = Vec::new();
        let mut total_len = 0u64;
        // Interned terms and their first-seen ids.
        let mut interned: HashMap<String, u32> = HashMap::new();
        // This document's count per term id, and the ids it touched.
        let mut tf: Vec<u32> = Vec::new();
        let mut touched: Vec<u32> = Vec::new();
        // (term id, doc, tf), doc ordered.
        let mut triples: Vec<(u32, u32, u32)> = Vec::new();
        for (doc, (id, text)) in docs.into_iter().enumerate() {
            let mut text: String = text.into();
            text.make_ascii_lowercase();
            let doc = offset(doc);
            let mut len = 0;
            for term in terms(&text) {
                len += 1;
                let t = match interned.get(term) {
                    Some(&t) => t,
                    None => {
                        let t = offset(tf.len());
                        interned.insert(term.to_owned(), t);
                        tf.push(0);
                        t
                    }
                };
                if tf[t as usize] == 0 {
                    touched.push(t);
                }
                tf[t as usize] += 1;
            }
            for t in touched.drain(..) {
                triples.push((t, doc, tf[t as usize]));
                tf[t as usize] = 0;
            }
            ids.push(id.into());
            doc_lens.push(offset(len));
            total_len += len as u64;
        }

        // Lay the terms out sorted; `rank` maps a first-seen id to its
        // sorted position.
        let mut sorted: Vec<(String, u32)> = interned.into_iter().collect();
        sorted.sort_unstable();
        let mut rank = vec![0u32; sorted.len()];
        let mut arena = String::with_capacity(sorted.iter().map(|(term, _)| term.len()).sum());
        let mut term_ends = Vec::with_capacity(sorted.len());
        for (r, (term, t)) in sorted.into_iter().enumerate() {
            rank[t as usize] = r as u32;
            arena.push_str(&term);
            term_ends.push(offset(arena.len()));
        }

        // Counting sort into CSR; the scatter keeps doc order per term.
        // No running offset exceeds `total`.
        let total = offset(triples.len());
        let mut next = vec![0u32; rank.len()];
        for &(t, _, _) in &triples {
            next[rank[t as usize] as usize] += 1;
        }
        let mut start = 0;
        for slot in next.iter_mut() {
            let count = *slot;
            *slot = start;
            start += count;
        }
        let mut postings = vec![(0u32, 0u32); total as usize];
        for (t, doc, count) in triples {
            let r = rank[t as usize] as usize;
            postings[next[r] as usize] = (doc, count);
            next[r] += 1;
        }

        KeywordIndex {
            arena,
            term_ends,
            post_ends: next,
            postings,
            ids,
            doc_lens,
            total_len,
        }
    }

    /// Number of documents indexed.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the index has no documents.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Document frequency of a term.
    pub fn df(&self, term: &str) -> usize {
        self.find(&term.to_ascii_lowercase())
            .map_or(0, |t| self.posting(t).len())
    }

    /// BM25 search; returns up to `k` hits, best first. Documents matching
    /// no query term are never returned.
    pub fn search(&self, query: &str, k: usize) -> Vec<Hit> {
        let n = self.ids.len();
        if n == 0 {
            return Vec::new();
        }
        let avg_len = (self.total_len as f32 / n as f32).max(1.0);
        let mut scores: Vec<Option<f32>> = vec![None; n];
        let query = query.to_ascii_lowercase();
        for term in terms(&query) {
            let Some(t) = self.find(term) else {
                continue;
            };
            let posting = self.posting(t);
            let df = posting.len() as f32;
            let idf = ((n as f32 - df + 0.5) / (df + 0.5) + 1.0).ln();
            for &(doc, tf) in posting {
                let tf = tf as f32;
                let len_norm = 1.0 - B + B * self.doc_lens[doc as usize] as f32 / avg_len;
                let term_score = idf * (tf * (K1 + 1.0)) / (tf + K1 * len_norm);
                *scores[doc as usize].get_or_insert(0.0) += term_score;
            }
        }
        // Deterministic feed order: by doc index.
        let mut topk = TopK::new(k);
        for (doc, score) in scores.into_iter().enumerate() {
            if let Some(score) = score {
                topk.push(score, doc);
            }
        }
        topk.into_sorted_vec()
            .into_iter()
            .map(|(score, doc)| Hit {
                id: self.ids[doc].clone(),
                score,
            })
            .collect()
    }

    /// Binary search for a lowercased term's slot.
    fn find(&self, term: &str) -> Option<usize> {
        let (mut lo, mut hi) = (0, self.term_ends.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.arena[slot(&self.term_ends, mid)].cmp(term) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Some(mid),
            }
        }
        None
    }

    fn posting(&self, t: usize) -> &[(u32, u32)] {
        &self.postings[slot(&self.post_ends, t)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn build() -> KeywordIndex {
        KeywordIndex::build([
            (
                "national.csv",
                "national identity theft and fraud reports by year 2001 2024",
            ),
            ("alabama.csv", "alabama state fraud reports 2024"),
            ("pipeline.txt", "natural gas pipeline maintenance schedule"),
            ("trends.html", "identity theft trends over two decades"),
        ])
    }

    #[test]
    fn search_ranks_relevant_docs_first() {
        let idx = build();
        let hits = idx.search("identity theft reports", 4);
        assert_eq!(hits[0].id, "national.csv");
        assert!(hits.iter().all(|h| h.id != "pipeline.txt"));
    }

    #[test]
    fn rare_terms_outweigh_common_terms() {
        let mut docs: Vec<(String, &str)> = (0..20)
            .map(|i| (format!("common{i}"), "reports reports reports"))
            .collect();
        docs.push(("rare".into(), "reports unicorn"));
        let idx = KeywordIndex::build(docs);
        let hits = idx.search("unicorn reports", 1);
        assert_eq!(hits[0].id, "rare");
    }

    #[test]
    fn no_matching_terms_returns_empty() {
        let idx = build();
        assert!(idx.search("zzzz qqqq", 5).is_empty());
        assert!(idx.search("", 5).is_empty());
    }

    #[test]
    fn empty_index_is_safe() {
        let idx = KeywordIndex::build(Vec::<(&str, &str)>::new());
        assert!(idx.search("anything", 3).is_empty());
        assert!(idx.is_empty());
        assert_eq!(idx.df("anything"), 0);
    }

    #[test]
    fn df_counts_documents_not_occurrences() {
        let idx = build();
        assert_eq!(idx.df("identity"), 2);
        assert_eq!(idx.df("IDENTITY"), 2);
        assert_eq!(idx.df("unicorn"), 0);
    }

    #[test]
    fn k_bounds_results() {
        let idx = build();
        assert_eq!(idx.search("reports", 1).len(), 1);
        assert!(idx.search("reports", 10).len() >= 2);
    }

    #[test]
    fn single_char_tokens_ignored() {
        let idx = KeywordIndex::build([("d", "a b c real words")]);
        assert_eq!(idx.df("a"), 0);
        assert_eq!(idx.df("real"), 1);
    }

    /// The previous hash-map layout, kept as the compact index's oracle:
    /// per-token owned terms, per-doc tf maps, scores summed in a map.
    #[derive(Default)]
    struct Oracle {
        postings: HashMap<String, Vec<(usize, u32)>>,
        ids: Vec<String>,
        doc_lens: Vec<u32>,
        total_len: u64,
    }

    fn oracle_tokenize(text: &str) -> Vec<String> {
        text.split(|c: char| !c.is_alphanumeric())
            .filter(|t| t.len() > 1)
            .map(|t| t.to_ascii_lowercase())
            .collect()
    }

    impl Oracle {
        fn add(&mut self, id: &str, text: &str) {
            let doc = self.ids.len();
            self.ids.push(id.to_string());
            let terms = oracle_tokenize(text);
            let mut tf: HashMap<String, u32> = HashMap::new();
            for t in &terms {
                *tf.entry(t.clone()).or_insert(0) += 1;
            }
            for (term, count) in tf {
                self.postings.entry(term).or_default().push((doc, count));
            }
            self.doc_lens.push(terms.len() as u32);
            self.total_len += terms.len() as u64;
        }

        fn df(&self, term: &str) -> usize {
            self.postings
                .get(&term.to_ascii_lowercase())
                .map_or(0, Vec::len)
        }

        fn search(&self, query: &str, k: usize) -> Vec<Hit> {
            let n = self.ids.len();
            if n == 0 {
                return Vec::new();
            }
            let avg_len = (self.total_len as f32 / n as f32).max(1.0);
            let mut scores: HashMap<usize, f32> = HashMap::new();
            for term in oracle_tokenize(query) {
                let Some(posting) = self.postings.get(&term) else {
                    continue;
                };
                let df = posting.len() as f32;
                let idf = ((n as f32 - df + 0.5) / (df + 0.5) + 1.0).ln();
                for (doc, tf) in posting {
                    let tf = *tf as f32;
                    let len_norm = 1.0 - B + B * self.doc_lens[*doc] as f32 / avg_len;
                    let term_score = idf * (tf * (K1 + 1.0)) / (tf + K1 * len_norm);
                    *scores.entry(*doc).or_insert(0.0) += term_score;
                }
            }
            let mut topk = TopK::new(k);
            let mut entries: Vec<(usize, f32)> = scores.into_iter().collect();
            entries.sort_unstable_by_key(|(doc, _)| *doc);
            for (doc, score) in entries {
                topk.push(score, doc);
            }
            topk.into_sorted_vec()
                .into_iter()
                .map(|(score, doc)| Hit {
                    id: self.ids[doc].clone(),
                    score,
                })
                .collect()
        }
    }

    /// Words mixing case, digits, non-ASCII letters and digits, one-char
    /// multi-byte tokens (kept: their byte length is over one) and
    /// one-char ASCII tokens (dropped).
    const WORDS: &[&str] = &[
        "identity",
        "Identity",
        "THEFT",
        "theft",
        "2024",
        "x9",
        "a",
        "Z",
        "é",
        "É",
        "日本",
        "日",
        "Ärger",
        "straße",
        "٣٤",
        "ǅemal",
        "fraud",
        "Fraud2001",
        "reports",
        "q",
    ];
    /// Separators, including non-ASCII punctuation.
    const SEPS: &[&str] = &[" ", " ", "\n", ",", "-", "—", "…", "", "  "];

    fn render(parts: &[(usize, usize)]) -> String {
        parts
            .iter()
            .map(|&(w, s)| format!("{}{}", WORDS[w], SEPS[s]))
            .collect()
    }

    fn parts(
        max: usize,
    ) -> prop::collection::VecStrategy<(std::ops::Range<usize>, std::ops::Range<usize>)> {
        prop::collection::vec((0..WORDS.len(), 0..SEPS.len()), 0..max)
    }

    proptest! {
        #[test]
        fn compact_layout_matches_hash_map_oracle(
            corpus in prop::collection::vec(parts(24), 0..10),
            queries in prop::collection::vec(parts(6), 1..5),
            k_choice in 0usize..4,
        ) {
            let docs: Vec<(String, String)> = corpus
                .iter()
                .enumerate()
                .map(|(i, p)| (format!("doc{i}"), render(p)))
                .collect();
            let index = KeywordIndex::build(docs.clone());
            let mut oracle = Oracle::default();
            for (id, text) in &docs {
                oracle.add(id, text);
            }
            prop_assert_eq!(index.len(), oracle.ids.len());
            let n = docs.len();
            let k = [0, 1, n, n + 3][k_choice];
            for term in WORDS {
                prop_assert_eq!(index.df(term), oracle.df(term));
            }
            for query in &queries {
                let query = render(query);
                let got = index.search(&query, k);
                let want = oracle.search(&query, k);
                let got: Vec<(String, u32)> =
                    got.into_iter().map(|h| (h.id, h.score.to_bits())).collect();
                let want: Vec<(String, u32)> =
                    want.into_iter().map(|h| (h.id, h.score.to_bits())).collect();
                prop_assert_eq!(got, want);
            }
        }
    }
}
