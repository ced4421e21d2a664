//! Documents: named files in the unstructured data lake.

use crate::html;
use crate::table::Table;
use crate::value::Value;
use crate::{csv, hash, DataError};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::OnceLock;

/// The format of a document's content.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DocKind {
    /// Comma-separated values with a header row.
    Csv,
    /// An HTML page.
    Html,
    /// Plain text.
    Text,
    /// An RFC-822-ish email (headers, blank line, body).
    Email,
}

impl DocKind {
    /// Guesses the kind from a file extension.
    pub fn from_name(name: &str) -> DocKind {
        let lower = name.to_ascii_lowercase();
        if lower.ends_with(".csv") {
            DocKind::Csv
        } else if lower.ends_with(".html") || lower.ends_with(".htm") {
            DocKind::Html
        } else if lower.ends_with(".eml") {
            DocKind::Email
        } else {
            DocKind::Text
        }
    }
}

/// A file in the data lake.
///
/// `labels` carries hidden ground-truth annotations set by workload
/// generators — they are **never** exposed to agents or semantic operators
/// directly; only the simulated-LLM oracle (which stands in for a model
/// actually reading the text) consults them.
///
/// The reader text ([`Document::reader_text`]) and its hash
/// ([`Document::text_hash`]) are computed on first use and memoized, so a
/// document shared behind an `Arc` is rendered and hashed at most once
/// however many operators, tools and cache probes read it. `content` and
/// `kind` are private so the memos cannot go stale; equality and `Debug`
/// ignore them.
#[derive(Clone)]
pub struct Document {
    /// Stable identifier, unique within a lake.
    pub id: String,
    /// File name (used by list/read tools and filename heuristics).
    pub name: String,
    kind: DocKind,
    content: String,
    /// Hidden ground-truth labels (oracle-only).
    pub labels: BTreeMap<String, Value>,
    /// HTML rendered to text (other kinds read `content` directly).
    rendered: OnceLock<String>,
    /// [`hash::hash_str`] of the reader text.
    text_hash: OnceLock<u64>,
}

impl PartialEq for Document {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
            && self.name == other.name
            && self.kind == other.kind
            && self.content == other.content
            && self.labels == other.labels
    }
}

impl fmt::Debug for Document {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Document")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("kind", &self.kind)
            .field("content", &self.content)
            .field("labels", &self.labels)
            .finish()
    }
}

impl Document {
    /// Creates a document, deriving `kind` from the file name.
    pub fn new(name: impl Into<String>, content: impl Into<String>) -> Self {
        let name = name.into();
        Document {
            id: name.clone(),
            kind: DocKind::from_name(&name),
            name,
            content: content.into(),
            labels: BTreeMap::new(),
            rendered: OnceLock::new(),
            text_hash: OnceLock::new(),
        }
    }

    /// Content format.
    pub fn kind(&self) -> DocKind {
        self.kind
    }

    /// Raw file content.
    pub fn content(&self) -> &str {
        &self.content
    }

    /// Builder-style ground-truth label insertion.
    pub fn with_label(mut self, key: impl Into<String>, value: impl Into<Value>) -> Self {
        self.labels.insert(key.into(), value.into());
        self
    }

    /// Ground-truth label accessor (oracle-only).
    pub fn label(&self, key: &str) -> Option<&Value> {
        self.labels.get(key)
    }

    /// The document's visible text, borrowed: HTML is rendered once on
    /// first use and memoized, other kinds are their content.
    pub fn reader_text(&self) -> &str {
        match self.kind {
            DocKind::Html => self.rendered.get_or_init(|| html::to_text(&self.content)),
            _ => &self.content,
        }
    }

    /// [`hash::hash_str`] of [`Document::reader_text`], computed once.
    pub fn text_hash(&self) -> u64 {
        *self
            .text_hash
            .get_or_init(|| hash::hash_str(self.reader_text()))
    }

    /// Returns the document's visible text as an owned string: HTML is
    /// stripped, other kinds pass through unchanged.
    pub fn text(&self) -> String {
        self.reader_text().to_string()
    }

    /// Parses structured tables out of the document (CSV body or HTML
    /// `<table>` elements). Text/email documents yield no tables.
    pub fn tables(&self) -> Result<Vec<Table>, DataError> {
        match self.kind {
            DocKind::Csv => Ok(vec![csv::parse_table(&self.content)?]),
            DocKind::Html => Ok(html::extract_tables(&self.content)),
            _ => Ok(Vec::new()),
        }
    }

    /// For email documents: the header value (case-insensitive key).
    pub fn email_header(&self, key: &str) -> Option<&str> {
        if self.kind != DocKind::Email {
            return None;
        }
        for line in self.content.lines() {
            if line.is_empty() {
                break;
            }
            if let Some((k, v)) = line.split_once(':') {
                if k.trim().eq_ignore_ascii_case(key) {
                    return Some(v.trim());
                }
            }
        }
        None
    }

    /// For email documents: everything after the first blank line.
    pub fn email_body(&self) -> &str {
        match self.content.split_once("\n\n") {
            Some((_, body)) if self.kind == DocKind::Email => body,
            _ => &self.content,
        }
    }

    /// Approximate size in bytes (used by cost/latency models).
    pub fn size(&self) -> usize {
        self.content.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_from_extension() {
        assert_eq!(DocKind::from_name("a.csv"), DocKind::Csv);
        assert_eq!(DocKind::from_name("A.HTML"), DocKind::Html);
        assert_eq!(DocKind::from_name("m.eml"), DocKind::Email);
        assert_eq!(DocKind::from_name("notes.txt"), DocKind::Text);
        assert_eq!(DocKind::from_name("README"), DocKind::Text);
    }

    #[test]
    fn email_header_and_body() {
        let doc = Document::new(
            "m1.eml",
            "From: jeff@enron.com\nSubject: Raptor position\n\nLet's discuss the hedge.",
        );
        assert_eq!(doc.email_header("from"), Some("jeff@enron.com"));
        assert_eq!(doc.email_header("SUBJECT"), Some("Raptor position"));
        assert_eq!(doc.email_header("cc"), None);
        assert_eq!(doc.email_body(), "Let's discuss the hedge.");
    }

    #[test]
    fn email_header_on_non_email_is_none() {
        let doc = Document::new("a.txt", "From: x\n\nbody");
        assert_eq!(doc.email_header("from"), None);
        // email_body falls through to full content for non-emails.
        assert_eq!(doc.email_body(), "From: x\n\nbody");
    }

    #[test]
    fn csv_document_yields_table() {
        let doc = Document::new("t.csv", "year,n\n2001,5\n");
        let tables = doc.tables().unwrap();
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].cell(0, "n"), Some(&Value::Int(5)));
    }

    #[test]
    fn labels_are_oracle_only_storage() {
        let doc = Document::new("m.eml", "Subject: x\n\nbody").with_label("relevant", true);
        assert_eq!(doc.label("relevant"), Some(&Value::Bool(true)));
        assert_eq!(doc.label("nope"), None);
    }

    #[test]
    fn html_text_strips_markup() {
        let doc = Document::new("r.html", "<p>Total &amp; breakdown</p>");
        assert_eq!(doc.text().trim(), "Total & breakdown");
    }

    #[test]
    fn reader_text_is_the_rendered_html_and_memoized() {
        let content = "<h1>Caf&eacute; &amp; bar</h1><p>naïve — 12%</p>\
                       <table><tr><td>2024</td><td>9</td></tr></table>";
        let doc = Document::new("r.html", content);
        assert_eq!(doc.reader_text(), html::to_text(content));
        // The second read returns the memo, not a fresh render.
        assert!(std::ptr::eq(doc.reader_text(), doc.reader_text()));
        assert_eq!(doc.text(), doc.reader_text());
        assert_eq!(doc.text_hash(), hash::hash_str(&html::to_text(content)));
    }

    #[test]
    fn reader_text_borrows_non_html_content() {
        for name in ["a.csv", "m.eml", "n.txt"] {
            let doc = Document::new(name, "From: x\n\nbody, 1");
            assert!(std::ptr::eq(doc.reader_text(), doc.content()));
            assert_eq!(doc.text_hash(), hash::hash_str(doc.content()));
        }
        assert_eq!(Document::new("e.txt", "").reader_text(), "");
    }

    #[test]
    fn equality_and_clone_ignore_memo_state() {
        let fresh = Document::new("r.html", "<p>a &amp; b</p>").with_label("k", 1);
        let warm = fresh.clone();
        let _ = (warm.reader_text(), warm.text_hash());
        assert_eq!(fresh, warm);
        assert_eq!(warm, fresh);
        let copy = warm.clone();
        assert_eq!(copy, fresh);
        assert_eq!(copy.reader_text(), fresh.reader_text());
        assert_eq!(copy.text_hash(), fresh.text_hash());
        assert_eq!(format!("{fresh:?}"), format!("{warm:?}"));
        assert_ne!(fresh, Document::new("r.html", "<p>a &amp; c</p>"));
    }
}
