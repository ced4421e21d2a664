//! Cache-key identity of memoized document subjects.
//!
//! `Subject::doc` hands the simulator a document's memoized reader text
//! and text hash, so a cache probe no longer re-hashes the text. The key
//! must stay the one the simulator builds by hashing the text itself:
//! for generated documents of every kind (HTML with tags and entities,
//! CSV, plain text, email headers, non-ASCII and empty content), the key
//! through `Subject::doc` equals the key over `doc.text()` with no hash
//! supplied. This runs in release builds too, where the simulator's
//! `debug_assert` on the memo is compiled out.

use aida_data::{Document, Value};
use aida_llm::oracle::Subject;
use aida_llm::{LlmTask, ModelId, SemanticCache, SimLlm};
use aida_obs::{registry, Recorder};
use proptest::prelude::*;
use std::borrow::Cow;

/// Fragments documents are assembled from: words, markup, entities,
/// table cells, header lines, separators and non-ASCII text.
const PIECES: &[&str] = &[
    "identity",
    "theft",
    "Raptor hedge",
    "1135291",
    " ",
    "\n",
    "\n\n",
    ",",
    "<p>",
    "</p>",
    "<h1>",
    "</h1>",
    "<br>",
    "<table><tr><td>",
    "</td><td>",
    "</td></tr></table>",
    "<script>var x = 1;</script>",
    "&amp;",
    "&lt;b&gt;",
    "&#233;",
    "&nbsp;",
    "&bogus;",
    "café",
    "naïve — 12%",
    "日本語",
    "From: jeff@enron.com\n",
    "Subject: Raptor position\n",
    "year,n\n2001,5\n",
];

const NAMES: [&str; 4] = ["doc.html", "doc.csv", "doc.txt", "doc.eml"];

fn document(kind: usize, pieces: &[usize], difficulty: Option<u8>) -> Document {
    let content: String = pieces.iter().map(|&i| PIECES[i]).collect();
    let doc = Document::new(NAMES[kind], content);
    match difficulty {
        Some(d) => doc.with_label("difficulty", f64::from(d) / 10.0),
        None => doc,
    }
}

/// The subject the simulator would see without a memo: the owned text,
/// hashed at probe time.
fn unmemoized(doc: &Document) -> Subject<'_> {
    Subject {
        name: Cow::Borrowed(doc.name.as_str()),
        text: Cow::Owned(doc.text()),
        labels: Some(&doc.labels),
        text_hash: None,
    }
}

fn tasks<'a>(subject: &Subject<'a>) -> Vec<LlmTask<'a>> {
    vec![
        LlmTask::Filter {
            instruction: "mentions identity theft",
            subject: subject.clone(),
        },
        LlmTask::Extract {
            instruction: "extract the year",
            field: "year",
            field_desc: "the report year",
            subject: subject.clone(),
        },
        LlmTask::Map {
            instruction: "summarize",
            subject: subject.clone(),
            target_tokens: 30,
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn memoized_subject_keys_equal_text_hashed_keys(
        kind in 0usize..4,
        pieces in prop::collection::vec(0usize..28, 0..40),
        difficulty in prop_oneof![Just(None), (0u8..10).prop_map(Some)],
        seed in 0u64..1_000,
    ) {
        let llm = SimLlm::new(seed);
        let cold = document(kind, &pieces, difficulty);
        let warm = cold.clone();
        let _ = (warm.reader_text(), warm.text_hash());
        for doc in [&cold, &warm] {
            let memo = Subject::doc(doc);
            let text = doc.text();
            prop_assert_eq!(memo.text.as_ref(), text.as_str());
            prop_assert!(memo.text_hash.is_some());
            let plain = unmemoized(doc);
            for model in ModelId::ALL {
                for (a, b) in tasks(&memo).iter().zip(&tasks(&plain)) {
                    prop_assert_eq!(llm.content_key(model, a), llm.content_key(model, b));
                }
            }
        }
    }
}

#[test]
fn every_kind_is_generated() {
    let kinds: Vec<_> = NAMES.iter().map(|n| Document::new(*n, "").kind()).collect();
    for kind in [
        aida_data::DocKind::Html,
        aida_data::DocKind::Csv,
        aida_data::DocKind::Text,
        aida_data::DocKind::Email,
    ] {
        assert!(kinds.contains(&kind), "{kind:?}");
    }
    assert_eq!(PIECES.len(), 28, "keep the strategy's piece range in sync");
}

#[test]
fn bytes_hashed_counts_only_text_without_a_memo() {
    let recorder = Recorder::new();
    let llm = SimLlm::new(3)
        .with_cache(SemanticCache::with_capacity(64))
        .with_recorder(recorder.clone());
    let doc = Document::new("m.eml", "Subject: x\n\nthe Raptor hedge").with_label("relevant", true);
    let filter = |subject| LlmTask::Filter {
        instruction: "mentions the Raptor hedge",
        subject,
    };
    let memo = llm.invoke(ModelId::Mini, &filter(Subject::doc(&doc)));
    let hashed = |r: &Recorder| {
        let counters = r.trace().counters;
        counters
            .get(registry::CACHE_BYTES_HASHED)
            .copied()
            .unwrap_or(0)
    };
    assert_eq!(hashed(&recorder), 0);
    let plain = llm.invoke(ModelId::Mini, &filter(unmemoized(&doc)));
    assert_eq!(hashed(&recorder), doc.text().len() as u64);
    // Same key: the second probe hit the first one's entry.
    assert_eq!(memo.value, plain.value);
    assert_eq!(memo.value, Value::Bool(true));
    assert_eq!(llm.cache().unwrap().stats().hits, 1);
}
