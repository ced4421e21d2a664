//! Pinned hash values: the string hash behind every simulator noise key,
//! the snapshot and WAL checksum, the wire plan hash, and semantic-cache
//! content keys, each on fixed inputs.
//!
//! Cache snapshots, WAL segments and plan artifacts written by one build
//! are read back by the next, and cached responses are found again only
//! if their keys repeat, so these values must never move. A refactor of
//! any hash that changes one bit fails here.

use aida::data::{hash, Document};
use aida::llm::noise::{hash_str, splitmix64};
use aida::llm::oracle::Subject;
use aida::llm::snapshot::fnv64;
use aida::llm::{LlmTask, ModelId, SimLlm};
use aida::serve::plan_hash;

fn docs() -> Vec<Document> {
    vec![
        Document::new(
            "q3.html",
            "<html><body><h1>Fraud &amp; theft</h1><p>caf&eacute; — 12%</p>\
             <table><tr><td>2024</td><td>1135291</td></tr></table></body></html>",
        )
        .with_label("difficulty", 0.4),
        Document::new("t.csv", "year,n\n2001,5\n2024,9\n"),
        Document::new(
            "m.eml",
            "From: jeff@enron.com\nSubject: Raptor\n\nLet's discuss the hedge.",
        )
        .with_label("relevant", true),
        Document::new("empty.txt", ""),
    ]
}

fn keys() -> Vec<(u64, u64)> {
    let llm = SimLlm::new(42);
    let mut out = Vec::new();
    for doc in &docs() {
        let key = llm.content_key(
            ModelId::Mini,
            &LlmTask::Filter {
                instruction: "mentions fraud",
                subject: Subject::doc(doc),
            },
        );
        out.push((key.hi, key.lo));
        let key = llm.content_key(
            ModelId::Nano,
            &LlmTask::Extract {
                instruction: "extract the year",
                field: "year",
                field_desc: "the report year",
                subject: Subject::doc(doc),
            },
        );
        out.push((key.hi, key.lo));
    }
    let key = llm.content_key(
        ModelId::Flagship,
        &LlmTask::Map {
            instruction: "summarize",
            subject: Subject::text_only("aggregate-input", "a\nb\n"),
            target_tokens: 40,
        },
    );
    out.push((key.hi, key.lo));
    out
}

/// `(text, hash_str, fnv64, plan_hash)` on fixed texts: empty, one byte,
/// ASCII, and non-ASCII.
const PINS: [(&str, u64, u64, u128); 4] = [
    (
        "",
        0xc381_7c01_6ba4_ff30,
        0xcbf2_9ce4_8422_2325,
        0x6bc0_810c_c751_a61b_c381_7c01_6ba4_ff30,
    ),
    (
        "a",
        0x5f29_c2aa_dd9b_8527,
        0xaf63_dc4c_8601_ec8c,
        0x2c73_c4f7_4fa9_5a3f_5f29_c2aa_dd9b_8527,
    ),
    (
        "identity theft reports in 2024: 1135291",
        0x81ca_3811_3cc3_3a0b,
        0x7a95_c3e0_843f_2f20,
        0x2eae_022f_a426_4282_81ca_3811_3cc3_3a0b,
    ),
    (
        "Reports rose 12% in the café sector — see <table>",
        0x87c8_73c5_786a_4624,
        0x154f_7e02_51f5_fe8e,
        0x19a8_c50e_09c1_8eea_87c8_73c5_786a_4624,
    ),
];

/// Content keys `(hi, lo)` of the calls built by [`keys`], in order.
const KEY_PINS: [(u64, u64); 9] = [
    (0x2405_b0ef_7d1f_5414, 0x174d_562c_30de_9852),
    (0x2349_7552_ff27_7f75, 0xc17b_ba46_2beb_608c),
    (0xdec0_aa32_af45_1db6, 0xd0a5_e7c5_297b_23c0),
    (0xe5f2_ccba_8b65_b989, 0x7026_a53c_569e_a7df),
    (0x7b31_85da_ec47_745c, 0xdd0e_42d2_25d5_3555),
    (0x7e62_bf94_8e1f_abe6, 0xab9b_857e_cb68_414d),
    (0x4237_bdc0_8fee_0639, 0xf7a7_2f21_fd5f_4d69),
    (0x2e98_dac3_c9e0_fbac, 0x83b3_8105_06ef_b5e0),
    (0xf934_caae_f6a6_fab8, 0xcba6_817c_6600_1d55),
];

#[test]
fn string_hashes_are_pinned() {
    assert_eq!(splitmix64(7), 0x63cb_e1e4_5932_0dd7);
    assert_eq!(hash::splitmix64(7), 0x63cb_e1e4_5932_0dd7);
    for (text, h, fnv, plan) in PINS {
        assert_eq!(hash_str(text), h, "hash_str({text:?})");
        assert_eq!(hash::hash_str(text), h, "data::hash::hash_str({text:?})");
        assert_eq!(fnv64(text.as_bytes()), fnv, "fnv64({text:?})");
        assert_eq!(hash::fnv1a64(text.as_bytes()), fnv, "fnv1a64({text:?})");
        assert_eq!(plan_hash(text), plan, "plan_hash({text:?})");
    }
}

#[test]
fn content_keys_are_pinned() {
    assert_eq!(keys(), KEY_PINS);
}

#[test]
fn memoized_document_hashes_match_the_pins() {
    // A document's memoized text hash is `hash_str` of its reader text.
    for (text, h, _, _) in PINS {
        let doc = Document::new("pin.txt", text);
        assert_eq!(doc.text_hash(), h, "{text:?}");
    }
}
