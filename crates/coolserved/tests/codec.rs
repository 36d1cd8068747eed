//! The answer codec keeps stored documents byte for byte: a paper-scale
//! (40×40) cold answer document, written by the result store before the
//! codec read and wrote integers through their own paths, decodes
//! through the store's disk tier and is written back unchanged. The
//! tape reader the disk tier decodes through answers as the tree does:
//! on truncated documents, reordered and duplicated keys, and escaped
//! strings.

use coolserved::json::Json;
use coolserved::wire::{response_from_json, response_to_json};
use coolserved::{decode_document, render_document, ResultSource, ResultStore};
use postplace::{CacheKey, OptimizeOutcome, OptimizeResponse};

const FIXTURE: &str = include_str!("fixtures/paper_cold_answer.json");

fn fixture_key() -> CacheKey {
    Json::parse(FIXTURE)
        .unwrap()
        .get("response")
        .and_then(|r| r.get("key"))
        .and_then(Json::as_str)
        .and_then(CacheKey::from_hex)
        .unwrap()
}

/// The stored answer's wire render, the same bytes for equal answers.
fn wire(response: &OptimizeResponse) -> String {
    response_to_json(response).render()
}

/// `doc` with every object's members in reverse order, at every level.
fn reversed(doc: &Json) -> Json {
    match doc {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .iter()
                .rev()
                .map(|(k, v)| (k.clone(), reversed(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(reversed).collect()),
        other => other.clone(),
    }
}

/// The object reached from `doc` by following `path`'s member names.
fn object_at<'a>(doc: &'a mut Json, path: &[&str]) -> &'a mut Vec<(String, Json)> {
    let Json::Obj(pairs) = doc else {
        panic!("not an object");
    };
    match path.split_first() {
        None => pairs,
        Some((name, rest)) => {
            let slot = pairs.iter_mut().find(|(k, _)| k == name).unwrap();
            object_at(&mut slot.1, rest)
        }
    }
}

#[test]
fn a_stored_paper_answer_decodes_and_re_renders_byte_for_byte() {
    assert_eq!(Json::parse(FIXTURE).unwrap().render(), FIXTURE);
    let key = fixture_key();
    let root = std::env::temp_dir().join(format!("coolserved-codec-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let reader = ResultStore::new(4, Some(root.join("read")));
    let path = reader.path_for(key).unwrap();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, FIXTURE).unwrap();
    let (response, source) = reader.get(key).unwrap().expect("the fixture decodes");
    assert_eq!(source, ResultSource::DiskCache);

    let writer = ResultStore::new(4, Some(root.join("write")));
    writer.put(key, response).unwrap();
    let written = std::fs::read_to_string(writer.path_for(key).unwrap()).unwrap();
    assert_eq!(written, FIXTURE);
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn every_truncation_of_a_stored_answer_is_an_error() {
    // Every cut short of the closing brace; only the trailing newline
    // may go.
    let document = FIXTURE.trim_end();
    let cuts = (0..document.len()).filter(|&n| FIXTURE.is_char_boundary(n));
    for n in cuts {
        let prefix = &FIXTURE[..n];
        assert!(Json::parse(prefix).is_err(), "prefix of {n} bytes parsed");
        assert!(
            decode_document(prefix).is_err(),
            "prefix of {n} bytes decoded"
        );
    }
    // Through the store, a truncated document is quarantined as a miss.
    let key = fixture_key();
    let root = std::env::temp_dir().join(format!("coolserved-cut-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = ResultStore::new(4, Some(root.clone()));
    let path = store.path_for(key).unwrap();
    for n in [0, 1, 2, FIXTURE.len() / 3, document.len() - 1] {
        std::fs::write(&path, &FIXTURE[..n]).unwrap();
        assert!(store.get(key).unwrap().is_none(), "prefix of {n} bytes");
    }
    assert_eq!(store.stats().quarantined, 5);
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn reordered_keys_decode_to_the_same_answer() {
    let doc = Json::parse(FIXTURE).unwrap();
    let want = wire(&decode_document(FIXTURE).unwrap());
    let shuffled = reversed(&doc);
    let text = shuffled.render();
    assert_ne!(text, FIXTURE, "the reorder must move bytes");
    assert_eq!(wire(&decode_document(&text).unwrap()), want);
    let tree = response_from_json(shuffled.get("response").unwrap()).unwrap();
    assert_eq!(wire(&tree), want);
}

#[test]
fn a_duplicated_key_resolves_to_its_first_value() {
    let mut doc = Json::parse(FIXTURE).unwrap();
    let before = object_at(&mut doc, &["response", "outcome", "report", "before"]);
    let first = before[0].clone();
    assert_eq!(first.0, "peak_c");
    before.push(("peak_c".to_string(), Json::Num(-1.0)));
    let text = doc.render();
    let want = wire(&decode_document(FIXTURE).unwrap());
    assert_eq!(wire(&decode_document(&text).unwrap()), want);
    let tree = Json::parse(&text).unwrap();
    assert_eq!(
        wire(&response_from_json(tree.get("response").unwrap()).unwrap()),
        want
    );
}

#[test]
fn an_escaped_transform_id_round_trips() {
    let mut response = decode_document(FIXTURE).unwrap();
    let OptimizeOutcome::Report(report) = &mut response.outcome else {
        panic!("the fixture is a report");
    };
    let id = "uniform:\"quoted\" back\\slash é".to_string();
    report.transform_id = id.clone();
    let text = render_document(&response);
    assert!(
        text.contains(r#"uniform:\"quoted\" back\\slash é"#),
        "{text}"
    );
    let back = decode_document(&text).unwrap();
    let OptimizeOutcome::Report(decoded) = &back.outcome else {
        panic!("decodes as a report");
    };
    assert_eq!(decoded.transform_id, id);
    assert_eq!(render_document(&back), text);
}
