//! The answer codec keeps stored documents byte for byte: a paper-scale
//! (40×40) cold answer document, written by the result store before the
//! codec read and wrote integers through their own paths, decodes
//! through the store's disk tier and is written back unchanged.

use coolserved::json::Json;
use coolserved::{ResultSource, ResultStore};
use postplace::CacheKey;

const FIXTURE: &str = include_str!("fixtures/paper_cold_answer.json");

#[test]
fn a_stored_paper_answer_decodes_and_re_renders_byte_for_byte() {
    assert_eq!(Json::parse(FIXTURE).unwrap().render(), FIXTURE);
    let key = Json::parse(FIXTURE)
        .unwrap()
        .get("response")
        .and_then(|r| r.get("key"))
        .and_then(Json::as_str)
        .and_then(CacheKey::from_hex)
        .unwrap();
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
