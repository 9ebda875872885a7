//! Sweep result persistence: one JSON file per `(cell, seed)` job,
//! laid out as `<root>/<slug>/<seed>.json`.

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use super::record::CellRecord;

/// Path of the record for `(slug, seed)` under `root`.
pub fn record_path(root: &Path, slug: &str, seed: u64) -> PathBuf {
    root.join(slug).join(format!("{seed}.json"))
}

/// Writes one record (creating `<root>/<slug>/` on demand). The file
/// content is a pure function of the record — no timestamps — so
/// re-running a sweep reproduces it byte-for-byte.
///
/// The write goes to a sibling `<seed>.json.tmp` that is synced and
/// renamed into place, so a sweep killed mid-write never leaves a truncated
/// `<seed>.json` that a rerun would count as done; a stray `.tmp` is
/// neither read nor counted as a record and is overwritten by the
/// next attempt.
pub fn write_record(root: &Path, record: &CellRecord) -> io::Result<PathBuf> {
    let path = record_path(root, &record.slug, record.seed);
    fs::create_dir_all(path.parent().expect("record path has a parent"))?;
    let body = serde_json::to_string_pretty(record)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let tmp = path.with_extension("json.tmp");
    let mut f = fs::File::create(&tmp)?;
    f.write_all(body.as_bytes())?;
    f.sync_all()?;
    fs::rename(&tmp, &path)?;
    Ok(path)
}

/// Loads every record under `root`, sorted by `(slug, seed)` so the
/// result is independent of directory-iteration order. Non-`.json`
/// entries are ignored; unreadable or malformed records are errors —
/// a sweep directory is machine-written, so damage means a real
/// problem, not noise to skip.
pub fn read_records(root: &Path) -> io::Result<Vec<CellRecord>> {
    let mut records = Vec::new();
    if !root.exists() {
        return Ok(records);
    }
    for cell_dir in fs::read_dir(root)? {
        let cell_dir = cell_dir?.path();
        if !cell_dir.is_dir() {
            continue;
        }
        for entry in fs::read_dir(&cell_dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let text = fs::read_to_string(&path)?;
            let record: CellRecord = serde_json::from_str(&text).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: {e}", path.display()),
                )
            })?;
            records.push(record);
        }
    }
    records.sort_by(|a, b| (&a.slug, a.seed).cmp(&(&b.slug, b.seed)));
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::record::{CurvePoint, RECORD_VERSION};

    fn rec(slug: &str, seed: u64) -> CellRecord {
        CellRecord {
            version: RECORD_VERSION,
            experiment: "fig3".into(),
            slug: slug.into(),
            group: "fig3".into(),
            method: "AdaptiveFL".into(),
            model: "VGG16".into(),
            dataset: "SynCIFAR-10".into(),
            partition: "IID".into(),
            variant: String::new(),
            seed,
            best_full: 0.5,
            best_avg: 0.4,
            final_full: 0.45,
            final_avg: 0.35,
            comm_waste: 0.1,
            sim_secs: 12.0,
            levels: vec![("S_1".into(), 0.3)],
            curve: vec![CurvePoint {
                round: 1,
                secs: 2.0,
                full: 0.45,
                avg: 0.35,
            }],
            fingerprint_fnv: 42,
        }
    }

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("adaptivefl-sweep-io-{tag}"));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn write_then_read_round_trips_sorted() {
        let root = tmp_root("roundtrip");
        for (slug, seed) in [("b-cell", 2024u64), ("a-cell", 2025), ("a-cell", 2024)] {
            write_record(&root, &rec(slug, seed)).unwrap();
        }
        let back = read_records(&root).unwrap();
        let keys: Vec<(String, u64)> = back.iter().map(|r| (r.slug.clone(), r.seed)).collect();
        assert_eq!(
            keys,
            vec![
                ("a-cell".into(), 2024),
                ("a-cell".into(), 2025),
                ("b-cell".into(), 2024)
            ]
        );
        assert_eq!(back[0], rec("a-cell", 2024));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn rewriting_is_byte_identical() {
        let root = tmp_root("stable");
        let p1 = write_record(&root, &rec("c", 1)).unwrap();
        let first = fs::read(&p1).unwrap();
        let p2 = write_record(&root, &rec("c", 1)).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(first, fs::read(&p2).unwrap());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn missing_root_reads_empty() {
        let root = tmp_root("missing");
        assert!(read_records(&root).unwrap().is_empty());
    }

    #[test]
    fn stray_temp_file_is_not_a_record() {
        let root = tmp_root("torn");
        fs::create_dir_all(root.join("x")).unwrap();
        // What a sweep killed between write and rename leaves behind.
        fs::write(root.join("x/1.json.tmp"), "{\"version\": 1, \"expe").unwrap();
        assert!(!record_path(&root, "x", 1).exists());
        assert!(read_records(&root).unwrap().is_empty());
        // The rerun's write replaces it with the real record.
        write_record(&root, &rec("x", 1)).unwrap();
        assert_eq!(read_records(&root).unwrap(), vec![rec("x", 1)]);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn malformed_record_is_an_error() {
        let root = tmp_root("malformed");
        fs::create_dir_all(root.join("x")).unwrap();
        fs::write(root.join("x/1.json"), "{not json").unwrap();
        assert!(read_records(&root).is_err());
        fs::remove_dir_all(&root).unwrap();
    }
}
