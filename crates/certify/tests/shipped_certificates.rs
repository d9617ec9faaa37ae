//! The committed certificates and the shipped machines correspond one to
//! one: each `machines/*.mdl` file has exactly one certificate under
//! `certs/`, and each certificate vouches for a shipped file. Editing a
//! machine without regenerating its certificate (`rmd certify`) fails
//! here.

use rmd_certify::Certificate;
use rmd_machine::{content_fingerprint, mdl};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The `*.{ext}` files under the repository directory `dir`, with their
/// text.
fn read_all(dir: &str, ext: &str) -> Vec<(PathBuf, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(dir);
    let entries = std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    let mut paths: Vec<PathBuf> = entries
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().and_then(|x| x.to_str()) == Some(ext))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let text =
                std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("{}: {e}", p.display()));
            (p, text)
        })
        .collect()
}

/// Inserts `path` under `fingerprint`, failing if another file claimed it.
fn claim(by_fp: &mut BTreeMap<String, PathBuf>, fingerprint: String, path: PathBuf) {
    if let Some(other) = by_fp.get(&fingerprint) {
        panic!(
            "{} and {} both have fingerprint {fingerprint}",
            other.display(),
            path.display()
        );
    }
    by_fp.insert(fingerprint, path);
}

#[test]
fn every_shipped_machine_has_exactly_one_certificate() {
    let mut machines = BTreeMap::new();
    for (path, text) in read_all("machines", "mdl") {
        let (m, _) =
            mdl::parse_machine(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        claim(&mut machines, content_fingerprint(&m), path);
    }
    let mut certified = BTreeMap::new();
    for (path, text) in read_all("certs", "json") {
        let cert = Certificate::parse(&text)
            .unwrap_or_else(|| panic!("{}: not a valid certificate", path.display()));
        claim(&mut certified, cert.fingerprint, path);
    }
    for (fp, path) in &machines {
        assert!(
            certified.contains_key(fp),
            "{}: no certificate under certs/ vouches for {fp}; regenerate it with `rmd certify`",
            path.display()
        );
    }
    for (fp, path) in &certified {
        assert!(
            machines.contains_key(fp),
            "{}: certifies {fp}, which no file under machines/ describes",
            path.display()
        );
    }
}
