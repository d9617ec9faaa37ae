//! The shipped machine files under `machines/`. Each built-in model is the
//! parse of one of them, and `mdl_roundtrip.rs::model_machines_round_trip`
//! round-trips those; this test finds the rest with `read_dir`, so a new
//! file cannot be skipped.

use rmd_integration::assert_mdl_round_trip;
use rmd_machine::{mdl, models};
use std::path::PathBuf;

/// Every file whose machine is not a built-in survives parse, print,
/// reparse as an equal machine with an identical forbidden matrix.
#[test]
fn file_only_machines_round_trip_through_the_printer() {
    let builtins = models::all_machines();
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../machines");
    let (mut builtin_sources, mut file_only) = (0, 0);
    for entry in std::fs::read_dir(&dir).expect("machines/ is readable") {
        let path = entry.expect("directory entry").path();
        if path.extension().and_then(|x| x.to_str()) != Some("mdl") {
            continue;
        }
        let name = path.display().to_string();
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
        let (m, _) = mdl::parse_machine(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        if builtins.contains(&m) {
            builtin_sources += 1;
            continue;
        }
        assert_mdl_round_trip(&m, &name);
        file_only += 1;
    }
    assert_eq!(
        builtin_sources,
        builtins.len(),
        "each built-in model is the parse of one file under {}",
        dir.display()
    );
    assert!(
        file_only > 0,
        "no file-only machines under {}",
        dir.display()
    );
}
